import math
import tracemalloc

import numpy as np
import pytest

import oracles
from cvmaps.fock import FockDim, _order_rows, coherent_state, fock_state, thermal_state
from cvmaps.kernels import kernel_from_tensor
from cvmaps.tensors import identity_tensor
from cvmaps.wigner import (
    QuadratureGrid,
    WignerField,
    _trapezoid_weights,
    grid_integral,
    overlap,
    weyl_symbol,
    wigner_basis,
    wigner_basis_table,
    wigner_of,
)

BOX = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 97, 97)
EPS = np.finfo(float).eps


def test_vacuum_closed_form():
    grid = QuadratureGrid(-4.0, 4.0, -4.0, 4.0, 41, 41)
    w = wigner_of(fock_state(0, FockDim(5)), grid)
    ref = np.exp(-grid.xs[:, None] ** 2 - grid.ps[None, :] ** 2) / math.pi
    assert np.max(np.abs(w.values - ref)) < 1e-15


def test_coherent_closed_form():
    grid = QuadratureGrid(-5.0, 5.0, -5.0, 5.0, 61, 61)
    alpha = 0.8 - 0.5j
    w = wigner_of(coherent_state(alpha, FockDim(35)), grid)
    ref = oracles.coherent_wigner(alpha, grid.xs[:, None], grid.ps[None, :])
    # only truncation error; |alpha|^2 = 0.89 converges fast at n_max = 35
    assert np.max(np.abs(w.values - ref)) < 1e-13


def test_single_photon_closed_form():
    x, p = 0.35, -1.2
    r2 = x * x + p * p
    ref = (2.0 * r2 - 1.0) * math.exp(-r2) / math.pi
    val = wigner_basis(1, 1, x, p)
    assert abs(val - ref) < 1e-15
    assert abs(wigner_basis(1, 1, 0.0, 0.0).real + 1.0 / math.pi) < 1e-15


def test_basis_against_laguerre_closed_form():
    xs = np.linspace(-2.5, 2.5, 11)
    ps = np.linspace(-2.0, 2.0, 9)
    for n in range(4):
        for m in range(4):
            ours = wigner_basis(n, m, xs[:, None], ps[None, :])
            ref = oracles.wigner_basis_laguerre(n, m, xs[:, None], ps[None, :])
            assert np.max(np.abs(ours - ref)) < 1e-13, (n, m)


def test_basis_against_quadrature_integral():
    # chord-integral definition, no Laguerre identities involved
    rho = np.outer(oracles.coherent_amplitudes(0.5 + 0.3j, 11),
                   oracles.coherent_amplitudes(0.5 + 0.3j, 11).conj())
    pts = [(0.0, 0.0), (0.7, -0.4), (-1.3, 0.9), (2.0, 1.5)]
    table = wigner_basis_table(FockDim(10), QuadratureGrid(-3, 3, -3, 3, 4, 4))
    del table  # separate sanity that caching does not interfere
    for x, p in pts:
        ref = oracles.wigner_quadrature(rho, x, p)
        val = sum(rho[n, m] * wigner_basis(n, m, x, p)
                  for n in range(11) for m in range(11)).real
        assert abs(val - ref) < 1e-8, (x, p)


def test_normalization_and_hermiticity():
    dim = FockDim(12)
    for n in (0, 3):
        w = wigner_of(fock_state(n, dim), BOX)
        assert abs(w.integral() - 1.0) < 1e-9, n
    # |12> reaches r ~ 5 with slow tails, needs the wider box
    wide = QuadratureGrid(-8.0, 8.0, -8.0, 8.0, 129, 129)
    w = wigner_of(fock_state(12, dim), wide)
    assert abs(w.integral() - 1.0) < 1e-9
    # W_{nm} = conj(W_{mn})
    a = wigner_basis(2, 5, 0.4, -0.7)
    b = wigner_basis(5, 2, 0.4, -0.7)
    assert abs(a - np.conj(b)) < 1e-16


def test_trace_rule():
    dim = FockDim(12)
    wa = wigner_of(fock_state(3, dim), BOX)
    wb = wigner_of(thermal_state(0.8, dim), BOX)
    expect = float(thermal_state(0.8, dim).diagonal()[3])
    assert abs(overlap(wa, wb) - expect) < 1e-9
    purity = overlap(wa, wa)
    assert abs(purity - 1.0) < 1e-9


def test_weyl_symbol_trace_rule():
    dim = FockDim(8)
    sym = weyl_symbol(np.diag(np.arange(dim.size, dtype=complex)), dim, BOX)
    rho = coherent_state(0.6, dim)
    got = grid_integral((sym * wigner_of(rho, BOX).values).real, BOX)
    expect = float(np.arange(dim.size) @ np.diag(rho.matrix).real)
    assert abs(got - expect) < 1e-9
    # the symbol of a state is 2 pi times its Wigner function
    sym_rho = weyl_symbol(rho.matrix, dim, BOX)
    assert np.max(np.abs(sym_rho - 2.0 * math.pi
                         * wigner_of(rho, BOX).values)) < 1e-13
    with pytest.raises(ValueError):
        weyl_symbol(np.eye(3), dim, BOX)


def test_far_field_dead_points_exact_zero():
    # envelope underflow must give exactly 0.0, not NaN from 0 * inf
    val = wigner_basis(20, 30, 30.0, 0.0)
    assert val == 0.0
    vals = wigner_basis(5, 5, np.array([0.0, 40.0]), np.array([0.0, 0.0]))
    assert vals[1] == 0.0 and np.isfinite(vals[0])


def test_grid_and_field_validation():
    with pytest.raises(ValueError):
        QuadratureGrid(1.0, -1.0, -1.0, 1.0, 11, 11)
    with pytest.raises(ValueError):
        QuadratureGrid(-1.0, 1.0, -1.0, 1.0, 1, 11)
    grid = QuadratureGrid(-1.0, 1.0, -1.0, 1.0, 5, 7)
    with pytest.raises(ValueError):
        WignerField(grid, np.zeros((7, 5)))
    f = WignerField(grid, np.ones((5, 7)))
    assert abs(f.integral() - 4.0) < 1e-12
    assert abs(grid_integral(np.ones((5, 7)), grid) - 4.0) < 1e-12


def test_field_refuses_complex_values():
    # Wigner functions are real: a complex array is refused, not cast to 0
    grid = QuadratureGrid(-1.0, 1.0, -1.0, 1.0, 5, 7)
    with pytest.raises(ValueError, match="complex"):
        WignerField(grid, 1j * np.ones((5, 7)))


@pytest.mark.parametrize("bounds", [(math.nan, 1.0, -1.0, 1.0), (-1.0, math.inf, -1.0, 1.0),
                                    (-1.0, 1.0, -math.inf, 1.0), (-1.0, 1.0, -1.0, math.nan)])
def test_grid_refuses_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        QuadratureGrid(*bounds, 11, 11)


@pytest.mark.parametrize("counts", [(11.0, 11), (11, 7.5), ("11", 11)])
def test_grid_refuses_non_integer_point_counts(counts):
    with pytest.raises(ValueError, match="integer"):
        QuadratureGrid(-1.0, 1.0, -1.0, 1.0, *counts)
    assert QuadratureGrid(-1.0, 1.0, -1.0, 1.0, np.int64(11), 11).xs.size == 11


def test_trapezoid_weights_match_the_trapezoid_rule(rng):
    # non-uniform axes, down to a single sample (whose integral is 0)
    for n in (1, 2, 3, 8, 40):
        axis = np.sort(rng.uniform(-2.0, 3.0, n))
        f = rng.standard_normal((4, n))
        got = f @ _trapezoid_weights(np.diff(axis))
        ref = oracles.trapezoid(f, axis, axis=-1)
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
    # a uniform grid: interior weights are the spacing itself, ends half of it
    grid = QuadratureGrid(-1.5, 2.0, -1.0, 1.0, 8, 5)
    assert np.array_equal(grid.weights[1:-1, 1:-1], np.full((6, 3), grid.dx * grid.dp))
    assert grid.weights[0, 0] == grid.dx * grid.dp / 4
    f = rng.standard_normal((8, 5))
    ref = oracles.trapezoid(oracles.trapezoid(f, grid.ps, axis=1), grid.xs)
    assert abs(grid_integral(f, grid) - ref) <= 1e-14


def test_basis_table_matches_pointwise():
    # the real table holds each order's rows: W_{|k><k|} for q = 0, then C_k
    # and S_k with W_{|k+q><k|} = (C_k + i S_k)/sqrt(2), as the public element
    # gives them
    dim = FockDim(6)
    d = dim.size
    grid = QuadratureGrid(-2.0, 2.0, -2.0, 2.0, 9, 9)
    table = wigner_basis_table(dim, grid)
    assert not table.flags.writeable
    assert table.shape == (d * d, 81) and table.dtype == float
    for q, rows in _order_rows(d):
        block = table[rows]
        for k in range(d - q):
            ref = wigner_basis(k + q, k, grid.xs[:, None], grid.ps[None, :]).ravel()
            if q == 0:
                assert np.array_equal(block[k], ref.real)
            else:
                got = block[k] + 1j * block[d - q + k]
                scale = np.abs(ref).max()
                assert np.max(np.abs(got / math.sqrt(2.0) - ref)) <= 4 * EPS * scale


def test_basis_table_holds_eight_bytes_per_row_and_point():
    # one real row per Hermitian basis operator: D^2 rows of float64
    grid = QuadratureGrid(-5.0, 5.0, -5.0, 5.0, 81, 81)
    table = wigner_basis_table(FockDim(40), grid)
    assert table.dtype == float and table.nbytes == 8 * 41 ** 2 * 81 ** 2


def test_weyl_symbol_refuses_an_operator_that_is_not_hermitian():
    dim = FockDim(3)
    op = np.zeros((4, 4), dtype=complex)
    op[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        weyl_symbol(op, dim, BOX)
    assert weyl_symbol(op + op.T, dim, BOX).dtype == float


def test_basis_table_refuses_oversized_grids_before_allocating():
    # 16^2 * 20001^2 real values would be 0.75 TiB
    grid = QuadratureGrid(-5.0, 5.0, -5.0, 5.0, 20001, 20001)
    t = identity_tensor(FockDim(15))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="basis table"):
            wigner_basis_table(FockDim(15), grid)
        with pytest.raises(ValueError, match="basis table"):
            kernel_from_tensor(t, grid, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_a_basis_table_is_shared_while_held_and_freed_with_its_kernel():
    # apply's sequence at n_max 40 on the default apply grid (166 MB): the
    # kernel builds one table for both sides, and the two wigner_of calls read it
    import gc
    import weakref

    from cvmaps import cli
    from cvmaps.elements import attenuation

    wigner_basis_table.cache_clear()
    dim = FockDim(40)
    grid = cli._default_apply_grid(dim)
    fk = kernel_from_tensor(attenuation(0.5, dim).tensor(), grid, grid)
    table = weakref.ref(fk.b_in.base)
    assert fk.b_out is fk.b_in  # one table serves both sides
    info = wigner_basis_table.cache_info()
    assert (info.misses, info.entries, info.nbytes) == (1, 1, fk.b_in.nbytes)
    rho = coherent_state(1.5, dim)
    wigner_of(rho, grid)
    wigner_of(rho, grid)
    after = wigner_basis_table.cache_info()
    assert (after.misses, after.hits - info.hits) == (1, 2)
    del fk
    gc.collect()
    assert table() is None
    assert wigner_basis_table.cache_info()[2:] == (0, 0)


def test_cache_counts_hits_while_a_table_is_held():
    from cvmaps import verify

    wigner_basis_table.cache_clear()
    verify.check_trace_rule(None)  # one grid sampled twice, no table held between
    assert tuple(wigner_basis_table.cache_info()) == (0, 2, 0, 0)
    table = wigner_basis_table(FockDim(20), BOX)  # the grid of both checks, held
    verify.check_wigner_normalization(None)
    verify.check_trace_rule(None)
    info = wigner_basis_table.cache_info()
    assert tuple(info) == (3, 3, 1, table.nbytes)
    wigner_basis_table.cache_clear()
    assert tuple(wigner_basis_table.cache_info()) == (0, 0, 0, 0)
