import dataclasses
import functools
import importlib
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_pure_state
from cvmaps import cli, fock, models, tensors
from cvmaps.fock import DensityOperator, FockDim, coherent_state, fock_state
from cvmaps.kernels import (apply_kernel, input_marginal, kernel_from_tensor,
                            output_marginal, radial_form)
from cvmaps.wigner import QuadratureGrid, wigner_of
from cvmaps.tensors import (
    KrausSet,
    ProcessTensor,
    apply_kraus,
    apply_tensor,
    combine_heralding,
    compose_serial,
    cp_defect,
    identity_tensor,
    PhaseSymmetryError,
    PhysicalityError,
    phase_invariance_defect,
    require_cp,
    require_phase_invariant,
    require_tni,
    scale_tensor,
    success_probability,
    tensor_diagonal,
    tensor_from_kraus,
    tni_defect,
)

DIM = FockDim(5)
ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


def random_kraus(rng, dim, count=3, scale=0.4):
    d = dim.size
    ops = [scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
           for _ in range(count)]
    return KrausSet(dim, ops)


def test_tensor_from_kraus_matches_definition(rng):
    k = random_kraus(rng, DIM)
    t = tensor_from_kraus(k)
    d = DIM.size
    ref = np.zeros((d, d, d, d), dtype=complex)
    for op in k.operators:
        for l in range(d):
            for kk in range(d):
                for n in range(d):
                    for m in range(d):
                        ref[l, kk, n, m] += op[l, n] * np.conj(op[kk, m])
    assert np.max(np.abs(oracles.entries(t) - ref)) < 1e-14
    c = oracles.choi_reference(t)
    assert np.array_equal(c, c.conj().T)


def test_apply_tensor_matches_kraus(rng):
    k = random_kraus(rng, DIM)
    t = tensor_from_kraus(k)
    psi = random_pure_state(rng, DIM.size)
    rho = DensityOperator(DIM, np.outer(psi, psi.conj()))
    via_tensor = apply_tensor(t, rho)
    via_kraus = apply_kraus(k, rho)
    assert np.max(np.abs(via_tensor.matrix - via_kraus.matrix)) < 1e-14
    ref = sum(op @ rho.matrix @ op.conj().T for op in k.operators)
    assert np.max(np.abs(via_kraus.matrix - ref)) < 1e-14
    assert abs(success_probability(t, rho) - np.trace(ref).real) < 1e-14


def test_identity_and_zero():
    t = identity_tensor(DIM)
    rho = coherent_state(0.4 + 0.2j, DIM)
    out = apply_tensor(t, rho)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-15
    assert cp_defect(t) > -1e-12
    assert abs(tni_defect(t)) < 1e-14
    z = scale_tensor(t, 0.0)
    assert success_probability(z, rho) == 0.0


def test_identity_tensor_is_the_einsum_it_replaced():
    for n_max in (1, 2, 6):
        eye = np.eye(n_max + 1, dtype=complex)
        assert np.array_equal(oracles.entries(identity_tensor(FockDim(n_max))),
                              np.einsum("ln,km->lknm", eye, eye))


def test_compose_serial_matches_operator_product(rng):
    k1 = random_kraus(rng, DIM, count=2)
    k2 = random_kraus(rng, DIM, count=2)
    t = compose_serial(tensor_from_kraus(k2), tensor_from_kraus(k1))
    prods = [b @ a for b in k2.operators for a in k1.operators]
    ref = tensor_from_kraus(KrausSet(DIM, prods))
    assert np.max(np.abs(oracles.entries(t) - oracles.entries(ref))) < 1e-13


def test_compose_serial_associative(rng):
    ts = [tensor_from_kraus(random_kraus(rng, FockDim(3), count=2))
          for _ in range(3)]
    left = compose_serial(compose_serial(ts[2], ts[1]), ts[0])
    right = compose_serial(ts[2], compose_serial(ts[1], ts[0]))
    assert np.max(np.abs(oracles.entries(left) - oracles.entries(right))) < 1e-13


def test_choi_spectrum_flags_non_cp():
    d = DIM.size
    # transpose map: Hermiticity-symmetric but famously not CP
    arr = np.zeros((d, d, d, d), dtype=complex)
    for l in range(d):
        for k in range(d):
            arr[l, k, k, l] = 1.0
    t = oracles.tensor_of_elements(DIM, arr)
    c = oracles.choi_reference(t)
    assert np.array_equal(c, c.conj().T)
    assert cp_defect(t) < -0.9
    with pytest.raises(PhysicalityError, match="not completely positive"):
        require_cp(t)
    ok = tensor_from_kraus(KrausSet(DIM, [np.eye(d) * 0.7]))
    assert require_cp(ok) is ok
    assert cp_defect(ok) > -1e-12


def test_choi_matches_elements(rng):
    # the Choi matrix C_{(l,n),(k,m)} = E^{n,m}_{l,k} of a Kraus tensor is
    # A W A^dag, A the columns vec(E_i): the form cp_defect reads
    t = tensor_from_kraus(random_kraus(rng, FockDim(2)))
    c, arr = oracles.choi_reference(t), oracles.entries(t)
    d = 3
    for l in range(d):
        for k in range(d):
            for n in range(d):
                for m in range(d):
                    assert c[l * d + n, k * d + m] == arr[l, k, n, m]
    a = t.ops.reshape(len(t.ops), d * d).T
    assert np.max(np.abs(c - (a * t.weights) @ a.conj().T)) < 1e-14


def test_trace_nonincreasing_detection():
    d = DIM.size
    ok = tensor_from_kraus(KrausSet(DIM, [0.9 * np.eye(d)]))
    assert require_tni(ok) is ok
    bad = tensor_from_kraus(KrausSet(DIM, [1.1 * np.eye(d)]))
    with pytest.raises(PhysicalityError, match="trace-increasing"):
        require_tni(bad)
    assert abs(tni_defect(bad) - 0.21) < 1e-12


def test_phase_invariance_defect():
    t = identity_tensor(DIM)
    assert phase_invariance_defect(t) == 0.0
    arr = np.array(oracles.entries(t))
    arr[1, 0, 0, 0] = 0.25  # breaks sum(l - k) = sum(n - m)
    arr[0, 1, 0, 0] = 0.25
    broken = oracles.tensor_of_elements(DIM, arr)
    assert abs(phase_invariance_defect(broken) - 0.25) < 1e-15
    from cvmaps.fock import displacement_matrix

    disp = tensor_from_kraus(KrausSet(DIM, [displacement_matrix(0.3, DIM)]))
    assert phase_invariance_defect(disp) > 1e-3


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n_max=st.integers(1, 9), count=st.integers(0, 4),
       scale=st.floats(-300.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_phase_invariance_defect_matches_full_mask_property(n_max, count, scale, seed):
    # a random tensor on the bands l - k = n - m, plus a few random entries
    # off them, some far below the band entries
    rng = np.random.default_rng(seed)
    d = n_max + 1
    shape = (d,) * 4
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    l, k, n, m = np.indices(shape)
    arr[l - k != n - m] = 0.0
    for _ in range(count):
        spot = tuple(rng.integers(0, d, 4))
        arr[spot] = 10.0 ** rng.uniform(scale, 3.0) * np.exp(2j * np.pi * rng.uniform())
    # a caller's tensor preserves Hermiticity: E[k, l, m, n] = conj(E[l, k, n, m])
    arr = (arr + arr.transpose(1, 0, 3, 2).conj()) / 2
    t = oracles.tensor_of_elements(FockDim(n_max), arr)
    assert phase_invariance_defect(t) == oracles.phase_invariance_defect_reference(t)
    # the conversion moves each entry by a few eps of the largest
    gap = abs(phase_invariance_defect(t) - oracles.off_band_max_reference(arr))
    assert gap <= 64 * np.finfo(float).eps * np.abs(arr).max()


@pytest.mark.parametrize("n_max", [1, 4, 9])
def test_coherence_blocks_are_the_masked_blocks(rng, n_max):
    # the band reader yields, for each order q >= 0 in turn, the real block
    # [[A, B], [-B, A]] of M_q = A + iB, M_q[a, b] = E[a + q, a, b + q, b], in
    # the dense array of the drawn Hermitian shift blocks, and the slice of the
    # real coordinates that order q alone fills
    dim = FockDim(n_max)
    d = dim.size
    bands = {}
    for s in range(1 - d, d):
        b = rng.standard_normal((d - abs(s),) * 2) + 1j * rng.standard_normal((d - abs(s),) * 2)
        bands[s] = b + b.conj().T
    t = tensors._band_tensor(dim, bands.items())
    e = oracles.band_tensor_reference(dim, bands.items())
    got = list(tensors._coherence_blocks(t))
    assert [q for q, _, _ in got] == list(range(d))
    order = np.subtract.outer(np.arange(d), np.arange(d))  # l - k of X[l, k]
    for q, rows, block in got:
        i = np.arange(d - q)
        m = e[i[:, None] + q, i[:, None], i + q, i]
        a, b = m.real, m.imag
        assert np.array_equal(block, a if q == 0 else np.block([[a, b], [-b, a]]))
        assert isinstance(rows, slice)  # no row mask is built
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = np.where(np.abs(order) == q, h + h.conj().T, 0.0)  # order +-q alone
        coords = fock._coordinates(h)
        assert np.flatnonzero(coords).tolist() == list(range(d * d))[rows]


def test_phase_invariance_gate():
    t = identity_tensor(DIM)
    assert require_phase_invariant(t) is t
    from cvmaps.fock import displacement_matrix

    disp = tensor_from_kraus(KrausSet(DIM, [displacement_matrix(0.3, DIM)]))
    with pytest.raises(PhaseSymmetryError, match="map is not phase invariant") as err:
        require_phase_invariant(disp)
    assert isinstance(err.value, ValueError) and not isinstance(err.value, PhysicalityError)
    assert f"{phase_invariance_defect(disp):.3e}" in str(err.value)


def test_combine_and_scale(rng):
    a = tensor_from_kraus(random_kraus(rng, DIM, count=1, scale=0.3))
    b = tensor_from_kraus(random_kraus(rng, DIM, count=1, scale=0.3))
    both = combine_heralding(a, b)
    rho = fock_state(1, DIM)
    pa = success_probability(a, rho)
    pb = success_probability(b, rho)
    assert abs(success_probability(both, rho) - (pa + pb)) < 1e-14
    assert abs(success_probability(scale_tensor(a, 0.5), rho) - 0.5 * pa) < 1e-15


@pytest.mark.parametrize("layout", ["band", "kraus"])
@pytest.mark.parametrize("c", [1j, np.complex128(2.0), math.nan, -math.inf],
                         ids=["imaginary", "complex_dtype", "nan", "inf"])
def test_scale_tensor_takes_only_a_real_finite_factor(layout, c, rng):
    # c E keeps Hermiticity only for real c; the Kraus layout refuses the
    # rest through its weight check, the band layout in scale_tensor
    t = (identity_tensor(DIM) if layout == "band"
         else tensor_from_kraus(random_kraus(rng, DIM, count=2, scale=0.3)))
    assert isinstance(t, tensors._BandTensor) == (layout == "band")
    with pytest.raises(ValueError):
        scale_tensor(t, c)


def test_hermiticity_gate():
    d = DIM.size
    arr = np.zeros((d, d, d, d), dtype=complex)
    arr[0, 1, 0, 0] = 1.0  # no conjugate partner
    with pytest.raises(ValueError, match="not Hermitian"):
        oracles.tensor_of_elements(DIM, arr)


def test_tensors_are_single_mode():
    assert [f.name for f in dataclasses.fields(ProcessTensor)] == ["dim", "ops", "weights"]
    assert ProcessTensor.input_modes == ProcessTensor.output_modes == 1
    with pytest.raises(TypeError):
        identity_tensor(DIM, 2)
    dim = FockDim(2)
    d = dim.size
    with pytest.raises(ValueError):
        oracles.tensor_of_elements(dim, np.zeros((d,) * 8, dtype=complex))
    two_mode = KrausSet(dim, [np.eye(d * d)], input_modes=2, output_modes=2)
    with pytest.raises(ValueError):
        tensor_from_kraus(two_mode)
    vac2 = DensityOperator(dim, np.kron(fock_state(0, dim).matrix,
                                        fock_state(0, dim).matrix), 2)
    with pytest.raises(ValueError):
        apply_tensor(identity_tensor(dim), vac2)


def test_process_tensor_copies_arrays_the_caller_can_write():
    # a caller's array is converted, never kept: writing to it later, or
    # through a read-only view of it, changes no tensor
    d = DIM.size
    arr = np.zeros((d,) * 4, dtype=complex)
    arr[0, 0, 0, 0] = 1.0
    t = oracles.tensor_of_elements(DIM, arr)
    view = arr.view()
    view.flags.writeable = False
    t_view = oracles.tensor_of_elements(DIM, view)
    arr[0, 0, 0, 0] = 5.0
    assert oracles.entries(t)[0, 0, 0, 0] == 1.0
    assert oracles.entries(t_view)[0, 0, 0, 0] == 1.0
    for tensor in (t, t_view):
        assert not np.shares_memory(tensor.ops, arr)
        for stored in (tensor.ops, tensor.weights):
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 2.0


def test_process_tensor_refuses_fields_of_the_wrong_shape():
    dim = FockDim(2)
    for ops, weights in ((np.ones((2, 5, 5)), np.ones(3)),  # operators not D x D
                         (np.ones((2, 3, 3)), np.ones(3)),  # not one weight per operator
                         (np.ones((0, 3, 3)), np.ones(0)),  # no operator
                         (np.ones((3, 3)), np.ones(1))):  # one operator, not a stack
        with pytest.raises(ValueError, match="r >= 1"):
            ProcessTensor(dim, ops, weights)


@pytest.mark.parametrize("weights", [[1.0 + 1.0j], [1.0 + 0.0j], [np.nan], [-np.inf]])
def test_process_tensor_refuses_weights_that_are_not_real_and_finite(weights):
    # refused outright: a complex weight is not cast with a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="real finite"):
            ProcessTensor(FockDim(2), np.ones((1, 3, 3)), np.asarray(weights))


def test_process_tensor_leaves_the_callers_arrays_writable():
    ops, weights = np.ones((1, 3, 3), dtype=complex), np.ones(1)
    t = ProcessTensor(FockDim(2), ops, weights)
    assert ops.flags.writeable and weights.flags.writeable
    assert not np.shares_memory(t.ops, ops) and not np.shares_memory(t.weights, weights)
    assert not t.ops.flags.writeable and not t.weights.flags.writeable


def test_process_tensor_is_not_changed_through_the_callers_base_array():
    base = np.ones((1, 3, 3), dtype=complex)
    t = ProcessTensor(FockDim(2), base[:], np.ones(1))
    base[0, 0, 0] = 5.0
    assert t.ops[0, 0, 0] == 1.0


def test_gates_fail_closed_on_non_finite_entries():
    # a NaN defect compares false against any tolerance; the gates refuse it
    dim = FockDim(2)
    kraus = tensor_from_kraus(KrausSet(dim, [np.full((3, 3), np.nan)]))
    band = tensor_from_kraus(KrausSet(dim, [np.diag([np.nan, 1.0, 1.0])]))
    assert not isinstance(kraus, tensors._BandTensor)
    assert isinstance(band, tensors._BandTensor)
    for t in (kraus, band):
        with pytest.raises(PhysicalityError, match="nan"):
            require_cp(t)
        with pytest.raises(PhysicalityError, match="nan"):
            require_tni(t)


def test_tensor_from_kraus_keeps_one_copy(rng):
    dim = FockDim(29)
    kraus = random_kraus(rng, dim, count=4)
    tracemalloc.start()
    try:
        t = tensor_from_kraus(kraus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 16 * dim.size ** 4


def _traced_peak(build):
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_fresh_tensors_are_adopted_without_a_copy(rng):
    # each build stores what it computes, read-only, with no second copy;
    # scaling a Kraus tensor shares its operators
    dim = FockDim(29)
    t = tensor_from_kraus(random_kraus(rng, dim))
    band = identity_tensor(dim)
    for build in (lambda: identity_tensor(dim), lambda: scale_tensor(band, 0.5),
                  lambda: combine_heralding(band, band), lambda: scale_tensor(t, 0.5),
                  lambda: combine_heralding(t, t), lambda: compose_serial(t, t)):
        out, peak = _traced_peak(build)
        stored = (out.packed,) if isinstance(out, tensors._BandTensor) else (out.ops, out.weights)
        assert peak < 1.5 * sum(a.nbytes for a in stored)
        assert all(not a.flags.writeable and a.flags.c_contiguous for a in stored)
    assert scale_tensor(t, 0.5).ops is t.ops


def test_band_defect_matches_dense_eigh_on_indefinite_maps(rng):
    # random Hermitian Choi matrices obeying l - n = k - m, mostly indefinite
    dim = FockDim(5)
    d = dim.size
    l, n = np.divmod(np.arange(d * d), d)  # Choi row (l, n)
    keep = (l - n)[:, None] == (l - n)[None, :]
    for _ in range(6):
        c = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        c = np.where(keep, c + c.conj().T, 0.0)
        t = oracles.tensor_of_elements(dim, c.reshape(d, d, d, d).transpose(0, 2, 1, 3))
        assert phase_invariance_defect(t) == 0.0
        ref = min(np.linalg.eigvalsh(c).min(), 0.0)
        assert ref < 0.0
        assert abs(cp_defect(t) - ref) < 1e-12


def _seeded_kraus(n_max, count, banded, seed):
    """Random single-mode Kraus set of order-one norm.

    A banded set gives each operator one diagonal l - n = s, so the map is
    exactly phase invariant and cp_defect takes its per-band path.
    """
    rng = np.random.default_rng(seed)
    dim = FockDim(n_max)
    d = dim.size
    ops = []
    for _ in range(count):
        op = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / d
        if banded:
            shift = rng.integers(1 - d, d)
            op = np.where(np.subtract.outer(np.arange(d), np.arange(d)) == shift, op, 0)
        ops.append(op)
    return KrausSet(dim, ops)


def _close(got, ref, rel=1e-12):
    return np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


kraus_sets = st.builds(_seeded_kraus, st.integers(1, 11), st.integers(1, 4),
                       st.booleans(), st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(k=kraus_sets, seed=st.integers(0, 2 ** 32 - 1))
def test_tensor_rewrites_match_kraus_property(k, seed):
    t = tensor_from_kraus(k)
    psi = random_pure_state(np.random.default_rng(seed), k.dim.size)
    rho = DensityOperator(k.dim, np.outer(psi, psi.conj()))
    assert _close(apply_tensor(t, rho).matrix, apply_kraus(k, rho).matrix)
    top = np.linalg.eigvalsh(sum(op.conj().T @ op for op in k.operators)).max()
    assert abs(tni_defect(t) + 1.0 - top) <= 1e-12 * top
    assert cp_defect(t) >= -1e-12


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(n_max=st.integers(1, 11), counts=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       banded=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_compose_serial_matches_operator_products_property(n_max, counts, banded, seed):
    first = _seeded_kraus(n_max, counts[0], banded, seed)
    second = _seeded_kraus(n_max, counts[1], banded, seed + 1)
    got = compose_serial(tensor_from_kraus(second), tensor_from_kraus(first))
    prods = [b @ a for b in second.operators for a in first.operators]
    ref = tensor_from_kraus(KrausSet(first.dim, prods))
    assert _close(oracles.entries(got), oracles.entries(ref))


@functools.lru_cache(maxsize=None)
def _shipped_model(name):
    return cli.build_model(cli.load_config(str(CONFIG_DIR / f"{name}.json")))


def _diagonal_reference(t):
    d, arr = t.dim.size, oracles.entries(t)
    ref = np.empty((d, d), dtype=arr.dtype)
    for k in range(d):
        for m in range(d):
            ref[k, m] = arr[k, k, m, m]
    return ref


herald_tensors = st.one_of(
    kraus_sets.map(tensor_from_kraus),
    st.sampled_from(sorted(p.stem for p in CONFIG_DIR.glob("*.json"))).map(_shipped_model))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(t=herald_tensors, seed=st.integers(0, 2 ** 32 - 1))
def test_herald_quantities_match_the_applied_map_property(t, seed):
    rng = np.random.default_rng(seed)
    d = t.dim.size
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mixed = g @ g.conj().T
    rho = DensityOperator(t.dim, (mixed + mixed.conj().T) / (2 * np.trace(mixed).real))
    p = success_probability(t, rho)
    ref = apply_tensor(t, rho).trace
    assert abs(p - ref) <= 1e-14 * abs(ref)
    assert success_probability(scale_tensor(t, 0.0), rho) == 0.0
    diag = tensor_diagonal(t)
    ref = _diagonal_reference(t)
    assert diag.dtype == ref.dtype
    assert np.array_equal(diag, ref)


def test_success_probability_builds_no_state_and_applies_nothing(monkeypatch, rng):
    t = tensor_from_kraus(random_kraus(rng, DIM))
    rho = coherent_state(0.3 - 0.2j, DIM)
    ref = apply_tensor(t, rho).trace

    def refuse(*args, **kwargs):
        raise AssertionError("success_probability applied the map")

    monkeypatch.setattr(tensors, "apply_tensor", refuse)
    monkeypatch.setattr(tensors, "DensityOperator", refuse)
    monkeypatch.setattr(tensors, "_block_product", refuse)
    assert abs(success_probability(t, rho) - ref) <= 1e-14 * ref
    with pytest.raises(ValueError):
        success_probability(t, coherent_state(0.3, FockDim(4)))


def _mixed_state(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim.size,) * 2) + 1j * rng.standard_normal((dim.size,) * 2)
    mixed = g @ g.conj().T
    return DensityOperator(dim, (mixed + mixed.conj().T) / (2 * np.trace(mixed).real))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(t=herald_tensors, count=st.integers(1, 4), banded=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_contractions_match_dense_products_property(t, count, banded, seed):
    # apply_tensor and compose_serial contract by coherence block exactly
    # when t is phase invariant; either way they match one dense product
    rho = _mixed_state(t.dim, seed)
    assert _close(apply_tensor(t, rho).matrix, oracles.apply_tensor_reference(t, rho),
                  rel=1e-13)
    other = tensor_from_kraus(_seeded_kraus(t.dim.n_max, count, banded, seed))
    for second, first in ((t, other), (other, t), (t, t)):
        assert _close(oracles.entries(compose_serial(second, first)),
                      oracles.compose_serial_reference(second, first), rel=1e-13)


@pytest.mark.parametrize("banded", [True, False])
def test_each_phase_check_scans_a_kraus_tensor_once(monkeypatch, banded):
    # the layout chooses every path, so products, kernels and the CP gate
    # never scan a Kraus tensor; each defect or gate call scans it once
    k = tensor_from_kraus(_seeded_kraus(4, 3, banded, 11))
    # a tensor built from an array takes the Kraus layout, phase invariant or not
    t = oracles.tensor_of_elements(k.dim, np.array(oracles.entries(k)))
    assert not isinstance(t, tensors._BandTensor)
    scanned = []
    scan = tensors._off_band_max

    def spy(rows):
        scanned.append(rows)
        return scan(rows)

    monkeypatch.setattr(tensors, "_off_band_max", spy)
    grid = QuadratureGrid(-3.0, 3.0, -3.0, 3.0, 25, 25)
    rho = _mixed_state(t.dim, 5)
    fk = kernel_from_tensor(t, grid)
    cp_defect(t)
    fk.dense()
    apply_kernel(fk, wigner_of(rho, grid))
    input_marginal(fk)
    output_marginal(fk)
    apply_tensor(t, rho)
    compose_serial(t, t)
    assert scanned == []
    for calls in (1, 2):
        assert (phase_invariance_defect(t) == 0.0) == banded
        assert len(scanned) == calls
    if banded:
        radial_form(t, np.linspace(0.0, 2.0, 5), np.linspace(0.0, 2.0, 5), np.zeros(2))
    else:
        with pytest.raises(ValueError, match="not phase invariant"):
            radial_form(t)
    assert len(scanned) == 3


# band storage of exactly phase-invariant maps

def _band_builders():
    dim = FockDim(6)
    band = tensor_from_kraus(_seeded_kraus(6, 3, True, 4))
    return {
        "kraus": lambda: band,
        "identity": lambda: identity_tensor(dim),
        "shipped": lambda: _shipped_model("amplifier_experimental"),
        "combined": lambda: combine_heralding(band, identity_tensor(dim)),
        "scaled": lambda: scale_tensor(band, 0.5),
        "composed": lambda: compose_serial(band, identity_tensor(dim)),
    }


@pytest.mark.parametrize("case", sorted(_band_builders()))
def test_band_tensors_are_never_scanned(monkeypatch, case):
    # a band tensor holds no off-band entry, so its phase defect is 0 with no scan
    t = _band_builders()[case]()
    assert isinstance(t, tensors._BandTensor)
    scanned = []
    monkeypatch.setattr(tensors, "_off_band_max", scanned.append)
    grid = QuadratureGrid(-3.0, 3.0, -3.0, 3.0, 25, 25)
    rho = _mixed_state(t.dim, 5)
    fk = kernel_from_tensor(t, grid)
    assert phase_invariance_defect(t) == 0.0
    cp_defect(t)
    radial_form(t, np.linspace(0.0, 2.0, 5), np.linspace(0.0, 2.0, 5), np.zeros(2))
    fk.dense()
    apply_kernel(fk, wigner_of(rho, grid))
    input_marginal(fk)
    output_marginal(fk)
    apply_tensor(t, rho)
    compose_serial(t, t)
    assert scanned == []


def test_band_tensor_keeps_only_its_packed_blocks():
    t = identity_tensor(FockDim(4))
    assert set(vars(t)) == {"dim", "packed"}
    # M_q for q = 0 .. D - 1 alone: M_{-q} = conj(M_q) is not stored
    assert t.packed.nbytes == 16 * sum((5 - q) ** 2 for q in range(5))


def _leading_bands(n_max, seed):
    """Random Hermitian blocks B + B^dag, one per shift s of a D = n_max + 1
    space, each a k x k leading corner of its shift block with 1 <= k <= D - |s|;
    the shift-0 block always leaves its last row and column out."""
    rng = np.random.default_rng(seed)
    d = n_max + 1
    bands = []
    for s in range(1 - d, d):
        k = int(rng.integers(1, d if s == 0 else d - abs(s) + 1))
        b = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        bands.append((s, b + b.conj().T))
    return FockDim(n_max), bands


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n_max=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_band_writer_fills_leading_corners_property(n_max, seed):
    # each block fills the leading rows and columns of its shift block, k < D - |s| included
    dim, bands = _leading_bands(n_max, seed)
    t = tensors._band_tensor(dim, bands)
    assert isinstance(t, tensors._BandTensor)
    assert np.array_equal(oracles.entries(t), oracles.band_tensor_reference(dim, bands))


def test_shift_index_of_a_corner_is_the_corner_of_the_whole_index():
    for d in range(1, 8):
        for s in range(1 - d, d):
            whole = tensors._shift_index(d, s)
            for k in range(1, d - abs(s) + 1):
                assert np.array_equal(tensors._shift_index(d, s, k), whole[:k, :k])


def test_shift_index_lower_triangles_partition_the_packed_array():
    # each stored entry is the lower entry (i >= j) of exactly one Choi block,
    # and entry (j, i) reads the same stored entry
    for d in range(1, 13):
        lows = []
        for s in range(1 - d, d):
            index = tensors._shift_index(d, s)
            assert np.array_equal(index, index.T)
            lows.append(index[np.tri(len(index), dtype=bool)])
        assert np.array_equal(np.sort(np.concatenate(lows)),
                              np.arange(tensors._block_offsets(d)[-1]))


def _band_producers(n_max, seed):
    """(name, t) for each way a band tensor is built, on random Hermitian blocks,
    random one-diagonal operators and real weights of both signs."""
    rng = np.random.default_rng(seed)
    dim, bands = _leading_bands(n_max, seed)
    d = dim.size
    shifts = rng.integers(1 - d, d, size=3)
    ops = [np.diag(rng.normal(size=d - abs(s)) + 1j * rng.normal(size=d - abs(s)), -s)
           for s in shifts]
    written = tensors._band_tensor(dim, bands)
    from_kraus = tensor_from_kraus(KrausSet(dim, ops))
    yield "writer", written
    yield "tensor_from_kraus", from_kraus
    yield "require_phase_invariant", require_phase_invariant(
        ProcessTensor(dim, np.stack(ops), rng.normal(size=3)))
    yield "compose_serial", compose_serial(from_kraus, written)
    yield "combine_heralding", combine_heralding(written, from_kraus)
    yield "scale_tensor", scale_tensor(written, float(rng.normal()))
    yield "amplifier_model", models.amplifier_model(models.AmplifierConfig(
        dim=dim, gain=2.0, mu=0.11, delta=1.089, eta_m=0.9, detector="apd"))
    yield "addition_model", models.addition_model(models.AdditionConfig(
        dim=dim, chi=0.105, gamma=0.425, mu=0.11, detector="apd"))


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(n_max=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_band_producers_store_orders_q_ge_0_and_stay_hermitian_property(n_max, seed):
    # E[k, l, m, n] = conj(E[l, k, n, m]) bit for bit, M_0 real included
    for name, t in _band_producers(n_max, seed):
        d = t.dim.size
        assert isinstance(t, tensors._BandTensor), name
        assert t.packed.size == sum((d - q) ** 2 for q in range(d)), name
        e = oracles.entries(t)
        assert np.array_equal(e.transpose(1, 0, 3, 2), e.conj()), name


def test_caller_array_with_an_off_band_corner_takes_kraus_operators():
    dim = FockDim(5)
    arr = np.zeros((dim.size,) * 4)
    arr[1, 0, 2, 1] = arr[0, 1, 1, 2] = 0.5  # l - k = n - m = +-1
    arr[2, 0, 0, 0] = arr[0, 2, 0, 0] = 0.25  # l - k = +-2 but n - m = 0
    kraus = oracles.tensor_of_elements(dim, arr)
    assert not isinstance(kraus, tensors._BandTensor)
    assert not np.any(kraus.ops[:, 3:])  # the operators reach output rows l < 3 only
    # the Choi eigh moves entries by a few eps of the largest (0.5)
    assert _close(oracles.entries(kraus), arr, rel=1e-15)
    assert abs(phase_invariance_defect(kraus) - 0.25) <= 1e-15


def _kraus_builds(mp):
    """Route every band producer through its dense reference array and
    oracles.tensor_of_elements, so that builds made inside the context have
    the layout and code path of a Kraus tensor."""
    from cvmaps import elements, models

    def band(dim, bands):
        return oracles.tensor_of_elements(dim, oracles.band_tensor_reference(dim, bands))

    def kraus(k):
        return oracles.tensor_of_elements(k.dim, oracles.tensor_from_kraus_reference(k))

    mp.setattr(tensors, "_band_tensor", band)
    mp.setattr(models, "_band_tensor", band)
    for module in (tensors, models, elements):
        mp.setattr(module, "tensor_from_kraus", kraus)


def _single_diagonal_kraus(n_max, count, real, seed):
    k = _seeded_kraus(n_max, count, True, seed)
    return KrausSet(k.dim, [op.real for op in k.operators]) if real else k


def _bit_exact(k):
    """Whether each entry of k's tensor is one product of real numbers, which
    the dense build and the band fill round alike; BLAS fuses the
    multiply-adds of complex products and of sums over operators, so there
    the two agree to rounding only."""
    if any(np.iscomplexobj(op) and np.any(op.imag) for op in k.operators):
        return False
    shifts = [np.unique(np.subtract(*np.nonzero(op))) for op in k.operators]
    shifts = [int(s[0]) for s in shifts if s.size]
    return len(shifts) == len(set(shifts))


def _check_band_against_kraus(build):
    """A band build and the build of the same map from the dense reference
    arrays, in the Kraus layout, agree entry for entry to the rounding of
    the Choi eigh (1e-14 relative), and so do every reader and product."""
    band = build()
    with pytest.MonkeyPatch.context() as mp:
        _kraus_builds(mp)
        kraus = build()
    assert _close(oracles.entries(band), oracles.entries(kraus), rel=1e-14)
    _check_layouts_agree(band, kraus)


def _check_layouts_agree(band, kraus):
    """Every reader and product of a band tensor agrees with the Kraus path
    of a Kraus tensor of the same map to 1e-14 relative. Compositions are
    compared through their action on a mixed state: a Kraus composition has
    rank r^2, too many operators to list its D^4 entries at n_max 48."""
    assert isinstance(band, tensors._BandTensor)
    assert not isinstance(kraus, tensors._BandTensor)
    rho = _mixed_state(band.dim, 3)
    assert _close(apply_tensor(band, rho).matrix, apply_tensor(kraus, rho).matrix, rel=1e-14)
    assert _close(apply_tensor(compose_serial(band, band), rho).matrix,
                  apply_tensor(compose_serial(kraus, kraus), rho).matrix, rel=1e-14)
    axis = np.linspace(0.0, 3.0, 7)
    assert _close(radial_form(band, axis, axis, np.linspace(0.0, 3.0, 4)).values,
                  radial_form(kraus, axis, axis, np.linspace(0.0, 3.0, 4)).values, rel=1e-14)
    assert _close(tensor_diagonal(band), tensor_diagonal(kraus), rel=1e-14)
    for reader in (cp_defect, tni_defect):
        assert abs(reader(band) - reader(kraus)) <= 1e-14 * max(abs(reader(kraus)), 1.0)
    p, ref = success_probability(band, rho), success_probability(kraus, rho)
    assert abs(p - ref) <= 1e-14 * abs(ref)


single_diagonal_kraus = st.builds(_single_diagonal_kraus, st.integers(1, 11),
                                  st.integers(1, 4), st.booleans(),
                                  st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=st.one_of(
    single_diagonal_kraus.map(lambda k: (lambda: tensors.tensor_from_kraus(k), k)),
    st.sampled_from(sorted(p.stem for p in CONFIG_DIR.glob("*.json"))).map(
        lambda name: (lambda: cli.build_model(cli.load_config(str(CONFIG_DIR / f"{name}.json"))),
                      None))))
def test_band_storage_matches_the_dense_build_property(case):
    build, kraus_set = case
    _check_band_against_kraus(build)
    # the band fill is the dense fill, bit for bit where both round alike
    if kraus_set is not None and _bit_exact(kraus_set):
        assert np.array_equal(oracles.entries(build()),
                              oracles.tensor_from_kraus_reference(kraus_set))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(t=st.one_of(
    single_diagonal_kraus.map(tensor_from_kraus),
    st.sampled_from(sorted(p.stem for p in CONFIG_DIR.glob("*.json"))).map(_shipped_model)))
def test_kraus_twin_takes_the_kraus_path_to_the_same_map_property(t):
    # the layout, not the entries, chooses the path: a band tensor's array
    # handed to oracles.tensor_of_elements takes the Kraus layout, and agrees
    # with it
    _check_layouts_agree(t, oracles.tensor_of_elements(t.dim, np.array(oracles.entries(t))))


@pytest.mark.parametrize("n_max", [16, 32, 48])
@pytest.mark.parametrize("model", ["amplifier", "addition"])
def test_band_storage_matches_the_dense_build_on_sweep_rungs(model, n_max):
    from cvmaps import models

    # imported here: a module imported at collection adds its constants to
    # what hypothesis draws from in every later property of the suite
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    spec = next(m for m in workloads.sweep_plan(3)["models"] if m["model"] == model)
    params = {k: v for k, v in spec.items() if k != "model"}
    config, build = ((models.AmplifierConfig, models.amplifier_model) if model == "amplifier"
                     else (models.AdditionConfig, models.addition_model))
    _check_band_against_kraus(lambda: build(config(dim=FockDim(n_max), **params)))


@pytest.mark.parametrize("element", ["attenuation(0.64)@40", "attenuation(0.3)@63",
                                     "parametric_amplification(1.2)@63"])
def test_shipped_kraus_blocks_match_the_dense_build(element):
    from cvmaps import elements

    name, n_max = element.split("@")
    func, arg = name.rstrip(")").split("(")
    kraus = getattr(elements, func)(float(arg), FockDim(int(n_max))).kraus
    band = tensor_from_kraus(kraus)
    assert isinstance(band, tensors._BandTensor)
    assert np.array_equal(oracles.entries(band), oracles.tensor_from_kraus_reference(kraus))


def test_kraus_sets_off_one_diagonal_keep_their_operators(rng):
    k = random_kraus(rng, DIM)
    t = tensor_from_kraus(k)
    assert not isinstance(t, tensors._BandTensor)
    assert np.array_equal(t.ops, np.stack(k.operators)) and np.array_equal(t.weights, [1, 1, 1])
    assert _close(oracles.entries(t), oracles.tensor_from_kraus_reference(k), rel=1e-15)


def test_tensor_from_kraus_at_n_max_63_builds_no_quartic_array():
    from cvmaps.elements import attenuation

    kraus = attenuation(0.3, FockDim(63)).kraus
    _, peak = _traced_peak(lambda: tensor_from_kraus(kraus))
    assert peak < 16 * 64 ** 4 / 8


@pytest.mark.parametrize("element", ["displacement", "squeezing"])
def test_gaussian_unitaries_at_n_max_63_build_no_quartic_array(element):
    # one Kraus operator each: 65 KB of operators, not a 268 MB D^4 array
    from cvmaps import elements

    dim = FockDim(63)
    rho = coherent_state(0.4 - 0.3j, dim)
    build = {"displacement": lambda: elements.displacement(0.5 + 0.2j, dim),
             "squeezing": lambda: elements.squeezing(0.3, dim)}[element]

    def run():
        t = build().tensor()
        require_cp(t)
        tensor_diagonal(t)
        return apply_tensor(t, rho)

    out, peak = _traced_peak(run)
    assert peak < 16 * 2 ** 20
    assert abs(out.trace - 1.0) < 1e-6


# the Kraus layout against one dense array and what dense products give

def _hermitian_array(n_max, kind, seed):
    """A random (l, k, n, m) array whose Choi matrix is Hermitian: indefinite,
    positive semidefinite, or indefinite and exactly phase invariant."""
    rng = np.random.default_rng(seed)
    d = n_max + 1
    g = rng.standard_normal((d * d,) * 2) + 1j * rng.standard_normal((d * d,) * 2)
    c = g @ g.conj().T / d if kind == "psd" else g + g.conj().T
    if kind == "invariant":
        l, n = np.divmod(np.arange(d * d), d)  # Choi row (l, n)
        c = np.where((l - n)[:, None] == (l - n)[None, :], c, 0.0)
    return c.reshape(d, d, d, d).transpose(0, 2, 1, 3)


def _from_kraus_set(n_max, count, seed):
    k = _seeded_kraus(n_max, count, False, seed)
    return tensor_from_kraus(k), oracles.tensor_from_kraus_reference(k)


def _from_array(n_max, kind, seed):
    arr = _hermitian_array(n_max, kind, seed)
    return oracles.tensor_of_elements(FockDim(n_max), arr), arr


kraus_layout_maps = st.one_of(
    st.builds(_from_kraus_set, st.integers(1, 7), st.integers(1, 4), st.integers(0, 2 ** 32 - 1)),
    st.builds(_from_array, st.integers(1, 6), st.sampled_from(["indefinite", "psd", "invariant"]),
              st.integers(0, 2 ** 32 - 1)))


def _dense(arr):
    side = len(arr) ** 2
    return arr.reshape(side, side)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=kraus_layout_maps, c=st.floats(-3.0, -0.1), seed=st.integers(0, 2 ** 32 - 1))
def test_kraus_layout_matches_the_dense_array_property(case, c, seed):
    t, arr = case
    assert not isinstance(t, tensors._BandTensor)
    dim, d = t.dim, t.dim.size
    scale = np.abs(arr).max()
    # the one rounding step is the Choi eigh of a caller's array
    assert _close(oracles.entries(t), arr)
    rho = _mixed_state(dim, seed)
    out = (_dense(arr) @ rho.matrix.ravel()).reshape(d, d)
    assert _close(apply_tensor(t, rho).matrix, (out + out.conj().T) / 2)
    assert abs(success_probability(t, rho) - np.trace(out).real) <= 1e-12 * scale
    assert _close(tensor_diagonal(t), np.einsum("kkmm->km", arr))
    assert abs(cp_defect(t) - min(np.linalg.eigvalsh(oracles.choi_reference(t)).min(), 0.0)) \
        <= 1e-12 * scale
    off = oracles.off_band_max_reference(arr)
    assert abs(phase_invariance_defect(t) - off) <= 1e-12 * scale
    assert (phase_invariance_defect(t) == 0.0) == (off == 0.0)
    assert _close(oracles.entries(scale_tensor(t, c)), c * arr)
    band_set = _seeded_kraus(dim.n_max, 2, True, seed)
    band = tensor_from_kraus(band_set)
    assert isinstance(band, tensors._BandTensor)
    band_arr = oracles.tensor_from_kraus_reference(band_set)
    assert _close(oracles.entries(combine_heralding(t, band)), arr + band_arr)
    assert _close(oracles.entries(combine_heralding(t, t)), 2 * arr)
    kraus, banded = (t, arr), (band, band_arr)
    for (second, second_arr), (first, first_arr) in ((kraus, kraus), (kraus, banded),
                                                     (banded, kraus)):
        assert _close(oracles.entries(compose_serial(second, first)),
                      (_dense(second_arr) @ _dense(first_arr)).reshape((d,) * 4))
