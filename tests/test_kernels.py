import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cvmaps import cli, verify
from cvmaps.elements import (
    attenuation,
    attenuation_kraus,
    displacement,
    identity,
    parametric_amplification,
    phase_rotation,
    squeezing,
)
from cvmaps.fock import DensityOperator, FockDim, coherent_state, thermal_state
from cvmaps.kernels import (
    FactoredKernel,
    GaussianKernel,
    GridKernel,
    RadialKernel,
    SumKernel,
    apply_kernel,
    band_concentration,
    compose_kernels,
    input_marginal,
    kernel_from_kraus,
    kernel_from_tensor,
    kernel_norm,
    negativity,
    output_marginal,
    radial_form,
    sample_kernel,
    scale_kernel,
)
from cvmaps.models import ideal_photon_addition
from cvmaps.tensors import (KrausSet, ProcessTensor, apply_kraus, apply_tensor,
                            combine_heralding, compose_serial, phase_invariance_defect,
                            require_phase_invariant, scale_tensor, tensor_from_kraus)
from cvmaps.wigner import QuadratureGrid, WignerField, weyl_symbol, wigner_of


def delta(x, d=(0.0, 0.0)):
    return GaussianKernel(np.asarray(x, float), np.zeros((2, 2)), np.asarray(d, float))


def test_affine_delta_validation():
    # a delta (Y = 0) keeps volume and carries a point r to X r + d
    with pytest.raises(ValueError):
        delta(2.0 * np.eye(2))
    with pytest.raises(ValueError):
        delta(np.eye(2), np.zeros(3))
    d = delta([[0.0, -1.0], [1.0, 0.0]], [0.5, 0.0])
    assert d.is_delta and d.modes == 1 and d.weight == 1.0
    assert not d.X.flags.writeable and not d.d.flags.writeable
    for point, image in (([1.0, 2.0], [-2.0 + 0.5, 1.0]), ([0.0, 0.0], [0.5, 0.0])):
        mapped = compose_kernels(d, delta(np.eye(2), point))
        assert mapped.is_delta and np.allclose(mapped.d, image)


def test_gaussian_kernel_validation():
    eye, zero = np.eye(2), np.zeros((2, 2))
    # Y is symmetric and 0 or positive definite
    with pytest.raises(ValueError):
        GaussianKernel(eye, zero, np.zeros(3))
    with pytest.raises(ValueError):
        GaussianKernel(np.eye(3), np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        GaussianKernel(eye, np.diag([0.5, 0.0]), np.zeros(2))
    with pytest.raises(ValueError):
        GaussianKernel(eye, -eye, np.zeros(2))
    with pytest.raises(ValueError):
        GaussianKernel(eye, np.array([[0.5, 0.1], [0.0, 0.5]]), np.zeros(2))
    # a noisy kernel may shrink volume, down to complete loss
    assert not GaussianKernel(zero, 0.5 * eye, np.zeros(2)).is_delta
    # the normalized density peaks at 1/(2 pi sqrt(det Y)) where r' = X r + d
    k = GaussianKernel(0.8 * eye, 0.18 * eye, np.zeros(2))
    assert abs(k.evaluate(0.8, 0.0, 1.0, 0.0) - 1.0 / (math.pi * 0.36)) < 1e-14


def test_grid_kernel_validation():
    grid = QuadratureGrid(-1.0, 1.0, -1.0, 1.0, 3, 3)
    with pytest.raises(ValueError):
        GridKernel(grid, grid, np.zeros((3, 3, 3, 4)))
    # transfer functions are real: a complex array is refused however small
    # its imaginary part, and none at all
    for imag in (1e-5, 1e-14, 0.0):
        with pytest.raises(ValueError, match="complex"):
            GridKernel(grid, grid, np.full((3, 3, 3, 3), complex(1.0, imag)))
    assert GridKernel(grid, grid, np.ones((3, 3, 3, 3), dtype=int)).values.dtype == float
    with pytest.raises(ValueError):
        SumKernel(())


def test_sample_kernel_paths():
    grid = QuadratureGrid(-2.0, 2.0, -2.0, 2.0, 17, 17)
    gauss = attenuation(0.5, FockDim(3)).kernel
    sampled = sample_kernel(gauss, grid)
    ref = gauss.evaluate(grid.xs[3], grid.ps[5], grid.xs[7], grid.ps[1])
    assert abs(sampled.values[3, 5, 7, 1] - ref) < 1e-16
    assert sample_kernel(sampled, grid) is sampled
    other = QuadratureGrid(-2.0, 2.0, -2.0, 2.0, 9, 9)
    with pytest.raises(ValueError):
        sample_kernel(sampled, other)
    with pytest.raises(TypeError):
        sample_kernel(phase_rotation(0.3, FockDim(3)).kernel, grid)
    both = SumKernel(((0.25, gauss), (0.5, gauss)))
    s2 = sample_kernel(both, grid)
    assert np.max(np.abs(s2.values - 0.75 * sampled.values)) < 1e-15


def test_kernel_from_tensor_matches_closed_form():
    # truncated tensor representation converges onto the Gaussian kernel
    eta = 0.64
    dim = FockDim(40)
    t = tensor_from_kraus(KrausSet(dim, attenuation_kraus(eta, dim)))
    grid = QuadratureGrid(-2.0, 2.0, -2.0, 2.0, 17, 17)
    f = kernel_from_tensor(t, grid, grid)
    ref = oracles.attenuation_kernel_reference(
        eta,
        grid.xs[:, None, None, None], grid.ps[None, :, None, None],
        grid.xs[None, None, :, None], grid.ps[None, None, None, :])
    assert np.max(np.abs(f.values - ref)) < 5e-10


def test_delta_composition_is_matrix_product():
    a = phase_rotation(0.4, FockDim(3)).kernel
    b = phase_rotation(0.9, FockDim(3)).kernel
    ab = compose_kernels(b, a)
    ref = phase_rotation(1.3, FockDim(3)).kernel
    assert ab.is_delta
    assert np.max(np.abs(ab.X - ref.X)) < 1e-15
    assert np.max(np.abs(ab.d)) == 0.0
    d1 = displacement(0.2 + 0.1j, FockDim(3)).kernel
    d2 = displacement(-0.5j, FockDim(3)).kernel
    both = compose_kernels(d2, d1)
    ref2 = displacement(0.2 - 0.4j, FockDim(3)).kernel
    assert np.max(np.abs(both.d - ref2.d)) < 1e-15


def test_gaussian_composition_closed_form():
    dim = FockDim(3)
    left = compose_kernels(attenuation(0.6, dim).kernel,
                           attenuation(0.5, dim).kernel)
    ref = attenuation(0.3, dim).kernel
    for field in ("X", "Y", "d", "weight"):
        assert np.max(np.abs(getattr(left, field) - getattr(ref, field))) < 1e-14, field


def coherent_field(alpha, grid):
    return WignerField(grid, oracles.coherent_wigner(
        alpha, grid.xs[:, None], grid.ps[None, :]))


def test_gaussian_after_delta_semantics():
    # att(eta) following a displacement: coherent alpha lands on
    # sqrt(eta) (alpha + shift)
    dim = FockDim(3)
    grid = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 97, 97)
    eta = 0.49
    shift = 0.4 - 0.3j
    comp = compose_kernels(attenuation(eta, dim).kernel,
                           displacement(shift, dim).kernel)
    assert isinstance(comp, GaussianKernel)
    alpha = 0.5 + 0.2j
    out = apply_kernel(comp, coherent_field(alpha, grid))
    ref = coherent_field(math.sqrt(eta) * (alpha + shift), grid)
    assert np.max(np.abs(out.values - ref.values)) < 1e-10


def test_delta_after_gaussian_semantics():
    dim = FockDim(3)
    grid = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 97, 97)
    eta = 0.49
    shift = 0.3 + 0.6j
    comp = compose_kernels(displacement(shift, dim).kernel,
                           attenuation(eta, dim).kernel)
    assert isinstance(comp, GaussianKernel)
    alpha = 0.4 - 0.5j
    out = apply_kernel(comp, coherent_field(alpha, grid))
    ref = coherent_field(math.sqrt(eta) * alpha + shift, grid)
    assert np.max(np.abs(out.values - ref.values)) < 1e-10


@pytest.mark.parametrize("second, first", [
    ("rotation", "loss"), ("loss", "rotation"), ("rotation", "gain")])
def test_mixed_compositions_match_tensor_path(second, first):
    # a rotation mixes x and p; its compositions stay closed-form and agree
    # with the composed tensors' sampled kernels
    dim = FockDim(40)
    grid = QuadratureGrid(-2.0, 2.0, -2.0, 2.0, 17, 17)
    catalog = {"rotation": phase_rotation(0.7, dim), "loss": attenuation(0.5, dim),
               "gain": parametric_amplification(1.5, dim)}
    b, a = catalog[second], catalog[first]
    comp = compose_kernels(b.kernel, a.kernel)
    closed = sample_kernel(comp, grid)
    sampled = kernel_from_tensor(compose_serial(b.tensor(), a.tensor()), grid, grid)
    assert np.max(np.abs(closed.values - sampled.values)) < 1e-6
    # the mixed kernel has no separable closed-form apply: sample it first
    with pytest.raises(TypeError, match="sample"):
        apply_kernel(comp, wigner_of(coherent_state(0.3, dim), grid))
    with pytest.raises(TypeError):
        compose_kernels(comp, object())


def test_grid_composition_matches_closed_form():
    # two sampled loss kernels chained through a wide intermediate plane
    small = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 33, 33)
    mid = QuadratureGrid(-8.0, 8.0, -8.0, 8.0, 81, 81)
    dim = FockDim(3)
    f1 = sample_kernel(attenuation(0.5, dim).kernel, mid, small)
    f2 = sample_kernel(attenuation(0.6, dim).kernel, small, mid)
    comp = compose_kernels(f2, f1)
    assert comp.out_grid == small and comp.in_grid == small
    ref = sample_kernel(attenuation(0.3, dim).kernel, small, small)
    # compare on interior points to keep clear of in-plane tail cutoffs
    sl = slice(8, 25)
    assert np.max(np.abs(comp.values - ref.values)[sl, sl, sl, sl]) < 1e-10
    with pytest.raises(ValueError):
        compose_kernels(f1, f1)


def test_apply_kernel_grid_path():
    dim = FockDim(20)
    grid = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 81, 81)
    el = attenuation(0.64, dim)
    f = kernel_from_kraus(el.kraus, grid, grid)
    rho = coherent_state(0.5, dim)
    out = apply_kernel(f, wigner_of(rho, grid))
    ref = wigner_of(apply_kraus(el.kraus, rho), grid)
    assert np.max(np.abs(out.values - ref.values)) < 1e-6
    with pytest.raises(ValueError):
        apply_kernel(f, wigner_of(rho, QuadratureGrid(-5, 5, -5, 5, 61, 61)))


def test_apply_gaussian_thermal_closed_form():
    dim = FockDim(30)
    grid = QuadratureGrid(-8.0, 8.0, -8.0, 8.0, 129, 129)
    w_in = wigner_of(thermal_state(1.0, dim), grid)
    out = apply_kernel(attenuation(0.5, dim).kernel, w_in)
    s2 = 2.0 * 0.5 + 1.0  # thermal(0.5) variance doubled
    ref = np.exp(-(grid.xs[:, None] ** 2 + grid.ps[None, :] ** 2) / s2) / (math.pi * s2)
    assert np.max(np.abs(out.values - ref)) < 1e-8


def test_apply_refuses_delta_kernels():
    # a delta kernel is a symbolic record: like its samples, its action on a
    # sampled field is refused, never interpolated between grid nodes
    dim = FockDim(8)
    grid = QuadratureGrid(-4.0, 4.0, -4.0, 4.0, 41, 41)
    w = wigner_of(thermal_state(0.4, dim), grid)
    for el in (identity(dim), phase_rotation(math.pi / 2.0, dim),
               phase_rotation(math.pi, dim), displacement(0.5 + 0.2j, dim),
               squeezing(0.3, dim)):
        assert el.kernel.is_delta
        with pytest.raises(TypeError, match="delta kernels are symbolic"):
            apply_kernel(el.kernel, w)
        with pytest.raises(TypeError, match="delta kernels are symbolic"):
            apply_kernel(scale_kernel(el.kernel, 2.0), w)


def test_sum_kernel_apply_and_norm():
    dim = FockDim(6)
    grid = QuadratureGrid(-5.0, 5.0, -5.0, 5.0, 81, 81)
    f1 = kernel_from_kraus(attenuation(0.7, dim).kraus, grid)
    f2 = kernel_from_kraus(attenuation(0.4, dim).kraus, grid)
    s = SumKernel(((0.3, f1), (0.7, f2)))
    w = wigner_of(coherent_state(0.3, dim), grid)
    out = apply_kernel(s, w)
    ref = 0.3 * apply_kernel(f1, w).values + 0.7 * apply_kernel(f2, w).values
    assert np.max(np.abs(out.values - ref)) < 1e-14
    assert abs(kernel_norm(s) - (0.3 * kernel_norm(f1) + 0.7 * kernel_norm(f2))) < 1e-12
    with pytest.raises(TypeError):
        kernel_norm(attenuation(0.5, dim).kernel)


def test_marginals():
    dim = FockDim(8)
    gauss = attenuation(0.36, dim).kernel
    grid = QuadratureGrid(-3.0, 3.0, -3.0, 3.0, 11, 11)
    # E^dag E = I for a trace-preserving channel
    in_m = input_marginal(gauss, grid)
    assert np.max(np.abs(in_m.values - 1.0)) < 1e-12
    # E E^dag symbol for attenuation is the constant 1/eta
    out_m = output_marginal(gauss, grid)
    assert np.max(np.abs(out_m.values - 1.0 / 0.36)) < 1e-12
    ident = identity(dim).kernel
    assert np.max(np.abs(input_marginal(ident, grid).values - 1.0)) == 0.0
    amp = parametric_amplification(1.5, dim).kernel
    assert abs(output_marginal(amp, grid).values[0, 0] - 1.0 / 1.5) < 1e-12
    with pytest.raises(ValueError):
        output_marginal(GaussianKernel(np.zeros((2, 2)), np.eye(2), np.zeros(2)), grid)


def test_kernel_norm_counts_levels():
    # trace-preserving map: norm = Tr(I) = D on a converged grid
    dim = FockDim(8)
    f = kernel_from_kraus(attenuation(0.5, dim).kraus)
    assert abs(kernel_norm(f) - dim.size) / dim.size < 0.02


def test_radial_form_matches_cartesian():
    dim = FockDim(8)
    t = tensor_from_kraus(attenuation(0.5, dim).kraus)
    grid = QuadratureGrid(-5.0, 5.0, -5.0, 5.0, 41, 41)
    f = kernel_from_tensor(t, grid, grid)
    half = grid.xs[20:]  # 0.0 .. 5.0
    rk = radial_form(t, rp_axis=half, r_axis=half,
                     theta_axis=np.array([0.0, math.pi]))
    cart0 = f.values[20:, 20, 20:, 20]
    assert np.max(np.abs(rk.values[:, :, 0] - cart0)) < 1e-11
    cart_pi = f.values[20::-1, 20, 20:, 20]
    assert np.max(np.abs(rk.values[:, :, 1] - cart_pi)) < 1e-11


def test_radial_form_rejects_covariant_maps():
    t = tensor_from_kraus(displacement(0.4, FockDim(5)).kraus)
    with pytest.raises(ValueError):
        radial_form(t)


def test_radial_norm_consistency():
    dim = FockDim(6)
    t = tensor_from_kraus(attenuation(0.7, dim).kraus)
    rk = radial_form(t, rp_axis=np.linspace(0, 6, 121),
                     r_axis=np.linspace(0, 6, 121),
                     theta_axis=np.linspace(0, 2 * math.pi, 73))
    grid = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 81, 81)
    f = kernel_from_tensor(t, grid, grid)
    # the radial measure folds the angular 2 pi in already
    a = kernel_norm(rk)
    b = kernel_norm(f)
    assert abs(a - b) / b < 0.01


def test_negativity_and_scale_covariance():
    dim = FockDim(6)
    t = ideal_photon_addition(dim)
    # the volume entry integrates over theta, so the axis needs extent
    rk = radial_form(t, rp_axis=np.linspace(0, 4, 81),
                     r_axis=np.linspace(0, 4, 81),
                     theta_axis=np.linspace(0, 2 * math.pi, 25))
    base = negativity(rk)
    assert base["min_value"] < 0.0
    assert base["negative_volume"] > 0.0
    doubled = negativity(scale_kernel(rk, 2.0))
    assert doubled["min_value"] == 2.0 * base["min_value"]
    assert doubled["negative_volume"] == 2.0 * base["negative_volume"]
    odd = negativity(scale_kernel(rk, 3.7))
    assert abs(odd["min_value"] - 3.7 * base["min_value"]) <= 1e-15 * abs(
        base["min_value"]) * 3.7 + 1e-300
    gauss = attenuation(0.5, dim).kernel
    assert negativity(gauss) == {"min_value": 0.0, "negative_volume": 0.0}
    with pytest.raises(TypeError):
        negativity(identity(dim).kernel)


def test_negative_gaussian_negativity():
    # weight -2 on Y = I/4: the most negative value is -2 / (2 pi / 4) at
    # r' = X r, and the negative part over the unbounded plane diverges
    gauss = attenuation(0.5, FockDim(3)).kernel
    neg = negativity(scale_kernel(gauss, -2.0))
    assert abs(neg["min_value"] + 4.0 / math.pi) < 1e-15
    assert neg["negative_volume"] == math.inf
    grid = QuadratureGrid(-2.0, 2.0, -2.0, 2.0, 17, 17)
    sampled = sample_kernel(scale_kernel(gauss, -2.0), grid)
    assert abs(sampled.values.min() - neg["min_value"]) < 1e-15


def test_band_concentration_limits():
    axis = np.linspace(0.0, 4.0, 81)
    ridge = np.exp(-((axis[:, None] - axis[None, :]) / 0.1) ** 2)
    rk = RadialKernel(axis, axis, np.array([0.0]), ridge[:, :, None])
    assert band_concentration(rk, half_width=0.5) > 0.999
    far = np.exp(-((axis[:, None] - axis[None, :] - 2.0) / 0.1) ** 2)
    rk_far = RadialKernel(axis, axis, np.array([0.0]), far[:, :, None])
    assert band_concentration(rk_far, half_width=0.5) < 0.05
    zero = RadialKernel(axis, axis, np.array([0.0]), np.zeros_like(ridge)[:, :, None])
    assert band_concentration(zero) == 1.0


def test_coarse_grid_warning():
    dim = FockDim(4)
    t = tensor_from_kraus(attenuation(0.5, dim).kraus)
    coarse = QuadratureGrid(-5.0, 5.0, -5.0, 5.0, 21, 21)
    with pytest.warns(RuntimeWarning):
        kernel_from_tensor(t, coarse, coarse)


def test_dense_cap():
    # the cap guards the dense samples only: a factored kernel past it
    # builds and applies, and every operation that needs the samples refuses
    dim = FockDim(4)
    t = tensor_from_kraus(attenuation(0.5, dim).kraus)
    big = QuadratureGrid(-5.0, 5.0, -5.0, 5.0, 161, 161)
    huge = QuadratureGrid(-5.0, 5.0, -5.0, 5.0, 401, 401)
    fk = kernel_from_tensor(t, huge, big)
    rho = coherent_state(0.5, dim)
    out = apply_kernel(fk, wigner_of(rho, huge))
    ref = wigner_of(apply_kraus(attenuation(0.5, dim).kraus, rho), big)
    assert np.max(np.abs(out.values - ref.values)) < 1e-12
    with pytest.raises(ValueError, match="dense cap"):
        fk.values
    with pytest.raises(ValueError, match="dense cap"):
        negativity(fk)
    with pytest.raises(ValueError, match="dense cap"):
        sample_kernel(fk, big, huge)
    with pytest.raises(ValueError, match="dense cap"):
        compose_kernels(kernel_from_tensor(t, big, big), fk)


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_every_dense_producer_refuses_above_one_cap_before_allocating(monkeypatch):
    # one cap guards every dense producer and the radial form: lowered, it
    # refuses each request before the 8 * 41^4 bytes (22.6 MB) of samples
    import cvmaps.wigner as wigner

    g = QuadratureGrid(-4.0, 4.0, -4.0, 4.0, 41, 41)
    mid = QuadratureGrid(-4.0, 4.0, -4.0, 4.0, 5, 5)
    gauss = attenuation(0.5, FockDim(4)).kernel
    f1, f2 = sample_kernel(gauss, mid, g), sample_kernel(gauss, g, mid)
    factored = kernel_from_tensor(attenuation(0.5, FockDim(4)).tensor(), g, g)
    monkeypatch.setattr(wigner, "_MAX_GRID_VALUES", 41 ** 4 - 1)
    runs = {"gaussian": lambda: sample_kernel(gauss, g),
            "sum": lambda: SumKernel(((0.5, gauss), (0.5, gauss))).sample(g, g),
            "composition": lambda: compose_kernels(f2, f1),
            "factored": lambda: factored.values,
            "radial": lambda: radial_form(attenuation(0.5, FockDim(4)).tensor(),
                                          np.linspace(0.0, 5.0, 41), np.linspace(0.0, 5.0, 41),
                                          np.linspace(0.0, 6.0, 41 ** 2))}

    def refused(run):
        with pytest.raises(ValueError, match="dense cap"):
            run()

    for name, run in runs.items():
        assert _traced_peak(lambda: refused(run)) < 1 << 20, name


def test_factored_samples_hold_no_complex_product():
    # the real samples are (G_out^T R) G_in, one block of output rows at a
    # time: the samples, the input table and one row block (the whole complex
    # product took 3.27 times the samples)
    out = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 49, 49)
    inp = QuadratureGrid(-8.0, 8.0, -8.0, 8.0, 65, 65)
    f = kernel_from_tensor(attenuation(0.5, FockDim(15)).tensor(), inp, out)
    samples = 8 * 49 ** 2 * 65 ** 2
    assert _traced_peak(lambda: f.values) <= 1.5 * samples
    # at D = 64 on 21^2 points the complex H = E conj(B_in) and the copy
    # conj(B_in) took 55.6 MiB; the bound is 2.1 real basis tables
    g = QuadratureGrid(-2.0, 2.0, -2.0, 2.0, 21, 21)
    f = kernel_from_tensor(attenuation(0.3, FockDim(63)).tensor(), g, g)
    peak = _traced_peak(lambda: f.values)
    assert peak <= 2.1 * 8 * 64 ** 2 * 21 ** 2
    assert peak <= 35 * 2 ** 20


@pytest.mark.parametrize("case", ["radial_values", "scale_grid", "scale_radial",
                                  "scale_gaussian", "scale_sum", "scale_factored",
                                  "sum_weight"])
def test_complex_values_are_refused_at_every_kernel_boundary(case):
    # transfer functions are real: a complex array, weight or scale factor
    # is refused, never cast to its real part or to 0
    grid = QuadratureGrid(-1.0, 1.0, -1.0, 1.0, 3, 3)
    axis = np.linspace(0.0, 1.0, 3)
    gauss = attenuation(0.5, FockDim(3)).kernel
    cases = {
        "radial_values": lambda: RadialKernel(axis, axis, np.zeros(1), 1j * np.ones((3, 3, 1))),
        "scale_grid": lambda: scale_kernel(GridKernel(grid, grid, np.ones((3, 3, 3, 3))), 1j),
        "scale_radial": lambda: scale_kernel(
            RadialKernel(axis, axis, np.zeros(1), np.ones((3, 3, 1))), 1j),
        "scale_gaussian": lambda: scale_kernel(gauss, np.complex128(1j)),
        "scale_sum": lambda: scale_kernel(SumKernel(((1.0, gauss),)), 1j),
        "scale_factored": lambda: scale_kernel(
            kernel_from_tensor(attenuation(0.5, FockDim(3)).tensor()), 1j),
        "sum_weight": lambda: SumKernel(((1j, gauss),)),
    }
    with pytest.raises(ValueError, match="complex|real"):
        cases[case]()


def test_scale_kernel_types():
    gauss = GaussianKernel(0.5 * np.eye(2), 0.125 * np.eye(2), np.zeros(2))
    scaled = scale_kernel(gauss, 2.0)
    assert scaled.weight == 2.0 * gauss.weight
    assert np.array_equal(scaled.Y, gauss.Y)
    s = SumKernel(((0.5, gauss),))
    assert scale_kernel(s, 2.0).terms[0][0] == 1.0
    # a delta scales too: its weight carries the factor
    twice = scale_kernel(identity(FockDim(8)).kernel, 2.0)
    assert twice.is_delta and twice.weight == 2.0


# factored kernels against their own dense samples

FACTORED_IN = QuadratureGrid(-4.0, 4.0, -4.0, 4.0, 33, 33)
FACTORED_OUT = QuadratureGrid(-3.0, 3.0, -3.5, 3.5, 25, 29)


def random_tensor(rng, dim, count=3):
    d = dim.size
    ops = [0.4 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
           for _ in range(count)]
    return tensor_from_kraus(KrausSet(dim, ops))


def dense(f):
    return GridKernel(f.out_grid, f.in_grid, f.values)


def rel_diff(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def test_factored_kernel_matches_dense(rng):
    dim = FockDim(5)
    f = kernel_from_tensor(random_tensor(rng, dim), FACTORED_IN, FACTORED_OUT)
    assert isinstance(f, FactoredKernel)
    ref = dense(f)
    w = wigner_of(coherent_state(0.4 - 0.2j, dim), FACTORED_IN)
    out = apply_kernel(f, w)
    assert out.grid == FACTORED_OUT
    assert rel_diff(out.values, apply_kernel(ref, w).values) <= 1e-12
    for marginal in (input_marginal, output_marginal):
        got, want = marginal(f), marginal(ref)
        assert got.grid == want.grid
        assert rel_diff(got.values, want.values) <= 1e-12
    assert abs(kernel_norm(f) - kernel_norm(ref)) <= 1e-12 * abs(kernel_norm(ref))
    assert negativity(f) == negativity(ref)
    assert np.array_equal(sample_kernel(f, FACTORED_OUT, FACTORED_IN).values,
                          ref.values)
    with pytest.raises(ValueError):
        apply_kernel(f, wigner_of(coherent_state(0.1, dim), FACTORED_OUT))
    with pytest.raises(ValueError):
        sample_kernel(f, FACTORED_IN)


def test_sum_of_factored_kernels_matches_dense(rng):
    dim = FockDim(4)
    f1 = kernel_from_tensor(random_tensor(rng, dim), FACTORED_IN, FACTORED_OUT)
    f2 = kernel_from_tensor(random_tensor(rng, dim), FACTORED_IN, FACTORED_OUT)
    s = SumKernel(((0.3, f1), (-0.7, f2)))
    ref = SumKernel(((0.3, dense(f1)), (-0.7, dense(f2))))
    w = wigner_of(thermal_state(0.5, dim), FACTORED_IN)
    assert rel_diff(apply_kernel(s, w).values, apply_kernel(ref, w).values) <= 1e-12
    for marginal in (input_marginal, output_marginal):
        assert rel_diff(marginal(s).values, marginal(ref).values) <= 1e-12
    assert abs(kernel_norm(s) - kernel_norm(ref)) <= 1e-12 * abs(kernel_norm(ref))
    assert rel_diff(sample_kernel(s, FACTORED_OUT, FACTORED_IN).values,
                    sample_kernel(ref, FACTORED_OUT, FACTORED_IN).values) <= 1e-12


def test_scale_factored_kernel(rng):
    dim = FockDim(4)
    f = kernel_from_tensor(random_tensor(rng, dim), FACTORED_IN, FACTORED_OUT)
    scaled = scale_kernel(f, -2.5)
    assert isinstance(scaled, FactoredKernel)
    assert rel_diff(scaled.values, -2.5 * f.values) <= 1e-12
    ref = scale_kernel(dense(f), -2.5)
    w = wigner_of(coherent_state(0.3, dim), FACTORED_IN)
    assert rel_diff(apply_kernel(scaled, w).values, apply_kernel(ref, w).values) <= 1e-12
    assert abs(kernel_norm(scaled) - kernel_norm(ref)) <= 1e-12 * abs(kernel_norm(ref))


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(a=st.floats(-3.0, 3.0, allow_subnormal=False),
       b=st.floats(-3.0, 3.0, allow_subnormal=False),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_from_tensor_is_linear(a, b, seed):
    # a subnormal coefficient holds fewer than 53 significant bits, so no
    # relative tolerance can hold for it
    rng = np.random.default_rng(seed)
    dim = FockDim(3)
    grid = QuadratureGrid(-3.0, 3.0, -3.0, 3.0, 25, 25)
    t1, t2 = random_tensor(rng, dim), random_tensor(rng, dim)
    both = oracles.tensor_of_elements(dim, a * oracles.entries(t1) + b * oracles.entries(t2))
    w = wigner_of(coherent_state(complex(*rng.uniform(-0.8, 0.8, 2)), dim), grid)
    one = apply_kernel(kernel_from_tensor(t1, grid), w).values
    two = apply_kernel(kernel_from_tensor(t2, grid), w).values
    got = apply_kernel(kernel_from_tensor(both, grid), w).values
    scale = abs(a) * np.max(np.abs(one)) + abs(b) * np.max(np.abs(two))
    assert np.max(np.abs(got - (a * one + b * two))) <= 1e-12 * scale


def _stream_case_tensor(rng, dim, band):
    """A random tensor of either layout: phase-invariant Kraus operators, each
    moving photon numbers by one fixed shift, give a band tensor."""
    d = dim.size
    if not band:
        return random_tensor(rng, dim)
    ops = []
    for shift in rng.integers(1 - d, d, size=3):
        diag = 0.4 * (rng.standard_normal(d - abs(shift))
                      + 1j * rng.standard_normal(d - abs(shift)))
        ops.append(np.diag(diag, -shift))
    return tensor_from_kraus(KrausSet(dim, ops))


@pytest.mark.filterwarnings("ignore:.*grid spacing")
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(n_max=st.sampled_from([1, 2, 7, 20, 41, 63]), band=st.booleans(),
       half=st.sampled_from([2.0, 6.0, 30.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_streamed_products_match_the_oracle_tables_property(n_max, band, half, seed):
    # wigner_of, weyl_symbol, apply_kernel and both marginals stream the basis
    # by order; the oracle contracts the whole complex table of the public
    # element. Non-square grids; on +-30 the envelope underflows at the corners
    rng = np.random.default_rng(seed)
    dim = FockDim(n_max)
    d = dim.size
    grid_in = QuadratureGrid(-half, half, -0.8 * half, 0.7 * half,
                             int(rng.integers(5, 24)), int(rng.integers(5, 24)))
    grid_out = QuadratureGrid(-0.9 * half, 0.6 * half, -half, half,
                              int(rng.integers(5, 24)), int(rng.integers(5, 24)))
    t = _stream_case_tensor(rng, dim, band)
    g_in = oracles.grid_basis_reference(dim, grid_in)  # rows n D + m: W_{|n><m|}
    g_out = oracles.grid_basis_reference(dim, grid_out)

    def close(got, ref):  # ref is complex: its imaginary part counts as error
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = h + h.conj().T
    rho = DensityOperator(dim, h)
    w = wigner_of(rho, grid_in)
    close(w.values, (rho.matrix.reshape(-1) @ g_in).reshape(grid_in.n_x, grid_in.n_p))
    close(weyl_symbol(h, dim, grid_out),
          2.0 * math.pi * (h.reshape(-1) @ g_out).reshape(grid_out.n_x, grid_out.n_p))
    fk = kernel_from_tensor(t, grid_in, grid_out)

    def push(v):  # 2 pi sum_{l,k} E(A)_{l,k} W_{|l><k|}, A_{n,m} = sum v conj(W_{|n><m|})
        a = (g_in.conj() @ v.ravel()).reshape(d, d)
        out = 2.0 * math.pi * (oracles.map_reference(t, a).reshape(-1) @ g_out)
        return out.reshape(grid_out.n_x, grid_out.n_p)

    close(apply_kernel(fk, w).values, push(w.values * grid_in.weights))
    close(output_marginal(fk).values, push(grid_in.weights))
    y = (g_out @ grid_out.weights.ravel()).reshape(d, d)
    pulled = 2.0 * math.pi * (oracles.map_reference(t, y, adjoint=True).reshape(-1) @ g_in.conj())
    close(input_marginal(fk).values, pulled.reshape(grid_in.n_x, grid_in.n_p))


def test_grid_composition_matches_weighted_einsum(rng):
    small = QuadratureGrid(-1.5, 1.5, -1.5, 1.5, 13, 13)
    mid = QuadratureGrid(-2.0, 2.0, -2.5, 2.5, 17, 21)
    dim = FockDim(4)
    f1 = kernel_from_tensor(random_tensor(rng, dim), small, mid)
    f2 = kernel_from_tensor(random_tensor(rng, dim), mid, small)
    comp = compose_kernels(f2, f1)
    assert isinstance(comp, GridKernel)
    assert comp.out_grid == small and comp.in_grid == small
    wx = np.full(mid.n_x, mid.dx)
    wx[0] = wx[-1] = mid.dx / 2
    wp = np.full(mid.n_p, mid.dp)
    wp[0] = wp[-1] = mid.dp / 2
    ref = np.einsum("abxy,x,y,xyij->abij", f2.values, wx, wp, f1.values)
    assert rel_diff(comp.values, ref) <= 1e-13
    assert np.array_equal(compose_kernels(dense(f2), dense(f1)).values, comp.values)


def sub_floor(a):
    import cvmaps.kernels as kernels

    return (a != 0.0) & (np.abs(a) < kernels._FACTOR_FLOOR)


def test_grid_composition_floors_subnormal_tails():
    # on a wide intermediate plane the sampled Gaussians' tails run into the
    # subnormal range; stored samples and the weighted f2 hold no nonzero
    # entry below sqrt(tiny), which moves each composed sample by at most
    # N_mid sqrt(tiny) max(|w f2|, |f1|) against the unfloored product
    import cvmaps.kernels as kernels

    g = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 13, 13)
    mid = QuadratureGrid(-9.0, 9.0, -9.0, 9.0, 25, 25)
    k1, k2 = attenuation(0.5, FockDim(4)).kernel, attenuation(0.8, FockDim(4)).kernel
    raw1 = k1.evaluate(*np.ix_(mid.xs, mid.ps, g.xs, g.ps))
    raw2 = k2.evaluate(*np.ix_(g.xs, g.ps, mid.xs, mid.ps))
    left = raw2 * mid.weights
    tiny, floor = np.finfo(float).tiny, kernels._FACTOR_FLOOR
    assert floor == math.sqrt(tiny)
    assert ((left != 0.0) & (np.abs(left) < tiny)).any()
    for factor in (raw1, raw2, left):
        assert sub_floor(factor).any()
    ref = np.einsum("abxy,xyij->abij", left, raw1)
    # einsum and the blocked matmul round differently: 1e-13 of each sample's
    # absolute sum on top of the floor's bound
    mag = np.einsum("abxy,xyij->abij", np.abs(left), np.abs(raw1))
    bound = mid.n_x * mid.n_p * floor * max(np.abs(left).max(), np.abs(raw1).max())
    read_only = []
    for raw in (raw1, raw2):
        arr = np.array(raw)
        arr.flags.writeable = False
        read_only.append(arr)
    for f2, f1 in ((sample_kernel(k2, g, mid), sample_kernel(k1, mid, g)),
                   (GridKernel(g, mid, read_only[1]), GridKernel(mid, g, read_only[0]))):
        comp = compose_kernels(f2, f1).values
        assert (np.abs(comp - ref) <= 1e-13 * mag + bound).all()
    # the tails of the composed kernel are far below the samples' scale
    assert (ref < 1e-100).any()


def test_grid_samples_hold_no_sub_floor_entries():
    # every producer floors its fresh samples, and a caller's array is
    # floored in a copy that leaves the caller's own entries alone
    grid = QuadratureGrid(-12.0, 12.0, -12.0, 12.0, 13, 13)
    gauss = attenuation(0.5, FockDim(4)).kernel
    raw = np.array(gauss.evaluate(*np.ix_(grid.xs, grid.ps, grid.xs, grid.ps)))
    assert sub_floor(raw).any()

    def floored(a):
        return np.where(sub_floor(a), 0.0, a)

    sampled = gauss.sample(grid, grid)
    assert np.array_equal(sampled.values, floored(raw))
    scaled_raw = 1e-10 * sampled.values
    summed_raw = 1e-10 * sampled.values + 2e-10 * sampled.values
    w = grid.weights.reshape(-1)
    flat = sampled.values.reshape(w.size, w.size)
    composed_raw = floored(flat * w) @ flat
    with pytest.warns(RuntimeWarning, match="spacing"):
        factored = kernel_from_tensor(attenuation(0.5, FockDim(4)).tensor(), grid, grid)
    factored_raw = oracles.factored_kernel_reference(factored.tensor, grid, grid)
    for a in (scaled_raw, summed_raw, composed_raw, factored_raw):
        assert sub_floor(a).any()
    writable = raw.copy()
    read_only = raw.copy()
    read_only.flags.writeable = False
    callers = (GridKernel(grid, grid, writable), GridKernel(grid, grid, read_only))
    assert sub_floor(writable).any() and sub_floor(read_only).any()
    produced = (sampled, scale_kernel(sampled, 1e-10),
                SumKernel(((1e-10, gauss), (2e-10, gauss))).sample(grid, grid),
                compose_kernels(sampled, sampled), factored.dense()) + callers
    for k in produced:
        assert not sub_floor(k.values).any() and not k.values.flags.writeable
    assert np.array_equal(produced[1].values, floored(scaled_raw))
    assert np.array_equal(produced[2].values, floored(summed_raw))
    assert rel_diff(produced[3].values.reshape(w.size, w.size), composed_raw) <= 1e-13
    assert rel_diff(produced[4].values, factored_raw) <= 1e-13
    for k in callers:
        assert np.array_equal(k.values, floored(raw))


def test_composition_check_scans_no_producer_samples(monkeypatch):
    # sampled, composed and scaled kernels hand over samples they have just
    # floored, so only a caller's array goes through the checking copy
    checked = []
    check = GridKernel.__post_init__
    monkeypatch.setattr(GridKernel, "__post_init__",
                        lambda k: checked.append(k.values.size) or check(k))
    assert verify.check_composition_grid(None)["passed"]
    grid = QuadratureGrid(-3.0, 3.0, -3.0, 3.0, 7, 7)
    sampled = attenuation(0.5, FockDim(4)).kernel.sample(grid, grid)
    scale_kernel(sampled, 0.5)
    SumKernel(((1.0, attenuation(0.5, FockDim(4)).kernel),)).sample(grid, grid)
    assert checked == []
    read_only = np.array(sampled.values)
    read_only.flags.writeable = False
    GridKernel(grid, grid, read_only)
    assert checked == [read_only.size]


# verify's composition check: 49^2 x 65^2 samples in each factor and
# 49^2 x 49^2 in the result, in bytes
COMPOSITION_FACTOR = 8 * 49 ** 2 * 65 ** 2
COMPOSITION_RESULT = 8 * 49 ** 4


def test_composition_check_holds_no_full_size_copy():
    # f1, f2 and the result, then the result, the reference and their gap
    tracemalloc.start()
    try:
        assert verify.check_composition_grid(None)["passed"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * COMPOSITION_FACTOR + COMPOSITION_RESULT + (16 << 20)


def test_grid_composition_streams_row_blocks():
    # the result and one row block of the weighted f2 with its floor's
    # temporaries; no full-size copy of either factor
    import cvmaps.kernels as kernels

    g = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 49, 49)
    mid = QuadratureGrid(-8.0, 8.0, -8.0, 8.0, 65, 65)
    f1 = sample_kernel(attenuation(0.5, FockDim(15)).kernel, mid, g)
    f2 = sample_kernel(attenuation(0.8, FockDim(15)).kernel, g, mid)
    tracemalloc.start()
    try:
        compose_kernels(f2, f1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < COMPOSITION_RESULT + 2 * kernels._BLOCK_ENTRIES * 8 + (2 << 20)


def test_gaussian_evaluate_matches_reference_bit_for_bit():
    # the in-place exponential changes no bit of peak * exp(expo)
    grid = QuadratureGrid(-3.0, 3.0, -2.5, 2.5, 9, 11)
    rot = np.array([[math.cos(0.4), math.sin(0.4)], [-math.sin(0.4), math.cos(0.4)]])
    cases = (attenuation(0.5, FockDim(3)).kernel,
             GaussianKernel(np.diag([1.3, 0.7]), np.diag([0.4, 0.9]), [0.2, -0.1], 2.5),
             GaussianKernel(rot @ np.diag([1.2, 0.5]), [[0.6, 0.25], [0.25, 0.4]],
                            [-0.3, 0.5], -1.5))
    points = (np.ix_(grid.xs, grid.ps, grid.xs, grid.ps),
              (0.3, -0.2, grid.xs[:, None], grid.ps[None, :]),
              (0.8, 0.1, 1.0, -0.4))
    for k in cases:
        for pts in points:
            got = k.evaluate(*pts)
            ref = oracles.gaussian_evaluate_reference(k, *pts)
            assert got.shape == ref.shape and np.array_equal(got, ref)


def test_radial_form_theta_blocks_agree():
    # any split of the theta axis samples the same kernel
    t = ideal_photon_addition(FockDim(5))
    axes = (np.linspace(0, 3, 13), np.linspace(0, 3, 11), np.linspace(0, 3, 7))
    whole = radial_form(t, *axes)
    blocked = np.concatenate([radial_form(t, axes[0], axes[1], axes[2][lo:lo + 2]).values
                              for lo in range(0, axes[2].size, 2)], axis=2)
    assert rel_diff(blocked, whole.values) <= 1e-14
    for k in range(axes[2].size):
        single = radial_form(t, axes[0], axes[1], axes[2][k:k + 1])
        assert rel_diff(single.values[:, :, 0], whole.values[:, :, k]) <= 1e-14


def random_phase_invariant_tensor(rng, dim, count):
    # each Kraus operator shifts the photon number by its own s:
    # K = sum_n c_n |n + s><n|, so the map commutes with phase rotations
    d = dim.size
    ops = []
    for _ in range(count):
        s = int(rng.integers(1 - d, d))
        c = rng.standard_normal(d - abs(s)) + 1j * rng.standard_normal(d - abs(s))
        ops.append(np.diag(c, -s))
    return tensor_from_kraus(KrausSet(dim, ops))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(n_max=st.integers(1, 7), count=st.integers(1, 3),
       sizes=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 6)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_radial_form_matches_theta_sampled_contraction(n_max, count, sizes, seed):
    # non-uniform radial axes, and angles well outside [0, 2 pi)
    rng = np.random.default_rng(seed)
    t = random_phase_invariant_tensor(rng, FockDim(n_max), count)
    rp = np.sort(rng.uniform(0.0, 4.0, sizes[0]))
    r = np.sort(rng.uniform(0.0, 4.0, sizes[1]))
    theta = rng.uniform(-10.0, 20.0, sizes[2])
    got = radial_form(t, rp, r, theta).values
    ref = oracles.radial_form_reference(t, rp, r, theta)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# every shipped config, and the slowest-converging map at the n_max cap
RADIAL_MAPS = {path.stem: lambda path=path: cli.build_model(cli.load_config(str(path)))
               for path in (Path(__file__).resolve().parents[1] / "configs").glob("*.json")}
RADIAL_MAPS["attenuation_0.9_n63"] = lambda: attenuation(0.9, FockDim(63)).tensor()


@pytest.mark.parametrize("name", sorted(RADIAL_MAPS))
def test_radial_form_matches_reference_on_shipped_maps(name):
    t = RADIAL_MAPS[name]()
    axes = (np.linspace(0.0, 5.0, 101), np.linspace(0.0, 5.0, 101),
            np.linspace(0.0, 2 * math.pi, 13))
    ref = oracles.radial_form_reference(t, *axes)
    assert rel_diff(radial_form(t, *axes).values, ref) <= 1e-13


def check_factored_kernel_against_reference(t, c):
    # FactoredKernel contracts a tensor through its real transfer matrix;
    # every operation must give what the one dense complex product gives.
    # Apply sums f(r', r) w(r) over the input grid, so its rounding scales
    # with max over r' of sum_r |f(r', r)| |w(r)| and not with the output,
    # which a photon-lowering map on a weak input leaves far below it
    f = kernel_from_tensor(t, FACTORED_IN, FACTORED_OUT)
    ref = oracles.factored_kernel_reference(t, FACTORED_OUT, FACTORED_IN)
    grid_ref = GridKernel(FACTORED_OUT, FACTORED_IN, ref)
    assert rel_diff(f.values, ref) <= 1e-13
    w = wigner_of(coherent_state(0.4 - 0.2j, t.dim), FACTORED_IN)
    want = apply_kernel(grid_ref, w).values
    weighted = np.abs(w.values * FACTORED_IN.weights).ravel()
    scale = np.max(np.abs(ref).reshape(want.size, -1) @ weighted)
    assert np.max(np.abs(apply_kernel(f, w).values - want)) <= 1e-13 * scale
    for marginal in (input_marginal, output_marginal):
        assert rel_diff(marginal(f).values, marginal(grid_ref).values) <= 1e-13
    assert abs(kernel_norm(f) - kernel_norm(grid_ref)) <= 1e-13 * abs(kernel_norm(grid_ref))
    scaled = scale_kernel(f, c)
    assert isinstance(scaled, FactoredKernel)
    assert rel_diff(scaled.values, c * ref) <= 1e-13
    assert np.max(np.abs(apply_kernel(scaled, w).values - c * want)) <= 1e-13 * abs(c) * scale


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(n_max=st.integers(1, 7), count=st.integers(1, 3), invariant=st.booleans(),
       c=st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_factored_kernel_matches_dense_reference(n_max, count, invariant, c, seed):
    # the real paths against the complex oracles: the factored kernel, the
    # radial form off the real axis on distinct radial axes, and the Wigner
    # function and Weyl symbol of Hermitian operators, to 1e-13 of their peaks
    rng = np.random.default_rng(seed)
    dim = FockDim(n_max)
    t = (random_phase_invariant_tensor(rng, dim, count) if invariant
         else random_tensor(rng, dim, count))
    assert (phase_invariance_defect(t) == 0.0) == invariant
    check_factored_kernel_against_reference(t, c)
    if invariant:
        axes = (np.linspace(0.0, 3.0, 7), np.linspace(0.2, 2.5, 6), np.array([0.3, 1.1, -2.0]))
        ref = oracles.radial_form_reference(t, *axes)
        assert rel_diff(radial_form(t, *axes).values, ref) <= 1e-13
    g = rng.standard_normal((dim.size,) * 2) + 1j * rng.standard_normal((dim.size,) * 2)
    rho = DensityOperator(dim, g + g.conj().T)  # Hermitian, not positive
    out = apply_tensor(t, rho)
    ref = oracles.wigner_reference(oracles.apply_tensor_reference(t, rho), dim, FACTORED_IN)
    assert rel_diff(wigner_of(out, FACTORED_IN).values, ref.real) <= 1e-13
    sym = weyl_symbol(rho.matrix, dim, FACTORED_OUT)
    ref = 2.0 * math.pi * oracles.wigner_reference(rho.matrix, dim, FACTORED_OUT)
    assert sym.dtype == float and rel_diff(sym, ref.real) <= 1e-13


def _tensor_by_way_in(way, rng, dim, count, c):
    """A tensor built through one public way in; each keeps Hermiticity."""
    d = dim.size
    ops = np.array([0.4 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                    for _ in range(count)])
    signed = rng.standard_normal(count)
    kraus = ProcessTensor(dim, ops, signed)
    band = random_phase_invariant_tensor(rng, dim, count)
    # photon-number shifts K = sum_n c_n |n + s><n|, raising and lowering
    shifts = [np.diag(rng.standard_normal(d - abs(s)) + 0j, -s)
              for s in rng.integers(1 - d, d, size=count)]
    ways = {"ProcessTensor": lambda: kraus,
            "tensor_from_kraus": lambda: tensor_from_kraus(KrausSet(dim, list(ops))),
            "require_phase_invariant": lambda: require_phase_invariant(
                ProcessTensor(dim, np.array(shifts), signed)),
            "combine_heralding": lambda: combine_heralding(kraus, band),
            "compose_serial": lambda: compose_serial(band, kraus),
            "scale_tensor": lambda: scale_tensor(band if c > 0 else kraus, c)}
    return ways[way]()


@pytest.mark.parametrize("way", ["ProcessTensor", "tensor_from_kraus",
                                 "require_phase_invariant", "combine_heralding",
                                 "compose_serial", "scale_tensor"])
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(n_max=st.integers(1, 6), count=st.integers(1, 3),
       c=st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_way_in_keeps_the_kernel_real(way, n_max, count, c, seed):
    # the complex product 2 pi B_out^T E conj(B_in) has no imaginary part
    # beyond rounding for any tensor a caller can build, so the dense
    # samples may keep only the real part without a residue scan
    t = _tensor_by_way_in(way, np.random.default_rng(seed), FockDim(n_max), count, c)
    flat = oracles.factored_kernel_product(t, FACTORED_OUT, FACTORED_IN)
    assert np.max(np.abs(flat.imag)) <= 1e-12 * np.max(np.abs(flat.real))
    check_factored_kernel_against_reference(t, c)


@pytest.mark.parametrize("name", ["amplifier_experimental", "addition_experimental"])
def test_factored_kernel_matches_dense_reference_on_experimental_models(name):
    t = RADIAL_MAPS[name]()
    assert t.dim.n_max == 15 and phase_invariance_defect(t) == 0.0
    check_factored_kernel_against_reference(t, -2.5)


def test_phase_test_and_radial_form_build_nothing_tensor_sized():
    t = attenuation(0.9, FockDim(63)).tensor()
    for run in (lambda: phase_invariance_defect(t), lambda: radial_form(t)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t.dim.size ** 4  # a sixteenth of the dense tensor's 16 D^4 bytes


def test_radial_form_refuses_any_off_band_entry(tmp_path, monkeypatch):
    # phase invariance means a defect of exactly 0, as in the CP gate
    dim = FockDim(4)
    arr = oracles.entries(attenuation(0.5, dim).tensor()).copy()
    # l - k = 0 but n - m = -1, with its Hermitian partner
    arr[0, 0, 0, 1] = arr[0, 0, 1, 0] = 1e-13
    t = oracles.tensor_of_elements(dim, arr)
    # the Choi eigh moves entries by a few eps of the largest (1.0)
    assert abs(phase_invariance_defect(t) - 1e-13) <= 1e-15
    with pytest.raises(ValueError, match="not phase invariant"):
        radial_form(t)
    monkeypatch.setattr(cli, "build_model", lambda cfg: t)
    out = tmp_path / "o"
    config = str(Path(__file__).resolve().parents[1] / "configs" / "addition_counter.json")
    assert cli.main(["kernel", "--config", config, "--out", str(out)]) == cli.EXIT_PHASE
    assert not out.exists()


def test_kernels_leave_the_callers_arrays_alone():
    axis = np.linspace(0.0, 1.0, 3)
    vals = np.zeros((3, 3, 1))
    grid = QuadratureGrid(-1.0, 1.0, -1.0, 1.0, 3, 3)
    samples = np.zeros((3, 3, 3, 3))
    view = samples.view()
    view.flags.writeable = False  # read-only, but its owner is not
    rk = RadialKernel(axis, axis, np.zeros(1), vals)
    kernels = (GridKernel(grid, grid, samples), GridKernel(grid, grid, view))
    assert axis.flags.writeable and vals.flags.writeable and samples.flags.writeable
    axis[0] = vals[0, 0, 0] = samples[0, 0, 0, 0] = 1.0
    assert rk.r_axis[0] == rk.values[0, 0, 0] == 0.0
    for k in kernels:
        assert k.values[0, 0, 0, 0] == 0.0 and not k.values.flags.writeable
    assert not (rk.r_axis.flags.writeable or rk.values.flags.writeable)
    # an array that no one can write to is copied too: the kernel keeps its own
    samples.flags.writeable = False
    kept = GridKernel(grid, grid, samples).values
    assert kept is not samples and kept.base is None and not kept.flags.writeable
    assert np.array_equal(kept, samples)


def test_kernel_producers_hand_over_without_a_copy(monkeypatch, rng):
    import cvmaps.kernels as kernels

    adopt, copied = kernels._adopt, []

    def spy(arr):
        out = adopt(arr)
        if out is not arr and arr.ndim >= 3:  # sample arrays, not axes
            copied.append(arr.shape)
        return out

    monkeypatch.setattr(kernels, "_adopt", spy)
    grid = QuadratureGrid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    grid_kernel = dense(kernel_from_tensor(random_tensor(rng, FockDim(3)), grid, grid))
    gauss = attenuation(0.5, FockDim(3)).kernel.sample(grid, grid)
    compose_kernels(gauss, grid_kernel)
    SumKernel(((2.0, gauss),)).sample(grid, grid)
    scale_kernel(gauss, 3.0)
    rk = radial_form(ideal_photon_addition(FockDim(3)))
    scale_kernel(rk, 3.0)
    assert copied == []


def test_radial_form_evaluates_the_basis_on_the_real_axis(monkeypatch):
    # the angles enter through the harmonics, never through basis points
    import cvmaps.kernels as kernels

    basis, seen = kernels._basis_rows, []

    def spy(dim, x, p):
        seen.append(np.asarray(p))
        return basis(dim, x, p)

    monkeypatch.setattr(kernels, "_basis_rows", spy)
    radial_form(ideal_photon_addition(FockDim(4)), np.linspace(0.0, 2.0, 5),
                np.linspace(0.0, 2.0, 4), np.array([0.0, 1.0, 2.5]))
    assert seen and not any(p.any() for p in seen)


def test_sampled_marginals_stay_on_their_own_grids(rng):
    dim = FockDim(3)
    fk = kernel_from_tensor(random_tensor(rng, dim), FACTORED_IN, FACTORED_OUT)
    other = QuadratureGrid(-3.0, 3.0, -3.0, 3.0, 11, 11)
    for f in (fk, dense(fk), SumKernel(((1.0, fk),))):
        for marginal, own, wrong in ((input_marginal, FACTORED_IN, FACTORED_OUT),
                                     (output_marginal, FACTORED_OUT, FACTORED_IN)):
            assert marginal(f).grid == own
            assert marginal(f, own).grid == own
            for grid in (other, wrong):
                with pytest.raises(ValueError):
                    marginal(f, grid)
    # closed-form kernels are evaluated on the grid they are given
    gauss = attenuation(0.5, dim).kernel
    assert input_marginal(gauss, other).grid == other
    assert output_marginal(gauss).values.shape == (81, 81)


# closed-form composition over random chains of catalog kernels

_CATALOG = {
    "rotation": lambda u, v, dim: phase_rotation(2.0 * math.pi * u, dim),
    "displacement": lambda u, v, dim: displacement(complex(2 * u - 1, 2 * v - 1), dim),
    "squeezing": lambda u, v, dim: squeezing(u - 0.5, dim),
    "attenuation": lambda u, v, dim: attenuation(u, dim),
    "amplification": lambda u, v, dim: parametric_amplification(1.0 + 2.0 * u, dim),
}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(chain=st.lists(
    st.tuples(st.sampled_from(sorted(_CATALOG)), st.floats(0.0, 1.0),
              st.floats(0.0, 1.0), st.floats(-2.0, 2.0)),
    min_size=3, max_size=6))
def test_closed_form_composition_is_associative(chain):
    dim = FockDim(1)
    kernels = [scale_kernel(_CATALOG[name](u, v, dim).kernel, c)
               for name, u, v, c in chain]
    left = kernels[0]
    for k in kernels[1:]:
        left = compose_kernels(k, left)
    right = kernels[-1]
    for k in reversed(kernels[:-1]):
        right = compose_kernels(right, k)
    # a Gaussian state with mean m and covariance V, sent through one
    # kernel at a time: m -> X m + d, V -> X V X^T + Y
    m0, v0 = np.array([0.3, -0.2]), np.array([[0.7, 0.1], [0.1, 0.4]])
    mean, cov, weight = m0, v0, 1.0
    for k in kernels:
        mean, cov, weight = k.X @ mean + k.d, k.X @ cov @ k.X.T + k.Y, weight * k.weight
    pairs = [(left.X, right.X), (left.Y, right.Y), (left.d, right.d),
             (left.weight, right.weight)]
    for f in (left, right):
        pairs += [(f.weight, weight), (f.X @ m0 + f.d, mean), (f.X @ v0 @ f.X.T + f.Y, cov)]
    for got, ref in pairs:
        ref = np.asarray(ref)
        assert np.max(np.abs(np.asarray(got) - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert left.is_delta == right.is_delta


def test_radial_integrals_refuse_axes_they_cannot_integrate():
    t = attenuation(0.5, FockDim(10)).tensor()
    radii = np.linspace(0.0, 5.0, 101)
    good = radial_form(t, radii, radii)
    flipped = radial_form(t, radii, radii[::-1])
    # building a form on any axes and reading its samples stay allowed
    peak = np.abs(good.values).max()
    assert np.max(np.abs(flipped.values - good.values[:, ::-1])) <= 1e-15 * peak
    unsorted = radial_form(t, radii, radii, np.array([2.0, 0.5]))
    assert unsorted.values.shape == (101, 101, 2)
    assert kernel_norm(good) > 0.0
    few = np.linspace(0.0, 1.0, 5)
    bad = [flipped, unsorted,
           RadialKernel(few - 0.5, few, np.zeros(1), np.zeros((5, 5, 1))),
           RadialKernel(few, few, np.array([0.0, math.nan]), np.zeros((5, 5, 2))),
           RadialKernel(few, np.append(few[:4], math.inf), np.zeros(1), np.zeros((5, 5, 1))),
           RadialKernel(few, few, np.array([0.0, 0.0]), np.zeros((5, 5, 2)))]
    for rk in bad:
        for integral in (kernel_norm, negativity, band_concentration):
            with pytest.raises(ValueError, match="cannot integrate"):
                integral(rk)


def test_radial_integrals_refuse_one_point_axes():
    # a one-point axis has trapezoid weight 0, so its integrals would read 0
    # (and band concentration 1)
    t = attenuation(0.5, FockDim(10)).tensor()
    radii = np.linspace(0.0, 5.0, 101)
    assert kernel_norm(radial_form(t, radii, radii)) > 10.0
    one = np.array([1.0])
    for axes, integrals in (((radii, radii, np.zeros(1)), (kernel_norm, negativity)),
                            ((one, radii, None), (kernel_norm, negativity, band_concentration)),
                            ((radii, one, None), (kernel_norm, negativity, band_concentration))):
        rk = radial_form(t, *axes)
        for integral in integrals:
            with pytest.raises(ValueError, match="cannot integrate"):
                integral(rk)
    # band concentration reads the first angle only, so one angle serves it
    assert 0.0 < band_concentration(radial_form(t, radii, radii, np.zeros(1))) < 1.0
