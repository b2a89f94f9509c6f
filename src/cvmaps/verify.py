"""Self-check battery behind the ``verify`` subcommand.

Each check computes a scalar defect and passes when ``measured <= tolerance``.
Sign conditions (quantities that must be strictly positive or negative) are
folded into the same rule by negating, so one comparison covers everything
and the summary stays machine readable.

Representation-agreement checks run at truncations where the Fock series
has converged (the closed-form rows are entire functions of the phase-space
coordinates, but the Fock sum converges slowly for strong attenuation or
gain; see the convergence notes in the README). A fresh build must pass the
whole battery.

``run_checks(fault=...)`` deliberately corrupts one internal quantity so the
battery's failure path can be exercised end to end; the CLI exposes it via
the CVMAPS_FAULT environment variable. This is a test hook, not a feature;
a name outside FAULTS is refused.
"""

import math
import time
from functools import lru_cache

import numpy as np

from .fock import (DensityOperator, FockDim, annihilation, coherent_state,
                   coherent_vector, creation, fidelity, fock_state, normalize)
from .wigner import QuadratureGrid, overlap, weyl_symbol, wigner_of
from .tensors import (KrausSet, apply_kraus, apply_tensor, combine_heralding,
                      compose_serial, cp_defect, phase_invariance_defect,
                      success_probability, tensor_diagonal, tni_defect, _max_entry_gap)
from .kernels import (band_concentration, compose_kernels, input_marginal,
                      kernel_from_kraus, kernel_from_tensor, kernel_norm,
                      negativity, radial_form, sample_kernel, scale_kernel)
from . import elements as el
from . import models as md

_CHECKS = []
FAULTS = ("attenuation_kernel_sign",)


def _register(fn):
    _CHECKS.append(fn)
    return fn


def _result(name, tolerance, measured, note=""):
    measured = float(measured)
    out = {
        "name": name,
        "tolerance": tolerance,
        "measured": measured,
        "passed": bool(measured <= tolerance),
    }
    if note:
        out["note"] = note
    return out


_EXPERIMENTAL_AMPLIFIER = md.AmplifierConfig(dim=FockDim(15), gain=2.0, mu=0.11,
                                             delta=1.089, detector="apd")
_EXPERIMENTAL_ADDITION = md.AdditionConfig(dim=FockDim(15), chi=0.105, gamma=0.425,
                                           mu=0.11, detector="apd")


@lru_cache(maxsize=None)
def _experimental_amplifier():
    return md.amplifier_model(_EXPERIMENTAL_AMPLIFIER)


@lru_cache(maxsize=None)
def _experimental_addition():
    return md.addition_model(_EXPERIMENTAL_ADDITION)


@lru_cache(maxsize=None)
def _amplifier_delta2():
    cfg = md.AmplifierConfig(dim=FockDim(15), gain=2.0, mu=0.11, delta=2.0,
                             detector="apd")
    return md.amplifier_model(cfg)


@lru_cache(maxsize=None)
def _amplifier_delta2_radial():
    return radial_form(_amplifier_delta2())


@_register
def check_vacuum_peak(fault):
    grid = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 97, 97)
    w = wigner_of(fock_state(0, FockDim(4)), grid)
    peak = w.values[48, 48]
    return _result("wigner_vacuum_peak", 1e-13, abs(peak - 1.0 / math.pi))


@_register
def check_wigner_normalization(fault):
    grid = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 97, 97)
    w = wigner_of(coherent_state(0.6 - 0.3j, FockDim(20)), grid)
    return _result("wigner_normalization", 1e-10, abs(w.integral() - 1.0))


@_register
def check_trace_rule(fault):
    # Tr(rho sigma) = 2 pi Int W_rho W_sigma
    dim = FockDim(20)
    grid = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 97, 97)
    a, b = coherent_state(0.5, dim), coherent_state(-0.2 + 0.4j, dim)
    lhs = float(np.real(np.trace(a.matrix @ b.matrix)))
    rhs = overlap(wigner_of(a, grid), wigner_of(b, grid))
    return _result("wigner_trace_rule", 1e-9, abs(lhs - rhs))


def _cross_representation(element, grid, fault=None):
    sampled = kernel_from_tensor(element.tensor(), grid, grid)
    closed = element.kernel
    if fault == "attenuation_kernel_sign":
        closed = scale_kernel(closed, -1.0)
    ref = sample_kernel(closed, grid, grid)
    return float(np.abs(sampled.values - ref.values).max())


@_register
def check_cross_representation_attenuation(fault):
    grid = QuadratureGrid(-2.0, 2.0, -2.0, 2.0, 21, 21)
    err = max(
        _cross_representation(el.attenuation(0.64, FockDim(40)), grid, fault),
        _cross_representation(el.attenuation(0.3, FockDim(63)), grid, fault),
    )
    return _result("cross_representation_attenuation", 1e-6, err,
                   note="eta=0.64 at n_max=40, eta=0.3 at n_max=63")


@_register
def check_cross_representation_amplification(fault):
    grid = QuadratureGrid(-2.0, 2.0, -2.0, 2.0, 21, 21)
    err = _cross_representation(el.parametric_amplification(1.2, FockDim(63)),
                                grid)
    return _result("cross_representation_amplification", 1e-6, err,
                   note="g=1.2 at n_max=63")


@_register
def check_composition_tensor(fault):
    dim = FockDim(15)
    comp = compose_serial(el.attenuation(0.8, dim).tensor(),
                          el.attenuation(0.5, dim).tensor())
    ref = el.attenuation(0.4, dim).tensor()
    return _result("composition_tensor", 1e-10, _max_entry_gap(comp, ref))


@_register
def check_composition_grid(fault):
    # the intermediate plane is wider than the endpoint grids so the
    # contracted tails are not cut off
    dim = FockDim(15)
    g = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 49, 49)
    mid = QuadratureGrid(-8.0, 8.0, -8.0, 8.0, 65, 65)
    f1 = sample_kernel(el.attenuation(0.5, dim).kernel, mid, g)
    f2 = sample_kernel(el.attenuation(0.8, dim).kernel, g, mid)
    comp = compose_kernels(f2, f1).values
    del f1, f2  # released before the reference is sampled
    gap = comp - sample_kernel(el.attenuation(0.4, dim).kernel, g, g).values
    return _result("composition_grid", 1e-5, float(np.abs(gap, out=gap).max()))


def _single_kraus_cases(dim):
    cases = [("a", annihilation(dim)), ("adag", creation(dim))]
    for j, op in enumerate(el.attenuation_kraus(0.64, dim)[:3]):
        cases.append((f"att64_j{j}", op))
    return cases


@_register
def check_marginal_pointwise(fault):
    dim = FockDim(8)
    out_grid = QuadratureGrid(-7.0, 7.0, -7.0, 7.0, 113, 113)
    in_grid = QuadratureGrid(-5.0, 5.0, -5.0, 5.0, 61, 61)
    worst = 0.0
    for _, op in _single_kraus_cases(dim):
        f = kernel_from_kraus(KrausSet(dim, (op,)), in_grid, out_grid)
        marg = input_marginal(f)
        ref = weyl_symbol(op.conj().T @ op, dim, marg.grid)
        worst = max(worst, float(np.abs(marg.values - np.real(ref)).max()))
    return _result("marginal_pointwise", 1e-4, worst)


@_register
def check_kernel_norm_trace(fault):
    dim = FockDim(8)
    worst = 0.0
    for _, op in _single_kraus_cases(dim):
        f = kernel_from_kraus(KrausSet(dim, (op,)))
        tr = float(np.real(np.trace(op.conj().T @ op)))
        worst = max(worst, abs(kernel_norm(f) - tr) / tr)
    return _result("kernel_norm_trace", 0.02, worst,
                   note="relative error at default grids")


@_register
def check_coherent_transport(fault):
    # delta-row elements applied through the tensor reproduce the
    # analytically transformed coherent states
    dim = FockDim(20)
    alpha = 0.5 + 0.3j
    rho = coherent_state(alpha, dim)
    theta = math.pi / 3
    beta = 0.5 + 0.2j
    cases = [
        (el.identity(dim), coherent_state(alpha, dim)),
        (el.phase_rotation(theta, dim),
         coherent_state(alpha * np.exp(-1j * theta), dim)),
        (el.displacement(beta, dim), coherent_state(alpha + beta, dim)),
    ]
    r = 0.4
    sq_ref = _squeezed_coherent(r, alpha, dim)
    cases.append((el.squeezing(r, dim), sq_ref))
    worst = 0.0
    for elem, ref in cases:
        out = normalize(apply_tensor(elem.tensor(), rho))
        worst = max(worst, 1.0 - fidelity(out, ref))
    return _result("coherent_transport", 1e-9, worst)


def _squeezed_coherent(r, alpha, dim):
    """S(r)|alpha> from the displaced squeezed-vacuum series."""
    from .fock import displacement_matrix

    beta = alpha * math.cosh(r) - np.conj(alpha) * math.sinh(r)
    vac = np.zeros(dim.size, dtype=complex)
    t = math.tanh(r)
    for m in range(dim.size // 2 + 1):
        n = 2 * m
        if n >= dim.size:
            break
        vac[n] = ((-t / 2) ** m * math.sqrt(math.factorial(n))
                  / math.factorial(m) / math.sqrt(math.cosh(r)))
    vec = displacement_matrix(beta, dim) @ vac
    vec = vec / np.linalg.norm(vec)
    return DensityOperator(dim, np.outer(vec, vec.conj()))


@_register
def check_beam_splitter_transport(fault):
    dim = FockDim(20)
    t = math.sqrt(0.7)
    r = math.sqrt(0.3)
    a1, a2 = 0.6, -0.3 + 0.4j
    u = el.beam_splitter_matrix(t, dim)
    rho_in = np.kron(coherent_vector(a1, dim), coherent_vector(a2, dim))
    out = apply_kraus(KrausSet(dim, (u,), 2, 2),
                      DensityOperator(dim, np.outer(rho_in, rho_in.conj()), 2))
    b1 = t * a1 + r * a2
    b2 = -r * a1 + t * a2
    ref_vec = np.kron(coherent_vector(b1, dim), coherent_vector(b2, dim))
    ref = DensityOperator(dim, np.outer(ref_vec, ref_vec.conj()), 2)
    out = normalize(out)
    return _result("beam_splitter_transport", 1e-9, 1.0 - fidelity(out, ref))


@_register
def check_ideal_amplifier_fidelity(fault):
    dim = FockDim(12)
    cfg = md.AmplifierConfig(dim=dim, gain=2.0, detector="photon_counter")
    out = normalize(apply_tensor(md.amplifier_model(cfg), coherent_state(0.1, dim)))
    vec = np.zeros(dim.size, dtype=complex)
    vec[0], vec[1] = 1.0, 0.2
    vec /= np.linalg.norm(vec)
    ref = DensityOperator(dim, np.outer(vec, vec.conj()))
    return _result("ideal_amplifier_fidelity", 1e-6, 1.0 - fidelity(out, ref))


@_register
def check_ideal_amplifier_probability(fault):
    dim = FockDim(12)
    g = 2.0
    reflectivity = 1.0 / (1.0 + g * g)
    cfg = md.AmplifierConfig(dim=dim, reflectivity=reflectivity,
                             detector="photon_counter")
    t = md.amplifier_model(cfg)
    alpha = 0.1
    p = success_probability(t, coherent_state(alpha, dim))
    # exact scissors herald probability for a coherent input
    p_ref = math.exp(-alpha * alpha) * 0.5 * (
        reflectivity + (1.0 - reflectivity) * alpha * alpha)
    return _result("ideal_amplifier_probability", 1e-8, abs(p - p_ref))


@_register
def check_ideal_amplifier_truncation(fault):
    cfg = md.AmplifierConfig(dim=FockDim(12), gain=2.0, detector="photon_counter")
    worst = np.abs(tensor_diagonal(md.amplifier_model(cfg))[2:]).max()
    return _result("ideal_amplifier_output_truncation", 0.0, worst,
                   note="F^{m,m}_{k,k} for k >= 2 vanishes exactly")


@_register
def check_amplifier_cp(fault):
    # cp_defect is the most negative Choi eigenvalue, never positive
    return _result("amplifier_cp", 1e-9, -cp_defect(_experimental_amplifier()))


@_register
def check_amplifier_tni(fault):
    return _result("amplifier_tni", 1e-9, tni_defect(_experimental_amplifier()))


@_register
def check_amplifier_phase_invariance(fault):
    return _result("amplifier_phase_invariance", 0.0,
                   phase_invariance_defect(_experimental_amplifier()))


@_register
def check_amplifier_population_signatures(fault):
    diag = tensor_diagonal(_experimental_amplifier()).real
    return _result("amplifier_population_signatures", -1e-6,
                   -min(diag[1, 2:].min(), diag[2:].max()),
                   note="one-photon recycling and k>=2 leakage rates")


@_register
def check_amplifier_kernel_negativity(fault):
    rk = _amplifier_delta2_radial()
    near = rk.values[rk.rp_axis <= 0.5, :, 0]
    return _result("amplifier_kernel_negativity", -1e-3, float(near.min()),
                   note="theta=0 slice near r'=0, delta=2")


@_register
def check_amplifier_negativity_ordering(fault):
    dim = FockDim(15)
    vac = fock_state(0, dim)
    n2 = negativity(_amplifier_delta2_radial())
    n1 = negativity(radial_form(_experimental_amplifier()))
    p2 = success_probability(_amplifier_delta2(), vac)
    p1 = success_probability(_experimental_amplifier(), vac)
    gap = n2["min_value"] / p2 - n1["min_value"] / p1
    return _result("amplifier_negativity_ordering", -1e-3, gap,
                   note="delta=1.089 less negative than delta=2 after "
                        "success-probability normalization")


@_register
def check_negativity_scale_covariance(fault):
    rk = _amplifier_delta2_radial()
    base = negativity(rk)
    worst = 0.0
    for c in (2.0, 3.7):
        scaled = negativity(scale_kernel(rk, c))
        worst = max(
            worst,
            abs(scaled["min_value"] - c * base["min_value"])
            / abs(c * base["min_value"]),
            abs(scaled["negative_volume"] - c * base["negative_volume"])
            / (c * base["negative_volume"]),
        )
    return _result("negativity_scale_covariance", 1e-13, worst)


@_register
def check_addition_ideal_map(fault):
    dim = FockDim(12)
    t = md.ideal_photon_addition(dim)
    worst = 0.0
    for n in range(dim.size - 1):
        out = apply_tensor(t, fock_state(n, dim))
        ref = np.zeros_like(out.matrix)
        ref[n + 1, n + 1] = n + 1.0
        worst = max(worst, float(np.abs(out.matrix - ref).max()))
    return _result("addition_ideal_map", 1e-12, worst)


@_register
def check_addition_probability_ratios(fault):
    dim = FockDim(15)
    cfg = md.AdditionConfig(dim=dim, chi=0.01, gamma=0.0,
                            detector="photon_counter")
    t = md.addition_model(cfg)
    p0 = success_probability(t, fock_state(0, dim))
    worst = 0.0
    for n in range(1, 6):
        ratio = success_probability(t, fock_state(n, dim)) / p0
        worst = max(worst, abs(ratio - (n + 1.0)) / (n + 1.0))
    return _result("addition_probability_ratios", 0.01, worst)


@_register
def check_addition_cp(fault):
    return _result("addition_cp", 1e-9, -cp_defect(_experimental_addition()))


@_register
def check_addition_tni(fault):
    return _result("addition_tni", 1e-9, tni_defect(_experimental_addition()))


@_register
def check_addition_phase_invariance(fault):
    return _result("addition_phase_invariance", 0.0,
                   phase_invariance_defect(_experimental_addition()))


@_register
def check_addition_band_concentration(fault):
    rp = np.linspace(0.0, 8.0, 161)
    r = np.linspace(0.0, 3.0, 61)
    rk = radial_form(_experimental_addition(), rp, r, np.array([0.0]))
    return _result("addition_band_concentration", -0.9,
                   -band_concentration(rk, 0.5),
                   note="squared-mass fraction within |r'-r| <= 0.5")


@_register
def check_heralding_additivity(fault):
    rng = np.random.default_rng(20240517)
    worst = 0.0
    dim = FockDim(15)
    for correct, faulty in (md.amplifier_branches(_EXPERIMENTAL_AMPLIFIER),
                            md.addition_branches(_EXPERIMENTAL_ADDITION)):
        total = combine_heralding(correct, faulty)
        for _ in range(100):
            vec = rng.normal(size=dim.size) + 1j * rng.normal(size=dim.size)
            vec /= np.linalg.norm(vec)
            rho = DensityOperator(dim, np.outer(vec, vec.conj()))
            p1 = success_probability(correct, rho)
            p2 = success_probability(faulty, rho)
            p_tot = success_probability(total, rho)
            worst = max(worst, abs(p_tot - p1 - p2))
    return _result("heralding_additivity", 1e-14, worst)


@_register
def check_cli_determinism(fault):
    from . import cli

    first = cli.render_tensor_csv(md.amplifier_model(
        md.AmplifierConfig(dim=FockDim(12), gain=2.0,
                           detector="photon_counter")))
    second = cli.render_tensor_csv(md.amplifier_model(
        md.AmplifierConfig(dim=FockDim(12), gain=2.0,
                           detector="photon_counter")))
    return _result("cli_determinism", 0.0,
                   0.0 if first == second else 1.0,
                   note="tensor CSV rendering is reproducible")


def run_checks(fault: str = None) -> dict:
    """Run the battery; returns the summary dict used by the CLI."""
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; known faults: {', '.join(FAULTS)}")
    t0 = time.perf_counter()
    checks = []
    for fn in _CHECKS:
        start = time.perf_counter()
        result = fn(fault)
        result["seconds"] = round(time.perf_counter() - start, 3)
        checks.append(result)
    return {
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
        "runtime_seconds": round(time.perf_counter() - t0, 3),
        "fault": fault,
    }
