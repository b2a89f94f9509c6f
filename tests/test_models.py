import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_pure_state
from cvmaps.fock import DensityOperator, FockDim, coherent_state, fock_state, normalize
from cvmaps.models import (
    AdditionConfig,
    AmplifierConfig,
    addition_branches,
    addition_model,
    amplifier_branches,
    amplifier_model,
    ideal_photon_addition,
    ideal_truncated_amplifier,
    _gate_physical,
)
from cvmaps import cli, fock, tensors
from cvmaps.tensors import (
    PhysicalityError,
    apply_tensor,
    cp_defect,
    identity_tensor,
    phase_invariance_defect,
    require_tni,
    success_probability,
    tni_defect,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def embed(psi: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size, dtype=complex)
    out[: psi.size] = psi
    return out


def compare_amplifier_with_circuit(cfg, psi, tol=1e-12):
    size = cfg.dim.n_max + 3
    p_ref, sigma_ref = oracles.amplifier_oracle(embed(psi, size), cfg, size)
    d = cfg.dim.size
    rho = DensityOperator(cfg.dim, np.outer(psi, psi.conj()))
    total = amplifier_model(cfg)
    out = apply_tensor(total, rho)
    assert abs(out.trace - p_ref) < tol
    assert np.max(np.abs(out.matrix - sigma_ref[:d, :d])) < tol


def test_amplifier_matches_circuit_ideal(rng):
    cfg = AmplifierConfig(dim=FockDim(8), gain=2.0, delta=2.0, mu=1.0)
    compare_amplifier_with_circuit(cfg, random_pure_state(rng, 9))


def test_amplifier_matches_circuit_experimental(rng):
    cfg = AmplifierConfig(dim=FockDim(8), gain=2.0, delta=1.089, mu=0.11,
                          eta_m=0.8, detector="apd")
    compare_amplifier_with_circuit(cfg, random_pure_state(rng, 9))


def test_amplifier_matches_circuit_counter_mismatch(rng):
    cfg = AmplifierConfig(dim=FockDim(7), gain=1.5, delta=2.0, mu=1.0,
                          eta_m=0.9, detector="photon_counter")
    compare_amplifier_with_circuit(cfg, random_pure_state(rng, 8))


def test_scissors_probability_closed_form():
    cfg = AmplifierConfig(dim=FockDim(15), gain=2.0, delta=2.0, mu=1.0)
    total = amplifier_model(cfg)
    for alpha in (0.2, 0.4, 0.8):
        p = success_probability(total, coherent_state(alpha, cfg.dim))
        ref = oracles.scissors_probability(alpha, cfg.reflectivity)
        assert abs(p - ref) < 1e-14, alpha


def test_scissors_output_is_truncated_amplification():
    g = 2.0
    cfg = AmplifierConfig(dim=FockDim(15), gain=g, delta=2.0, mu=1.0)
    total = amplifier_model(cfg)
    # pure single-photon resource cannot put two photons in the output arm
    e = oracles.entries(total)
    assert np.max(np.abs(e[2:])) == 0.0
    assert np.max(np.abs(e[:, 2:])) == 0.0
    alpha = 0.4
    out = normalize(apply_tensor(total, coherent_state(alpha, cfg.dim)))
    target = np.zeros(cfg.dim.size, dtype=complex)
    target[0] = 1.0
    target[1] = g * alpha
    target /= np.linalg.norm(target)
    ref = np.outer(target, target.conj())
    assert np.max(np.abs(out.matrix - ref)) < 1e-12


def test_ideal_truncated_amplifier():
    g = 2.0
    dim = FockDim(10)
    t = ideal_truncated_amplifier(g, dim)
    e = oracles.entries(t)
    assert np.max(np.abs(e[2:])) == 0.0
    assert e[1, 1, 1, 1] == g * g
    assert e[1, 0, 1, 0] == g
    out = apply_tensor(t, coherent_state(0.3, dim))
    assert abs(out.matrix[1, 1].real / out.matrix[0, 0].real - (g * 0.3) ** 2) < 1e-10
    for bad in (0.9, 1e160):  # below 1, and a gain whose square overflows
        with pytest.raises(ValueError):
            ideal_truncated_amplifier(bad, dim)


def test_ideal_addition_raises_number():
    dim = FockDim(9)
    t = ideal_photon_addition(dim)
    for n in range(5):
        out = apply_tensor(t, fock_state(n, dim))
        assert abs(out.trace - (n + 1)) < 1e-13
        assert abs(out.matrix[n + 1, n + 1].real - (n + 1)) < 1e-13
    with pytest.raises(PhysicalityError, match="trace-increasing"):
        require_tni(t)


def test_addition_matches_circuit_counter(rng):
    dim = FockDim(12)
    cfg = AdditionConfig(dim=dim, chi=0.105, gamma=0.0, mu=1.0,
                         detector="photon_counter")
    psi = np.zeros(dim.size, dtype=complex)
    psi[:6] = random_pure_state(rng, 6)
    # buffer well past the cutoff: the oracle's expm is only as exact as the
    # out-and-back leakage through the buffer top, ~ (chi buf)^buf / buf!
    p_ref, sigma_ref = oracles.addition_oracle(embed(psi, 22), 0.105, 1.0,
                                               "photon_counter", 22)
    total = addition_model(cfg)
    rho = DensityOperator(dim, np.outer(psi, psi.conj()))
    out = apply_tensor(total, rho)
    assert abs(out.trace - p_ref) < 1e-13
    assert np.max(np.abs(out.matrix - sigma_ref[: dim.size, : dim.size])) < 1e-13


def test_addition_matches_circuit_apd(rng):
    dim = FockDim(12)
    cfg = AdditionConfig(dim=dim, chi=0.105, gamma=0.0, mu=0.11, detector="apd")
    psi = np.zeros(dim.size, dtype=complex)
    psi[:6] = random_pure_state(rng, 6)
    p_ref, sigma_ref = oracles.addition_oracle(embed(psi, 22), 0.105, 0.11,
                                               "apd", 22)
    total = addition_model(cfg)
    rho = DensityOperator(dim, np.outer(psi, psi.conj()))
    out = apply_tensor(total, rho)
    assert abs(out.trace - p_ref) < 1e-13
    assert np.max(np.abs(out.matrix - sigma_ref[: dim.size, : dim.size])) < 1e-13


def test_addition_parasite_resummation():
    # geometric series over undetected parasite pairs against the closed form
    chi, gamma, mu = 0.105, 0.425, 0.11
    h = math.cosh(gamma * chi) ** 2
    q = np.array([(1.0 / h) * ((h - 1.0) / h) ** i for i in range(400)])
    series = float(np.sum(q * (1.0 - mu) ** np.arange(400)))
    kappa_nc = 1.0 / (mu * h + 1.0 - mu)
    assert abs(series - kappa_nc) < 1e-15
    cfg = AdditionConfig(dim=FockDim(8), chi=chi, gamma=gamma, mu=mu,
                         detector="apd")
    correct, faulty = addition_branches(cfg)
    ident = identity_tensor(cfg.dim)
    # the faulty branch leaves the signal untouched with the complement weight
    e = oracles.entries(faulty)
    ratio = e[1, 1, 1, 1].real
    assert abs(ratio - (1.0 - kappa_nc)) < 1e-15
    assert np.max(np.abs(e - ratio * oracles.entries(ident))) < 1e-18


def test_addition_counter_split():
    chi, gamma = 0.105, 0.425
    h = math.cosh(gamma * chi) ** 2
    cfg = AdditionConfig(dim=FockDim(8), chi=chi, gamma=gamma, mu=1.0,
                         detector="photon_counter")
    correct, faulty = addition_branches(cfg)
    lam = math.tanh(chi)
    sech = 1.0 / math.cosh(chi)
    # correct branch keeps only the single-pair slice, weighted q0 = 1/h
    q0 = 1.0 / h
    e = oracles.entries(correct)
    for n in (0, 3):
        expect = q0 * (lam * math.sqrt(n + 1) * sech ** (n + 1)) ** 2
        assert abs(e[n + 1, n + 1, n, n].real - expect) < 1e-15
    q1 = (h - 1.0) / h ** 2
    assert abs(oracles.entries(faulty)[2, 2, 2, 2].real - q1) < 1e-15


def test_addition_probability_formula():
    chi = 0.01
    dim = FockDim(12)
    cfg = AdditionConfig(dim=dim, chi=chi, gamma=0.0, mu=1.0,
                         detector="photon_counter")
    total = addition_model(cfg)
    lam = math.tanh(chi)
    sech = 1.0 / math.cosh(chi)
    for n in range(6):
        p = success_probability(total, fock_state(n, dim))
        expect = lam ** 2 * (n + 1) * sech ** (2 * (n + 1))
        assert abs(p - expect) < 1e-15, n


def test_addition_two_pair_leakage_small():
    cfg = AdditionConfig(dim=FockDim(12), chi=0.105, gamma=0.425, mu=0.11,
                         detector="apd")
    total = addition_model(cfg)
    lam2 = math.tanh(cfg.chi) ** 2
    e = oracles.entries(total)
    for m in range(8):
        two = e[m + 2, m + 2, m, m].real
        one = e[m + 1, m + 1, m, m].real
        # one extra pair costs lam^2 (m+2)/2, weighted by the two-photon
        # click response (2 - mu) of the APD
        bound = lam2 * (2.0 - cfg.mu) * (m + 2) / 2.0
        assert two / one < 1.05 * bound, m
        assert two / one > 0.8 * bound, m


def test_model_physicality_and_symmetry():
    amp = amplifier_model(AmplifierConfig(dim=FockDim(10), gain=2.0, mu=0.11,
                                          delta=1.089, detector="apd"))
    add = addition_model(AdditionConfig(dim=FockDim(10), chi=0.105, gamma=0.425,
                                        mu=0.11, detector="apd"))
    for t in (amp, add):
        assert cp_defect(t) > -1e-9
        assert tni_defect(t) <= 1e-10
        assert phase_invariance_defect(t) < 1e-12


def test_branch_probability_additivity(rng):
    cfg = AmplifierConfig(dim=FockDim(8), gain=2.0, mu=0.11, delta=1.089,
                          detector="apd")
    correct, faulty = amplifier_branches(cfg)
    total = amplifier_model(cfg)
    psi = random_pure_state(rng, 9)
    rho = DensityOperator(cfg.dim, np.outer(psi, psi.conj()))
    pc = success_probability(correct, rho)
    pf = success_probability(faulty, rho)
    assert abs(success_probability(total, rho) - (pc + pf)) < 1e-14


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(n_max=st.integers(2, 6),
       gain=st.one_of(st.none(), st.floats(1.0, 10.0)),
       reflectivity=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       mu=st.floats(0.0, 1.0, exclude_min=True),
       delta=st.floats(0.0, 2.0, exclude_min=True),
       eta_m=st.floats(0.0, 1.0, exclude_min=True),
       detector=st.sampled_from(["apd", "photon_counter"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_amplifier_matches_circuit_property(n_max, gain, reflectivity, mu, delta,
                                            eta_m, detector, seed):
    split = {"gain": gain} if gain is not None else {"reflectivity": reflectivity}
    cfg = AmplifierConfig(dim=FockDim(n_max), mu=mu, delta=delta, eta_m=eta_m,
                          detector=detector, **split)
    psi = random_pure_state(np.random.default_rng(seed), n_max + 1)
    compare_amplifier_with_circuit(cfg, psi)
    correct, faulty = amplifier_branches(cfg)
    rho = DensityOperator(cfg.dim, np.outer(psi, psi.conj()))
    split_p = success_probability(correct, rho) + success_probability(faulty, rho)
    assert abs(success_probability(amplifier_model(cfg), rho) - split_p) < 1e-14


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(n_max=st.integers(2, 24),
       reflectivity=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       mu=st.floats(0.0, 1.0, exclude_min=True),
       delta=st.floats(0.0, 2.0),
       eta_m=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       detector=st.sampled_from(["apd", "photon_counter"]))
def test_amplifier_branches_match_the_einsum_property(n_max, reflectivity, mu, delta,
                                                     eta_m, detector):
    # the collapsed herald weights reorder the sums of the whole-table einsum
    cfg = AmplifierConfig(dim=FockDim(n_max), reflectivity=reflectivity, mu=mu,
                          delta=delta, eta_m=eta_m, detector=detector)
    for branch, ref in zip(amplifier_branches(cfg), oracles.amplifier_einsum_reference(cfg)):
        e = oracles.entries(branch)
        assert not e[3:].any() and not e[:, 3:].any()
        assert np.max(np.abs(e[:3, :3] - ref)) <= 1e-15 * np.max(np.abs(ref))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n_max=st.integers(2, 8),
       chi=st.floats(0.0, 2.0, exclude_min=True),
       gamma=st.floats(0.0, 4.0),
       mu=st.floats(0.0, 1.0, exclude_min=True),
       detector=st.sampled_from(["apd", "photon_counter"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_addition_physical_property(n_max, chi, gamma, mu, detector, seed):
    # every schema-valid addition config passes the CP and TNI gates
    cfg = AdditionConfig(dim=FockDim(n_max), chi=chi, gamma=gamma, mu=mu,
                         detector=detector)
    total = addition_model(cfg)
    correct, faulty = addition_branches(cfg)
    # stored entries (l >= k) are the einsum's bit for bit; the others are their
    # conjugates, while the einsum's (a w) a order is not bitwise symmetric
    ref, got = oracles.addition_correct_einsum(cfg), oracles.entries(correct)
    stored = np.greater_equal.outer(np.arange(n_max + 1), np.arange(n_max + 1))
    assert np.array_equal(got[stored], ref[stored])
    assert np.abs(got - ref).max() <= 2 * np.finfo(float).eps * np.abs(ref).max()
    assert np.array_equal(oracles.entries(total),
                          oracles.entries(correct) + oracles.entries(faulty))
    psi = random_pure_state(np.random.default_rng(seed), n_max + 1)
    rho = DensityOperator(cfg.dim, np.outer(psi, psi.conj()))
    split_p = success_probability(correct, rho) + success_probability(faulty, rho)
    assert abs(success_probability(total, rho) - split_p) < 1e-14


_EXPERIMENTAL_AMPLIFIER = dict(gain=2.0, mu=0.11, delta=1.089, eta_m=0.9,
                               detector="apd")
_EXPERIMENTAL_ADDITION = dict(chi=0.105, gamma=0.425, mu=0.11, detector="apd")


def test_addition_branches_keep_one_copy_each():
    cfg = AdditionConfig(dim=FockDim(29), **_EXPERIMENTAL_ADDITION)
    tracemalloc.start()
    try:
        correct, faulty = addition_branches(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two tensors and nothing else of their size
    assert peak < 2.5 * 16 * cfg.dim.size ** 4


def test_amplifier_branches_keep_no_quartic_intermediate():
    cfg = AmplifierConfig(dim=FockDim(29), **_EXPERIMENTAL_AMPLIFIER)
    tracemalloc.start()
    try:
        correct, faulty = amplifier_branches(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two output tensors and no D^4 intermediate beside them
    assert peak < 2.5 * 16 * cfg.dim.size ** 4


# the per-band Choi gate of exactly phase-invariant maps

def _gated_maps():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        yield path.stem, cli.build_model(cli.load_config(str(path)))
    for n_max in (16, 32):
        dim = FockDim(n_max)
        yield (f"amplifier/{n_max}",
               amplifier_model(AmplifierConfig(dim=dim, **_EXPERIMENTAL_AMPLIFIER)))
        yield (f"addition/{n_max}",
               addition_model(AdditionConfig(dim=dim, **_EXPERIMENTAL_ADDITION)))


def test_band_defect_matches_dense_eigh():
    maps = list(_gated_maps())
    assert len(maps) == 8
    for name, t in maps:
        assert phase_invariance_defect(t) == 0.0, name
        dense = np.linalg.eigvalsh(oracles.choi_reference(t)).min()
        d = t.dim.size
        e = oracles.entries(t)
        band = min(np.linalg.eigvalsh(e.diagonal(-s, 0, 2).diagonal(-s, 0, 1)).min()
                   for s in range(1 - d, d))
        assert abs(band - dense) <= 1e-14, name
        assert abs(cp_defect(t) - min(dense, 0.0)) <= 1e-14, name


def test_band_gate_fires_on_non_cp_map():
    # the identity with its |0><1| coherence doubled: a band tensor, and its
    # Choi band s = 0 has the eigenvector (1, -1, 0, ...) at -1
    dim = FockDim(4)
    block = np.ones((dim.size, dim.size))
    block[0, 1] = block[1, 0] = 2.0
    t = tensors._band_tensor(dim, [(0, block)])
    assert isinstance(t, tensors._BandTensor)
    assert abs(cp_defect(t) + 1.0) < 1e-14
    assert abs(cp_defect(t) - np.linalg.eigvalsh(oracles.choi_reference(t)).min()) < 1e-14
    with pytest.raises(PhysicalityError):
        _gate_physical(t, "doubled coherence")
    with pytest.raises(PhysicalityError):
        tensors.require_cp(t)


def test_band_gate_rejects_non_hermitian_band():
    dim = FockDim(4)
    block = np.ones((dim.size, dim.size))
    block[0, 1] = 1.0 + 1e-3  # E[0, 1, 0, 1] with no conjugate partner
    # no band tensor can hold it: the writer reads the lower triangle alone
    t = tensors._band_tensor(dim, [(0, block)])
    assert isinstance(t, tensors._BandTensor)
    assert np.array_equal(t.packed, tensors._band_tensor(dim, [(0, np.ones_like(block))]).packed)
    # the Hermiticity check refuses the array as a caller's tensor
    with pytest.raises(ValueError, match="not Hermitian"):
        oracles.tensor_of_elements(dim, oracles.band_tensor_reference(dim, [(0, block)]))


def test_models_gate_without_dense_choi(monkeypatch):
    # the gates read band blocks alone: no conversion of the band tensor, or
    # of any Choi matrix, to Kraus operators (no D^4 array is buildable at
    # all: test_source_layout scans for one)
    def refuse(*args):
        raise AssertionError("dense Choi matrix built for a phase-invariant map")

    monkeypatch.setattr(tensors, "_as_kraus", refuse)
    monkeypatch.setattr(tensors, "_kraus_from_choi", refuse)
    dim = FockDim(32)
    amplifier_model(AmplifierConfig(dim=dim, **_EXPERIMENTAL_AMPLIFIER))
    addition_model(AdditionConfig(dim=dim, **_EXPERIMENTAL_ADDITION))


@pytest.mark.parametrize("n_max", [62, 63])
def test_amplifier_builds_at_largest_truncations(n_max):
    kwargs = dict(gain=2.0, mu=0.11, delta=1.089, eta_m=0.9, detector="apd")
    small = amplifier_branches(AmplifierConfig(dim=FockDim(8), **kwargs))
    large = amplifier_branches(AmplifierConfig(dim=FockDim(n_max), **kwargs))
    # stored elements are exact, so they do not depend on the truncation
    for s, big in zip(small, large):
        e = oracles.entries(big)
        assert e.shape == (n_max + 1,) * 4
        assert np.max(np.abs(e[:9, :9, :9, :9] - oracles.entries(s))) < 1e-14


def test_config_validation():
    with pytest.raises(ValueError):
        AmplifierConfig(gain=2.0, reflectivity=0.2)
    with pytest.raises(ValueError):
        AmplifierConfig()
    with pytest.raises(ValueError):
        AmplifierConfig(gain=0.5)
    with pytest.raises(ValueError):
        AmplifierConfig(reflectivity=1.0)
    with pytest.raises(ValueError):
        AmplifierConfig(gain=2.0, mu=0.0)
    with pytest.raises(ValueError):
        AmplifierConfig(gain=2.0, delta=2.5)
    with pytest.raises(ValueError):
        AmplifierConfig(gain=2.0, detector="bolometer")
    with pytest.raises(ValueError):
        AmplifierConfig(dim=FockDim(1), gain=2.0)
    with pytest.raises(ValueError):
        AdditionConfig(chi=-0.1)
    with pytest.raises(ValueError):
        AdditionConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        AdditionConfig(detector="nanowire")
    cfg = AmplifierConfig(gain=2.0)
    assert abs(cfg.reflectivity - 0.2) < 1e-15
    cfg2 = AmplifierConfig(reflectivity=0.2, detector="apd")
    assert abs(cfg2.gain - 2.0) < 1e-15


@pytest.mark.parametrize("build", [
    lambda: AmplifierConfig(gain=math.nan),
    lambda: AdditionConfig(chi=math.nan),
    lambda: AdditionConfig(gamma=math.nan),
    lambda: ideal_truncated_amplifier(math.nan, FockDim(3)),
], ids=["amplifier_gain", "addition_chi", "addition_gamma", "ideal_amplifier_gain"])
def test_nan_parameters_are_refused(build):
    # each range check refuses NaN, as the checks on mu, delta and eta_m do
    with pytest.raises(ValueError, match="must"):
        build()


# the models at the top of the sweep ladder build no D^4 array

def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_addition_model_at_n_max_48_builds_no_quartic_array():
    cfg = AdditionConfig(dim=FockDim(48), **_EXPERIMENTAL_ADDITION)
    assert _traced_peak(lambda: addition_model(cfg)) < 16 * 49 ** 4 / 8


def _amplifier_peak_ratio(n_max):
    """tracemalloc peak of amplifier_model over the packed array it returns."""
    cfg = AmplifierConfig(dim=FockDim(n_max), **_EXPERIMENTAL_AMPLIFIER)
    built = []
    peak = _traced_peak(lambda: built.append(amplifier_model(cfg)))
    return peak / built[0].packed.nbytes


def test_amplifier_model_at_n_max_48_builds_no_quartic_array():
    # both branches, their sum and the CP gate's block work: no (3, 3, D, D, D)
    # intermediate and no O(D^3) splitter table beside them
    assert _amplifier_peak_ratio(48) <= 4.0
    cfg = AmplifierConfig(dim=FockDim(48), **_EXPERIMENTAL_AMPLIFIER)
    correct, faulty = amplifier_branches(cfg)
    assert isinstance(correct, tensors._BandTensor) and isinstance(faulty, tensors._BandTensor)


@pytest.mark.parametrize("n_max", [63, 100, 150])
def test_amplifier_model_peak_stays_within_four_packed_tensors(n_max, monkeypatch):
    monkeypatch.setattr(fock, "_MAX_SIZE", max(fock._MAX_SIZE, n_max + 1))
    assert _amplifier_peak_ratio(n_max) <= 4.0
