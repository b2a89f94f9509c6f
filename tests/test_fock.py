import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cvmaps.fock import (
    DensityOperator,
    FockDim,
    _squeeze_amplitudes,
    annihilation,
    coherent_state,
    coherent_vector,
    creation,
    displacement_matrix,
    fidelity,
    fock_state,
    fock_vector,
    normalize,
    squeeze_matrix,
    thermal_state,
)


def test_dim_bounds():
    assert FockDim(15).size == 16
    with pytest.raises(ValueError):
        FockDim(0)
    with pytest.raises(ValueError):
        FockDim(64)
    with pytest.raises(TypeError):
        FockDim(2.5)


def test_ladder_algebra():
    dim = FockDim(9)
    a = annihilation(dim)
    ad = creation(dim)
    n = np.diag(np.arange(dim.size))
    assert np.max(np.abs(ad @ a - n)) < 1e-14
    # the truncated commutator is the identity except in the last level
    comm = a @ ad - ad @ a
    expect = np.eye(dim.size, dtype=complex)
    expect[-1, -1] = -dim.n_max
    assert np.max(np.abs(comm - expect)) < 1e-14


def test_density_operator_validation():
    dim = FockDim(3)
    with pytest.raises(ValueError):
        DensityOperator(dim, np.eye(3))
    herm_bad = np.eye(4, dtype=complex)
    herm_bad[0, 1] = 1e-3
    with pytest.raises(ValueError):
        DensityOperator(dim, herm_bad)
    rho = fock_state(1, dim)
    assert rho.trace == 1.0
    assert not rho.matrix.flags.writeable


def test_coherent_amplitudes_match_series():
    dim = FockDim(20)
    alpha = 0.7 - 0.3j
    v = coherent_vector(alpha, dim)
    ref = oracles.coherent_amplitudes(alpha, dim.size)
    assert np.max(np.abs(v - ref)) < 1e-15
    # amplitudes are exact, not renormalized over the cut space; at a
    # harsh cut the missing tail is visible in the norm
    short = coherent_vector(1.0, FockDim(3))
    tail = 1.0 - math.exp(-1.0) * sum(1.0 / math.factorial(k) for k in range(4))
    assert abs(np.vdot(short, short).real - (1.0 - tail)) < 1e-15
    assert np.vdot(short, short).real < 1.0 - 1e-3


def test_displacement_matches_coherent_column():
    dim = FockDim(25)
    alpha = 0.5 + 0.2j
    d = displacement_matrix(alpha, dim)
    assert np.max(np.abs(d[:, 0] - coherent_vector(alpha, dim))) < 1e-15


def test_displacement_unitary_on_kept_block():
    # D(a) D(-a) = I holds exactly on entries unaffected by the cutoff
    dim = FockDim(30)
    alpha = 0.4 - 0.6j
    prod = displacement_matrix(alpha, dim) @ displacement_matrix(-alpha, dim)
    assert np.max(np.abs(prod[:10, :10] - np.eye(dim.size)[:10, :10])) < 1e-12


def _displacement_error(alpha: complex) -> dict:
    """Largest amplitude error of displacement_matrix at n_max 20, 40 and 63
    against expm on a padded space, once that space has converged."""
    mag = abs(alpha)
    levels = 64 + 60 + int(10 * mag * mag + 20 * mag)
    ref = oracles.displacement_reference(alpha, levels)
    wider = oracles.displacement_reference(alpha, levels + 40)
    assert np.max(np.abs(ref[:64, :64] - wider[:64, :64])) <= 2e-15  # converged
    return {n_max: np.max(np.abs(displacement_matrix(alpha, FockDim(n_max))
                                 - ref[:n_max + 1, :n_max + 1]))
            for n_max in (20, 40, 63)}


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(mag=st.floats(0.5, 5.0), phase=st.floats(0.0, 2.0 * math.pi))
def test_displacement_matches_padded_expm_property(mag, phase):
    # the nilpotent product it replaces erred by 1.4e-8 at n_max 40 and
    # alpha 2, and by 1.0e7 at n_max 63 and alpha 5; a scan of this range
    # reads at most 7.1e-15
    errors = _displacement_error(mag * complex(math.cos(phase), math.sin(phase)))
    assert max(errors.values()) <= 2e-14, errors


@pytest.mark.parametrize("mag", [1e-4, 0.01, 0.1, 0.3])
def test_displacement_near_the_origin_keeps_the_recurrence_accuracy(mag):
    # at small xi = |alpha|^2 the upward Laguerre recurrence gathers error
    # with k: <63|D|63> errs by 7.6e-14 at |alpha| 0.01, and a scan of
    # |alpha| below 0.5 reads at most 9.9e-14 (the Wigner rows share it)
    errors = _displacement_error(mag * complex(math.cos(0.7), math.sin(0.7)))
    assert max(errors.values()) <= 2e-13, errors
    assert errors[20] <= 2e-14, errors


def test_displacement_refuses_an_overflowing_amplitude():
    with pytest.raises(ValueError, match="amplitude"):
        displacement_matrix(1e300, FockDim(5))
    # past |alpha| ~ 38 the envelope underflows: every amplitude is 0, not NaN
    assert not displacement_matrix(1e100j, FockDim(63)).any()


def test_squeeze_matches_series():
    dim = FockDim(30)
    r = 0.4
    s = squeeze_matrix(r, dim)
    ref = oracles.squeezed_coherent_amplitudes(r, 0.0, dim.size)
    assert np.max(np.abs(s[:, 0] - ref)) < 1e-14
    # squeezed coherent state through the same matrix route
    alpha = 0.3 + 0.1j
    col = s @ coherent_vector(alpha, dim)
    ref2 = oracles.squeezed_coherent_amplitudes(r, alpha, dim.size)
    assert np.max(np.abs(col[:20] - ref2[:20])) < 1e-10


@settings(derandomize=True, database=None, max_examples=13, deadline=None)
@given(r=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_squeeze_amplitudes_match_the_decimal_sum_property(r, seed):
    # the product of two nilpotent series it replaces erred by 3e-9 at size 64
    # on such entries; sizes past the n_max cap go through the size argument
    rng = np.random.default_rng(seed)
    for size in (21, 64, 151):
        amps = _squeeze_amplitudes(r, size)
        m, n = rng.integers(size, size=(2, 40))
        n = np.abs(n - (m - n) % 2)  # one down, or up from 0, to the parity S keeps
        errors = [abs(amps[i, j] - oracles.squeeze_reference(r, i, j)) for i, j in zip(m, n)]
        assert max(errors) <= 2e-14, (size, max(errors))


def test_thermal_diagonal():
    dim = FockDim(40)
    mean_n = 0.5
    rho = thermal_state(mean_n, dim)
    ref = oracles.thermal_diagonal(mean_n, dim.size)
    # package renormalizes over the truncated space; at n_max = 40 the
    # missing tail of a mean-0.5 distribution is ~ 1e-20
    assert np.max(np.abs(rho.diagonal() - ref)) < 1e-15
    assert abs(rho.trace - 1.0) < 1e-14
    assert thermal_state(0.0, dim).diagonal()[0] == 1.0


def test_normalize_and_validate():
    dim = FockDim(3)
    rho = DensityOperator(dim, 0.25 * np.eye(4))
    out = normalize(rho)
    assert abs(out.trace - 1.0) < 1e-15
    with pytest.raises(ValueError):
        normalize(DensityOperator(dim, np.zeros((4, 4))))


def test_fidelity_frozen_values():
    dim = FockDim(40)
    vac = fock_state(0, dim)
    th = thermal_state(0.5, dim)
    assert abs(fidelity(vac, th) - oracles.VACUUM_THERMAL_HALF_FIDELITY) < 1e-12
    assert abs(fidelity(vac, vac) - 1.0) < 1e-14
    assert fidelity(vac, fock_state(1, dim)) < 1e-30


def test_fidelity_mixed_pair(rng):
    # mixed-mixed route against the pure shortcut on a commuting pair
    dim = FockDim(5)
    p = np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0])
    q = np.array([0.4, 0.4, 0.1, 0.1, 0.0, 0.0])
    a = DensityOperator(dim, np.diag(p).astype(complex))
    b = DensityOperator(dim, np.diag(q).astype(complex))
    expect = float(np.sum(np.sqrt(p * q))) ** 2
    assert abs(fidelity(a, b) - expect) < 1e-10
    with pytest.raises(ValueError):
        fidelity(a, DensityOperator(dim, 0.5 * np.diag(q).astype(complex)))


def test_fock_vector_bounds():
    dim = FockDim(4)
    assert fock_vector(4, dim)[4] == 1.0
    with pytest.raises(ValueError):
        fock_vector(5, dim)
    with pytest.raises(ValueError):
        fock_vector(-1, dim)


def test_coherent_state_purity():
    dim = FockDim(25)
    rho = coherent_state(0.6, dim).matrix
    assert np.max(np.abs(rho @ rho / np.trace(rho).real - rho)) < 1e-12
