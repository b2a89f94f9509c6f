import tracemalloc

import numpy as np
import pytest

from conftest import random_pure_state
from cvmaps.fock import DensityOperator, FockDim, coherent_state, fock_state
from cvmaps.tensors import (
    KrausSet,
    ProcessTensor,
    apply_kraus,
    apply_tensor,
    choi,
    combine_heralding,
    compose_serial,
    cp_defect,
    hermiticity_defect,
    identity_tensor,
    inject_ancilla,
    is_cp,
    is_trace_nonincreasing,
    phase_invariance_defect,
    project_mode,
    scale_tensor,
    state_product,
    success_probability,
    tensor_from_dict,
    tensor_from_kraus,
    tensor_parallel,
    tensor_to_dict,
    tni_defect,
    trace_out,
    zero_tensor,
)

DIM = FockDim(5)


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
    assert np.max(np.abs(t.elements - ref)) < 1e-14
    assert hermiticity_defect(t) == 0.0


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
    z = zero_tensor(DIM)
    assert success_probability(z, rho) == 0.0


def test_compose_serial_matches_operator_product(rng):
    k1 = random_kraus(rng, DIM, count=2)
    k2 = random_kraus(rng, DIM, count=2)
    t = compose_serial(tensor_from_kraus(k2), tensor_from_kraus(k1))
    prods = [b @ a for b in k2.operators for a in k1.operators]
    ref = tensor_from_kraus(KrausSet(DIM, prods))
    assert np.max(np.abs(t.elements - ref.elements)) < 1e-13


def test_compose_serial_associative(rng):
    ts = [tensor_from_kraus(random_kraus(rng, FockDim(3), count=2))
          for _ in range(3)]
    left = compose_serial(compose_serial(ts[2], ts[1]), ts[0])
    right = compose_serial(ts[2], compose_serial(ts[1], ts[0]))
    assert np.max(np.abs(left.elements - right.elements)) < 1e-13


def test_choi_spectrum_flags_non_cp():
    d = DIM.size
    # transpose map: Hermiticity-symmetric but famously not CP
    arr = np.zeros((d, d, d, d), dtype=complex)
    for l in range(d):
        for k in range(d):
            arr[l, k, k, l] = 1.0
    t = ProcessTensor(DIM, arr)
    assert hermiticity_defect(t) == 0.0
    assert cp_defect(t) < -0.9
    assert not is_cp(t)
    ok = tensor_from_kraus(KrausSet(DIM, [np.eye(d) * 0.7]))
    assert is_cp(ok)
    assert cp_defect(ok) > -1e-12


def test_choi_matches_elements(rng):
    t = tensor_from_kraus(random_kraus(rng, FockDim(2)))
    c = choi(t)
    d = 3
    for l in range(d):
        for k in range(d):
            for n in range(d):
                for m in range(d):
                    assert c.matrix[l * d + n, k * d + m] == t.elements[l, k, n, m]


def test_trace_nonincreasing_detection():
    d = DIM.size
    ok = tensor_from_kraus(KrausSet(DIM, [0.9 * np.eye(d)]))
    assert is_trace_nonincreasing(ok)
    bad = tensor_from_kraus(KrausSet(DIM, [1.1 * np.eye(d)]))
    assert not is_trace_nonincreasing(bad)
    assert abs(tni_defect(bad) - 0.21) < 1e-12


def test_kraus_completeness_defect():
    from cvmaps.elements import attenuation_kraus

    k = KrausSet(DIM, attenuation_kraus(0.37, DIM))
    assert abs(k.completeness_defect()) < 1e-14
    half = KrausSet(DIM, [np.eye(DIM.size) / np.sqrt(2.0)])
    assert abs(half.completeness_defect() + 0.5) < 1e-14


def test_phase_invariance_defect():
    t = identity_tensor(DIM)
    assert phase_invariance_defect(t) == 0.0
    arr = np.array(t.elements)
    arr[1, 0, 0, 0] = 0.25  # breaks sum(l - k) = sum(n - m)
    arr[0, 1, 0, 0] = 0.25
    broken = ProcessTensor(DIM, arr)
    assert abs(phase_invariance_defect(broken) - 0.25) < 1e-15
    from cvmaps.fock import displacement_matrix

    disp = tensor_from_kraus(KrausSet(DIM, [displacement_matrix(0.3, DIM)]))
    assert phase_invariance_defect(disp) > 1e-3


def test_combine_and_scale(rng):
    a = tensor_from_kraus(random_kraus(rng, DIM, count=1, scale=0.3))
    b = tensor_from_kraus(random_kraus(rng, DIM, count=1, scale=0.3))
    both = combine_heralding(a, b)
    rho = fock_state(1, DIM)
    pa = success_probability(a, rho)
    pb = success_probability(b, rho)
    assert abs(success_probability(both, rho) - (pa + pb)) < 1e-14
    assert abs(success_probability(scale_tensor(a, 0.5), rho) - 0.5 * pa) < 1e-15


def test_two_mode_structure(rng):
    dim = FockDim(2)
    a = tensor_from_kraus(random_kraus(rng, dim, count=1))
    b = identity_tensor(dim)
    two = tensor_parallel(a, b)
    assert two.input_modes == 2 and two.output_modes == 2
    psi = random_pure_state(rng, dim.size)
    rho1 = DensityOperator(dim, np.outer(psi, psi.conj()))
    rho2 = fock_state(1, dim)
    prod = state_product(rho1, rho2)
    out = apply_tensor(two, prod)
    # mode 2 untouched: tracing it out equals applying a to mode 1 alone
    kept = apply_tensor(trace_out(two, 1), prod)
    ref = apply_tensor(a, rho1)
    assert np.max(np.abs(kept.matrix - ref.matrix)) < 1e-13
    assert abs(out.trace - ref.trace) < 1e-13


def test_inject_and_project(rng):
    dim = FockDim(2)
    d = dim.size
    a = tensor_from_kraus(random_kraus(rng, dim, count=2))
    b = tensor_from_kraus(random_kraus(rng, dim, count=2))
    two = tensor_parallel(a, b)
    anc = fock_state(1, dim)
    pi = np.diag([1.0, 0.0, 0.0]).astype(complex)
    reduced = project_mode(inject_ancilla(two, 1, anc), 1, pi)
    assert reduced.input_modes == 1 and reduced.output_modes == 1
    # factorized reference: mode 2 runs independently through b
    w2 = apply_tensor(b, anc).matrix[0, 0].real
    psi = random_pure_state(rng, d)
    rho = DensityOperator(dim, np.outer(psi, psi.conj()))
    ref = w2 * apply_tensor(a, rho).matrix
    got = apply_tensor(reduced, rho).matrix
    assert np.max(np.abs(got - ref)) < 1e-13
    with pytest.raises(ValueError):
        project_mode(two, 0, np.diag([2.0, 0.0, 0.0]))
    with pytest.raises(IndexError):
        trace_out(a, 1)


def test_dict_round_trip(rng):
    t = tensor_from_kraus(random_kraus(rng, FockDim(3)))
    back = tensor_from_dict(tensor_to_dict(t))
    assert back.dim == t.dim
    assert np.array_equal(back.elements, t.elements)


def test_hermiticity_gate():
    d = DIM.size
    arr = np.zeros((d, d, d, d), dtype=complex)
    arr[0, 1, 0, 0] = 1.0  # no conjugate partner
    t = ProcessTensor(DIM, arr)
    assert t.hermiticity_defect() == 1.0
    # loading a corrupted export trips the symmetry gate
    blob = tensor_to_dict(t)
    with pytest.raises(ValueError):
        tensor_from_dict(blob)


def test_tensor_from_kraus_two_mode_matches_plain_einsum(rng):
    dim = FockDim(2)
    d = dim.size
    ops = [rng.standard_normal((d * d, d * d))
           + 1j * rng.standard_normal((d * d, d * d)) for _ in range(4)]
    t = tensor_from_kraus(KrausSet(dim, ops, 2, 2))
    stacked = np.stack(ops)
    flat = np.einsum("iln,ikm->lknm", stacked, stacked.conj())
    # (l1, l2, k1, k2, n1, n2, m1, m2) -> per-mode pairs (l1, k1, l2, k2, ...)
    ref = flat.reshape((d,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    assert np.max(np.abs(t.elements - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_process_tensor_copies_arrays_the_caller_can_write():
    d = DIM.size
    arr = np.zeros((d,) * 4, dtype=complex)
    arr[0, 0, 0, 0] = 1.0
    t = ProcessTensor(DIM, arr)
    view = arr.view()
    view.flags.writeable = False
    t_view = ProcessTensor(DIM, view)
    arr[0, 0, 0, 0] = 5.0
    assert t.elements[0, 0, 0, 0] == 1.0 and t_view.elements[0, 0, 0, 0] == 1.0
    for tensor in (t, t_view):
        assert not tensor.elements.flags.writeable
        with pytest.raises(ValueError):
            tensor.elements[0, 0, 0, 0] = 2.0
    arr.flags.writeable = False
    assert ProcessTensor(DIM, arr).elements is arr


def test_tensor_from_kraus_keeps_one_copy(rng):
    dim = FockDim(29)
    kraus = random_kraus(rng, dim, count=4)
    tracemalloc.start()
    try:
        t = tensor_from_kraus(kraus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * t.elements.nbytes
    assert not t.elements.flags.writeable and t.elements.flags.c_contiguous


def _traced_peak(build):
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_fresh_tensors_are_adopted_without_a_copy(rng):
    dim = FockDim(29)
    t = tensor_from_kraus(random_kraus(rng, dim))
    for build in (lambda: identity_tensor(dim), lambda: scale_tensor(t, 0.5),
                  lambda: combine_heralding(t, t)):
        out, peak = _traced_peak(build)
        assert peak < 1.5 * t.elements.nbytes
        assert not out.elements.flags.writeable and out.elements.flags.c_contiguous


def test_band_defect_matches_dense_eigh_on_indefinite_maps(rng):
    # random Hermitian Choi matrices obeying l - n = k - m, mostly indefinite
    dim = FockDim(5)
    d = dim.size
    l, n = np.divmod(np.arange(d * d), d)  # Choi row (l, n)
    keep = (l - n)[:, None] == (l - n)[None, :]
    for _ in range(6):
        c = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        c = np.where(keep, c + c.conj().T, 0.0)
        t = ProcessTensor(dim, c.reshape(d, d, d, d).transpose(0, 2, 1, 3))
        assert phase_invariance_defect(t) == 0.0
        ref = min(np.linalg.eigvalsh(c).min(), 0.0)
        assert ref < 0.0
        assert abs(cp_defect(t) - ref) < 1e-12
