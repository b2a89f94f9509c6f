"""Process tensors and Kraus sets on truncated multi-mode Fock spaces.

A map acting on density matrices is stored as the tensor

    [E(rho)]_{l,k} = sum_{n,m} E^{n,m}_{l,k} rho_{n,m},
    E^{n,m}_{l,k} = sum_i <l|E_i|n> <m|E_i^dag|k>,

with one (l,k) index pair per output mode and one (n,m) pair per input
mode. The array layout is mode-grouped: axes run
(l_1, k_1, ..., l_Mout, k_Mout, n_1, m_1, ..., n_Min, m_Min), all of
uniform dimension D. Heralded maps stay sub-normalized; the trace of the
output is the occurrence probability of the branch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fock import DensityOperator, FockDim

__all__ = [
    "PhysicalityError",
    "KrausSet",
    "ProcessTensor",
    "ChoiMatrix",
    "tensor_from_kraus",
    "identity_tensor",
    "zero_tensor",
    "apply_tensor",
    "apply_kraus",
    "success_probability",
    "compose_serial",
    "tensor_parallel",
    "inject_ancilla",
    "project_mode",
    "trace_out",
    "choi",
    "cp_defect",
    "is_cp",
    "tni_defect",
    "is_trace_nonincreasing",
    "combine_heralding",
    "scale_tensor",
    "phase_invariance_defect",
    "hermiticity_defect",
    "state_product",
    "tensor_to_dict",
    "tensor_from_dict",
]

# dense storage cap; a full 4-mode tensor at D = 4 still fits
_MAX_ELEMENTS = 21_000_000

_HERM_TOL = 1e-12
DEFAULT_CP_TOL = 1e-9
DEFAULT_TNI_TOL = 1e-9


class PhysicalityError(ArithmeticError):
    """A map failed the complete-positivity or trace-non-increase gate."""


@dataclass(frozen=True)
class KrausSet:
    """Operators E_i mapping input_modes to output_modes, all D^M sized."""

    dim: FockDim
    operators: tuple
    input_modes: int = 1
    output_modes: int = 1

    def __post_init__(self):
        ops = tuple(np.asarray(op, dtype=complex) for op in self.operators)
        if not ops:
            raise ValueError("KrausSet needs at least one operator")
        rows = self.dim.size ** self.output_modes
        cols = self.dim.size ** self.input_modes
        for op in ops:
            if op.shape != (rows, cols):
                raise ValueError(
                    f"Kraus operator shape {op.shape} != {(rows, cols)}"
                )
        object.__setattr__(self, "operators", ops)

    def completeness_defect(self) -> float:
        """Largest eigenvalue of sum E_i^dag E_i - I; <= 0 for physical maps."""
        s = sum(op.conj().T @ op for op in self.operators)
        s = (s + s.conj().T) / 2
        w = np.linalg.eigvalsh(s)
        return float(w.max() - 1.0)


def _pair_swap_axes(out_modes: int, in_modes: int) -> tuple:
    perm = []
    for j in range(out_modes + in_modes):
        perm.extend([2 * j + 1, 2 * j])
    return tuple(perm)


@dataclass(frozen=True)
class ProcessTensor:
    dim: FockDim
    elements: np.ndarray
    input_modes: int = 1
    output_modes: int = 1

    def __post_init__(self):
        arr = np.asarray(self.elements, dtype=complex)
        d = self.dim.size
        shape = (d,) * (2 * (self.output_modes + self.input_modes))
        if arr.shape != shape:
            raise ValueError(f"elements shape {arr.shape} != {shape}")
        if arr.size > _MAX_ELEMENTS:
            raise ValueError(
                f"tensor with {arr.size} elements exceeds the dense cap "
                f"{_MAX_ELEMENTS}; reduce n_max or mode count"
            )
        # adopt a C-ordered array only if it and every array it views are
        # read-only; copy any other, so no later write can reach the tensor
        owner = arr
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        if owner is not None or not arr.flags.c_contiguous:
            arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "elements", arr)

    def hermiticity_defect(self) -> float:
        perm = _pair_swap_axes(self.output_modes, self.input_modes)
        return float(
            np.max(np.abs(self.elements - self.elements.transpose(perm).conj()))
        )


@dataclass(frozen=True)
class ChoiMatrix:
    dim: FockDim
    matrix: np.ndarray
    input_modes: int = 1
    output_modes: int = 1

    def eigenvalues(self) -> np.ndarray:
        m = self.matrix
        herm_gap = np.max(np.abs(m - m.conj().T))
        if herm_gap > 1e-8:
            raise ValueError(f"Choi matrix not Hermitian, defect {herm_gap:.3e}")
        return np.linalg.eigvalsh((m + m.conj().T) / 2)


def hermiticity_defect(t: ProcessTensor) -> float:
    return t.hermiticity_defect()


def _check_hermiticity(t: ProcessTensor, tol: float = 1e-10):
    gap = t.hermiticity_defect()
    if gap > tol:
        raise ValueError(f"tensor breaks Hermiticity symmetry by {gap:.3e}")


def tensor_from_kraus(k: KrausSet) -> ProcessTensor:
    d = k.dim.size
    ops = np.stack(k.operators)
    rows, cols = ops.shape[1:]
    # flat[l, k, n, m] = sum_i E_i[l, n] conj(E_i[k, m]), filled row by row so
    # that no second full-size array is allocated
    conj = ops.conj().reshape(len(ops), rows * cols)
    flat = np.empty((rows, rows, cols, cols), dtype=complex)
    for l in range(rows):
        flat[l] = (ops[:, l, :].T @ conj).reshape(cols, rows, cols).transpose(1, 0, 2)
    flat.flags.writeable = False
    # unflatten the D^M composite indices into per-mode axes, then interleave
    arr = flat.reshape(
        (d,) * k.output_modes + (d,) * k.output_modes
        + (d,) * k.input_modes + (d,) * k.input_modes
    )
    perm = []
    for j in range(k.output_modes):
        perm.extend([j, j + k.output_modes])
    base = 2 * k.output_modes
    for i in range(k.input_modes):
        perm.extend([base + i, base + i + k.input_modes])
    arr = arr.transpose(perm)
    return ProcessTensor(k.dim, arr, k.input_modes, k.output_modes)


def identity_tensor(dim: FockDim, modes: int = 1) -> ProcessTensor:
    d = dim.size
    eye = np.eye(d, dtype=complex)
    arr = None
    for _ in range(modes):
        blk = np.einsum("ln,km->lknm", eye, eye)
        arr = blk if arr is None else np.multiply.outer(arr, blk)
    if modes > 1:
        # outer product produced (pairs_1, pairs_2, ...) blocks of shape
        # (l,k,n,m) each; regroup to all-out then all-in pair order
        perm = []
        for j in range(modes):
            perm.extend([4 * j, 4 * j + 1])
        for j in range(modes):
            perm.extend([4 * j + 2, 4 * j + 3])
        arr = arr.transpose(perm)
    # fresh and read-only, so ProcessTensor adopts it without a copy
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return ProcessTensor(dim, arr, modes, modes)


def zero_tensor(dim: FockDim, input_modes: int = 1, output_modes: int = 1) -> ProcessTensor:
    d = dim.size
    shape = (d,) * (2 * (output_modes + input_modes))
    return ProcessTensor(dim, np.zeros(shape, dtype=complex), input_modes, output_modes)


def _tensor_subscripts(t: ProcessTensor):
    out_subs, in_subs = [], []
    for j in range(t.output_modes):
        out_subs.extend([2 * j, 2 * j + 1])
    base = 2 * t.output_modes
    for i in range(t.input_modes):
        in_subs.extend([base + 2 * i, base + 2 * i + 1])
    return out_subs, in_subs


def apply_tensor(t: ProcessTensor, rho: DensityOperator) -> DensityOperator:
    """Sub-normalized output state; its trace is the branch probability."""
    if rho.dim != t.dim or rho.modes != t.input_modes:
        raise ValueError("state does not match tensor input structure")
    d = t.dim.size
    min_ = t.input_modes
    mout = t.output_modes
    out_subs, in_subs = _tensor_subscripts(t)
    rho_arr = rho.matrix.reshape((d,) * (2 * min_))
    rho_subs = [in_subs[2 * i] for i in range(min_)] + [
        in_subs[2 * i + 1] for i in range(min_)
    ]
    res_subs = [out_subs[2 * j] for j in range(mout)] + [
        out_subs[2 * j + 1] for j in range(mout)
    ]
    out = np.einsum(t.elements, out_subs + in_subs, rho_arr, rho_subs, res_subs)
    side = d ** mout
    mat = out.reshape(side, side)
    mat = (mat + mat.conj().T) / 2
    return DensityOperator(t.dim, mat, mout)


def apply_kraus(k: KrausSet, rho: DensityOperator) -> DensityOperator:
    """Direct sum_i E_i rho E_i^dag, bypassing tensor storage.

    Preferred at large D or mode counts where the dense tensor would not
    fit; agrees with apply_tensor(tensor_from_kraus(k), rho) exactly in
    exact arithmetic.
    """
    if rho.dim != k.dim or rho.modes != k.input_modes:
        raise ValueError("state does not match Kraus input structure")
    side = k.dim.size ** k.output_modes
    acc = np.zeros((side, side), dtype=complex)
    for op in k.operators:
        acc += op @ rho.matrix @ op.conj().T
    acc = (acc + acc.conj().T) / 2
    return DensityOperator(k.dim, acc, k.output_modes)


def success_probability(t: ProcessTensor, rho: DensityOperator) -> float:
    return apply_tensor(t, rho).trace


def compose_serial(second: ProcessTensor, first: ProcessTensor) -> ProcessTensor:
    """Tensor of (second after first); contracts the intermediate pairs."""
    if first.output_modes != second.input_modes or first.dim != second.dim:
        raise ValueError("intermediate mode structure does not match")
    n_mid = 2 * second.input_modes
    s_out, s_in = _tensor_subscripts(second)
    shift = 2 * (second.output_modes + second.input_modes)
    f_out = s_in  # shared intermediate labels
    f_in = [shift + i for i in range(2 * first.input_modes)]
    res = s_out + f_in
    arr = np.einsum(
        second.elements, s_out + s_in, first.elements, f_out + f_in, res
    )
    return ProcessTensor(first.dim, arr, first.input_modes, second.output_modes)


def tensor_parallel(a: ProcessTensor, b: ProcessTensor) -> ProcessTensor:
    if a.dim != b.dim:
        raise ValueError("parallel tensors need a common FockDim")
    a_out, a_in = _tensor_subscripts(a)
    shift = len(a_out) + len(a_in)
    b_out = [shift + i for i in range(2 * b.output_modes)]
    b_in = [shift + 2 * b.output_modes + i for i in range(2 * b.input_modes)]
    res = a_out + b_out + a_in + b_in
    arr = np.einsum(a.elements, a_out + a_in, b.elements, b_out + b_in, res)
    return ProcessTensor(
        a.dim, arr, a.input_modes + b.input_modes, a.output_modes + b.output_modes
    )


def inject_ancilla(t: ProcessTensor, mode: int, state: DensityOperator) -> ProcessTensor:
    """Feed a fixed state into one input mode, removing that mode."""
    if not 0 <= mode < t.input_modes:
        raise IndexError(f"input mode {mode} out of range")
    if state.modes != 1 or state.dim != t.dim:
        raise ValueError("ancilla must be a single-mode state of matching dim")
    out_subs, in_subs = _tensor_subscripts(t)
    n_lab, m_lab = in_subs[2 * mode], in_subs[2 * mode + 1]
    res = out_subs + [s for s in in_subs if s not in (n_lab, m_lab)]
    arr = np.einsum(
        t.elements, out_subs + in_subs, state.matrix, [n_lab, m_lab], res
    )
    return ProcessTensor(t.dim, arr, t.input_modes - 1, t.output_modes)


def project_mode(t: ProcessTensor, mode: int, povm_element: np.ndarray) -> ProcessTensor:
    """Measure one output mode with a POVM element, removing that mode.

    The contraction weight for output pair (l,k) is <k|Pi|l>, i.e. the
    trace Tr[Pi |l><k|] of the POVM element against that matrix unit.
    """
    if not 0 <= mode < t.output_modes:
        raise IndexError(f"output mode {mode} out of range")
    pi = np.asarray(povm_element, dtype=complex)
    d = t.dim.size
    if pi.shape != (d, d):
        raise ValueError(f"POVM element shape {pi.shape} != {(d, d)}")
    if np.max(np.abs(pi - pi.conj().T)) > 1e-10:
        raise ValueError("POVM element must be Hermitian")
    w = np.linalg.eigvalsh((pi + pi.conj().T) / 2)
    if w.min() < -1e-10 or w.max() > 1 + 1e-9:
        raise ValueError("POVM element must satisfy 0 <= Pi <= I")
    out_subs, in_subs = _tensor_subscripts(t)
    l_lab, k_lab = out_subs[2 * mode], out_subs[2 * mode + 1]
    res = [s for s in out_subs if s not in (l_lab, k_lab)] + in_subs
    arr = np.einsum(
        t.elements, out_subs + in_subs, pi, [k_lab, l_lab], res
    )
    return ProcessTensor(t.dim, arr, t.input_modes, t.output_modes - 1)


def trace_out(t: ProcessTensor, mode: int) -> ProcessTensor:
    if not 0 <= mode < t.output_modes:
        raise IndexError(f"output mode {mode} out of range")
    out_subs, in_subs = _tensor_subscripts(t)
    l_lab, k_lab = out_subs[2 * mode], out_subs[2 * mode + 1]
    subs = list(out_subs)
    subs[2 * mode + 1] = l_lab  # tie k to l: sum over the diagonal
    res = [s for s in out_subs if s not in (l_lab, k_lab)] + in_subs
    arr = np.einsum(t.elements, subs + in_subs, res)
    return ProcessTensor(t.dim, arr, t.input_modes, t.output_modes - 1)


def choi(t: ProcessTensor) -> ChoiMatrix:
    """C_{(l,n),(k,m)} = E^{n,m}_{l,k}, modes flattened in layout order."""
    d = t.dim.size
    mo, mi = t.output_modes, t.input_modes
    out_subs, in_subs = _tensor_subscripts(t)
    ls = [out_subs[2 * j] for j in range(mo)]
    ks = [out_subs[2 * j + 1] for j in range(mo)]
    ns = [in_subs[2 * i] for i in range(mi)]
    ms = [in_subs[2 * i + 1] for i in range(mi)]
    arr = np.einsum(t.elements, out_subs + in_subs, ls + ns + ks + ms)
    side = d ** mo * d ** mi
    return ChoiMatrix(t.dim, arr.reshape(side, side), mi, mo)


def _band_blocks(t: ProcessTensor):
    """Choi blocks C_s[n, m] = E[n+s, m+s, n, m], s = -(D-1) .. D-1.

    For a single-mode tensor that obeys l - k = n - m exactly, the Choi
    matrix is the direct sum of these blocks up to a permutation.
    """
    d = t.dim.size
    for s in range(1 - d, d):
        n = np.arange(max(0, -s), d - max(0, s))
        yield t.elements[(n + s)[:, None], (n + s)[None, :], n[:, None], n[None, :]]


def cp_defect(t: ProcessTensor) -> float:
    """Most negative Choi eigenvalue (0 if spectrum is non-negative).

    Exactly phase-invariant single-mode tensors take the minimum over the
    2D - 1 band blocks; every other tensor runs one dense eigh.
    """
    if t.input_modes == t.output_modes == 1 and phase_invariance_defect(t) == 0.0:
        low = 0.0
        for blk in _band_blocks(t):
            low = min(low, ChoiMatrix(t.dim, blk).eigenvalues().min())
        return float(low)
    w = choi(t).eigenvalues()
    return float(min(w.min(), 0.0))


def is_cp(t: ProcessTensor, tol: float = DEFAULT_CP_TOL) -> bool:
    return cp_defect(t) >= -tol


def _tni_matrix(t: ProcessTensor) -> np.ndarray:
    """S_{n,m} = sum_l E^{n,m}_{l,l}; equals (sum_i E_i^dag E_i)^T."""
    no_out = trace_out(t, 0)
    while no_out.output_modes:
        no_out = trace_out(no_out, 0)
    d = t.dim.size
    side = d ** t.input_modes
    _, in_subs = _tensor_subscripts(no_out)
    mi = no_out.input_modes
    ns = [in_subs[2 * i] for i in range(mi)]
    ms = [in_subs[2 * i + 1] for i in range(mi)]
    arr = np.einsum(no_out.elements, in_subs, ns + ms)
    return arr.reshape(side, side)


def tni_defect(t: ProcessTensor) -> float:
    """Largest eigenvalue of S - I; <= 0 means trace non-increasing."""
    s = _tni_matrix(t)
    gap = np.max(np.abs(s - s.conj().T))
    if gap > 1e-8:
        raise ValueError(f"trace form not Hermitian, defect {gap:.3e}")
    w = np.linalg.eigvalsh((s + s.conj().T) / 2)
    return float(w.max() - 1.0)


def is_trace_nonincreasing(t: ProcessTensor, tol: float = DEFAULT_TNI_TOL) -> bool:
    return tni_defect(t) <= tol


def combine_heralding(f1: ProcessTensor, f2: ProcessTensor) -> ProcessTensor:
    """Sum of exclusive heralded branches; probabilities add exactly."""
    if (f1.dim, f1.input_modes, f1.output_modes) != (
        f2.dim, f2.input_modes, f2.output_modes,
    ):
        raise ValueError("branch tensors must share mode structure")
    total = f1.elements + f2.elements
    total.flags.writeable = False
    return ProcessTensor(f1.dim, total, f1.input_modes, f1.output_modes)


def scale_tensor(t: ProcessTensor, c: float) -> ProcessTensor:
    scaled = c * t.elements
    scaled.flags.writeable = False
    return ProcessTensor(t.dim, scaled, t.input_modes, t.output_modes)


def phase_invariance_defect(t: ProcessTensor) -> float:
    """Max |element| outside the selection rule sum(l-k) = sum(n-m)."""
    d = t.dim.size
    mo, mi = t.output_modes, t.input_modes
    # int16 offsets and a boolean mask; |element| is taken one leading
    # slice at a time, so no full-size float array is built
    idx = np.arange(d, dtype=np.int16)
    total = np.zeros((1,) * (2 * (mo + mi)), dtype=np.int16)
    shape_len = 2 * (mo + mi)
    for j in range(mo):
        sl = [None] * shape_len
        sl[2 * j] = slice(None)
        total = total + idx[tuple(sl)]
        sl = [None] * shape_len
        sl[2 * j + 1] = slice(None)
        total = total - idx[tuple(sl)]
    for i in range(mi):
        sl = [None] * shape_len
        sl[2 * mo + 2 * i] = slice(None)
        total = total - idx[tuple(sl)]
        sl = [None] * shape_len
        sl[2 * mo + 2 * i + 1] = slice(None)
        total = total + idx[tuple(sl)]
    violating = total != 0
    if not violating.any():
        return 0.0
    return max(float(np.max(np.abs(e), where=v, initial=0.0))
               for e, v in zip(t.elements, violating))


def state_product(*states: DensityOperator) -> DensityOperator:
    """Kronecker product of states, mode-major index order."""
    if not states:
        raise ValueError("need at least one state")
    dim = states[0].dim
    mat = states[0].matrix
    modes = states[0].modes
    for s in states[1:]:
        if s.dim != dim:
            raise ValueError("all factors need the same FockDim")
        mat = np.kron(mat, s.matrix)
        modes += s.modes
    return DensityOperator(dim, mat, modes)


def tensor_to_dict(t: ProcessTensor) -> dict:
    """JSON-ready dict; elements flattened row-major over the layout axes."""
    flat = t.elements.ravel()
    return {
        "n_max": t.dim.n_max,
        "input_modes": t.input_modes,
        "output_modes": t.output_modes,
        "elements_re": flat.real.tolist(),
        "elements_im": flat.imag.tolist(),
    }


def tensor_from_dict(data: dict) -> ProcessTensor:
    dim = FockDim(int(data["n_max"]))
    mi = int(data["input_modes"])
    mo = int(data["output_modes"])
    d = dim.size
    shape = (d,) * (2 * (mo + mi))
    flat = np.asarray(data["elements_re"], dtype=float) + 1j * np.asarray(
        data["elements_im"], dtype=float
    )
    t = ProcessTensor(dim, flat.reshape(shape), mi, mo)
    _check_hermiticity(t)  # reject corrupted exports early
    return t
