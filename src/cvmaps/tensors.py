"""Single-mode process tensors, and Kraus sets on truncated Fock spaces.

A map acting on single-mode density matrices is the tensor

    [E(rho)]_{l,k} = sum_{n,m} E^{n,m}_{l,k} rho_{n,m},
    E^{n,m}_{l,k} = sum_i w_i <l|E_i|n> <m|E_i^dag|k>,

with axes (l, k, n, m), each of dimension D, and real weights w_i. Heralded
maps stay sub-normalized; the trace of the output is the occurrence
probability of the branch.

A tensor has one of two layouts, neither holding the D^4 array, and every
code path follows the layout. An exactly phase-invariant map is kept as its
coherence blocks M_q alone, q = l - k = n - m = 0 .. D - 1, packed into one
read-only array of sum_{q>=0} (D - q)^2 entries (1.43 MB instead of 268 MB at
D = 64). Every other map is kept as read-only operators ``ops`` (r, D, D)
and real ``weights`` (r,), E(X) = sum_i w_i E_i X E_i^dag; signed weights
keep scaling by c < 0, sums and maps that are not CP. Shift blocks are
written by _band_tensor alone (else band storage comes only from the band
algebra) and read by _choi_blocks alone, and _kraus_from_choi alone turns
Choi eigenpairs into operators, for a band operand of a Kraus operation.
No array of entries is a way in: a Kraus tensor is ProcessTensor(dim, ops,
weights) of its own fields, checked for shape and real finite weights.
Every tensor keeps Hermiticity, E(X^dag) = E(X)^dag: Kraus weights are
real, and band storage holds M_0 real and no M_{-q} = conj(M_q), so each
Choi block read from it is exactly Hermitian; scale_tensor takes only a real
finite c. So every tensor is a real D^2 x D^2 transfer matrix R on the real
coordinates of Hermitian operators (fock._coordinates), block diagonal over
the orders q >= 0 for a band tensor, R_q = [[A, B], [-B, A]] from M_q = A + iB,
and its sampled transfer function is real.

Only this module reads or writes a tensor's entries or decides phase
symmetry. Other modules use tensor_diagonal, success_probability, the writer
_band_tensor, the gate require_phase_invariant, which returns a band tensor,
and the one product with R, _block_product, behind apply_tensor and every
kernel; the real blocks R_q of a band tensor are read through
_coherence_blocks alone. The diagnostic
phase_invariance_defect chooses no path: a band tensor's is 0 with no scan,
and a Kraus tensor's is scanned on each call, one output row E[l] at a time.

A KrausSet may act on several modes (the two-mode catalog elements go
through apply_kraus); only a single-mode one converts to a tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import DensityOperator, FockDim, _coordinates, _hermitian, _order_rows

__all__ = [
    "PhysicalityError",
    "PhaseSymmetryError",
    "KrausSet",
    "ProcessTensor",
    "tensor_from_kraus",
    "identity_tensor",
    "apply_tensor",
    "apply_kraus",
    "success_probability",
    "tensor_diagonal",
    "compose_serial",
    "cp_defect",
    "require_cp",
    "tni_defect",
    "require_tni",
    "require_phase_invariant",
    "combine_heralding",
    "scale_tensor",
    "phase_invariance_defect",
]

DEFAULT_CP_TOL = 1e-9
DEFAULT_TNI_TOL = 1e-9


class PhysicalityError(ArithmeticError):
    """A map failed the complete-positivity or trace-non-increase gate."""


class PhaseSymmetryError(ValueError):
    """A map failed the phase-invariance gate."""


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


@dataclass(frozen=True, eq=False, repr=False)
class ProcessTensor:
    """Single-mode map E^{n,m}_{l,k} = sum_i weights[i] ops[i] X ops[i]^dag, kept as
    ops (r, D, D), r >= 1, and real finite weights (r,), read-only through _adopt."""

    dim: FockDim
    ops: np.ndarray
    weights: np.ndarray

    input_modes = 1
    output_modes = 1

    def __post_init__(self):
        ops, w = np.asarray(self.ops), np.asarray(self.weights)
        if (ops.ndim != 3 or not len(ops) or ops.shape[1:] != (self.dim.size,) * 2
                or w.shape != (len(ops),) or np.iscomplexobj(w) or not np.isfinite(w).all()):
            raise ValueError(f"Kraus ops {ops.shape} and weights {w.shape} {w.dtype} are not "
                             "(r, D, D), r >= 1, and r real finite numbers")
        object.__setattr__(self, "ops", _adopt(ops))
        object.__setattr__(self, "weights", _adopt(w.astype(float, copy=False)))


class _BandTensor(ProcessTensor):
    """An exactly phase-invariant map, kept as its coherence blocks alone:
    ``packed`` holds M_q for q = 0 .. D - 1 back to back, each in C order
    (_packed_block), M_0 real; M_{-q} = conj(M_q) is not stored."""

    def __init__(self, dim: FockDim, packed: np.ndarray):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "packed", _frozen(packed))


def _adopt(arr: np.ndarray) -> np.ndarray:
    """arr if it is C-ordered and read-only down to its owner, else a read-only copy."""
    owner = arr
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if owner is not None or not arr.flags.c_contiguous:
        arr = _frozen(arr.copy())
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A newly computed array made read-only, so _adopt keeps it without a copy."""
    arr.flags.writeable = False
    return arr


def _hermitian_eigh(c: np.ndarray, vectors: bool = False, name: str = "Choi matrix"):
    """The eigenvalues of c, or with vectors its eigenpairs (w, v[:, i]) above
    the eigh's rounding len(c) eps max |w|; ValueError when c is not Hermitian."""
    gap = np.max(np.abs(c - c.conj().T))
    if gap > 1e-8:
        raise ValueError(f"{name} not Hermitian, defect {gap:.3e}")
    c = (c + c.conj().T) / 2
    if not vectors:
        return np.linalg.eigvalsh(c)
    w, v = np.linalg.eigh(c)
    keep = np.abs(w) > len(c) * np.finfo(float).eps * np.abs(w).max()
    return w[keep], v[:, keep]


def _shift_rows(d: int, s: int):
    """(l, n) = (n_i + s, n_i), n_i = max(0, -s) + i: the Choi rows of the shift-s block."""
    n = np.arange(max(0, -s), d - max(0, s))
    return n + s, n


@lru_cache(maxsize=None)
def _block_offsets(d: int) -> np.ndarray:
    """Start of each M_q, q = 0 .. D - 1, in a band tensor's packed array; its length last."""
    return _frozen(np.concatenate(([0], np.cumsum(np.arange(d, 0, -1) ** 2))))


def _packed_block(packed: np.ndarray, d: int, q: int) -> np.ndarray:
    """M_q, q >= 0, of a packed array as a C-ordered view: M_q[i, j] = E[i + q, i, j + q, j]."""
    off = _block_offsets(d)
    return packed[off[q]:off[q + 1]].reshape(d - q, d - q)


def _shift_index(d: int, s: int, k: int = None) -> np.ndarray:
    """Where C_s[i, j] = E[n_i + s, n_j + s, n_i, n_j] lies in a band tensor's packed array
    (with k, its leading k x k corner): (i, j) and (j, i) share M_q[n_j + s, n_j],
    q = n_i - n_j >= 0 for i >= j, since C_s[j, i] = conj(C_s[i, j])."""
    n = _shift_rows(d, s)[1][:k]
    low = np.minimum.outer(n, n)
    q = np.abs(np.subtract.outer(n, n))
    return _block_offsets(d)[q] + (low + s) * (d - q) + low


def _band_tensor(dim: FockDim, bands) -> ProcessTensor:
    """The phase-invariant tensor whose Choi block at shift s is the sum of
    the blocks B_s that bands gives for s, added in order.

    The only writer of shift blocks: a k x k Hermitian block B_s is the leading
    corner of its shift block, B_s[i, j], i >= j, adds to E[n_i + s, n_j + s, n_i,
    n_j] with n_i = max(0, -s) + i, and every other entry is 0 or a conjugate;
    M_0, which holds the blocks' diagonals, keeps its real part alone.
    """
    d = dim.size
    packed = np.zeros(_block_offsets(d)[-1], dtype=complex)
    for s, block in bands:
        low = np.tri(len(block), dtype=bool)
        packed[_shift_index(d, s, len(block))[low]] += block[low]
    _packed_block(packed, d, 0).imag = 0.0
    return _BandTensor(dim, packed)


def _choi_blocks(t: _BandTensor):
    """(_shift_rows(d, s), C_s) per shift s: a band tensor's Choi block C_s[i, j] =
    E[n_i + s, n_j + s, n_i, n_j], gathered from its coherence blocks, its strict
    upper triangle conjugated in place, so that C_s is exactly Hermitian."""
    d = t.dim.size
    for s in range(1 - d, d):
        block = t.packed[_shift_index(d, s)]
        yield _shift_rows(d, s), np.conjugate(block, out=block,
                                              where=~np.tri(len(block), dtype=bool))


def _kraus_from_choi(dim: FockDim, blocks) -> ProcessTensor:
    """The Kraus tensor of Hermitian Choi blocks given with their rows (l, n): each
    eigenpair (w, v) of a block is the operator E_v[l, n] = v, of weight w."""
    pairs = [(_hermitian_eigh(block, True), rows) for rows, block in blocks]
    weights = np.concatenate([w for (w, _), _ in pairs])
    weights = weights if weights.size else np.zeros(1)  # the zero map: one zero operator
    ops = np.zeros((len(weights), dim.size, dim.size), dtype=complex)
    start = 0
    for (w, v), (l, n) in pairs:
        ops[start:start + len(w), l, n] = v.T
        start += len(w)
    return ProcessTensor(dim, _frozen(ops), _frozen(weights))


def _as_kraus(t: ProcessTensor) -> ProcessTensor:
    """t in the Kraus layout: a band tensor's Choi blocks through _kraus_from_choi."""
    if not isinstance(t, _BandTensor):
        return t
    return _kraus_from_choi(t.dim, _choi_blocks(t))


def _kraus_slices(t: ProcessTensor):
    """A Kraus tensor's rows E[l] = sum_i (E_i[l, n] conj(E_i[k, m])) w_i, one (k, n, m)
    array at a time; w last keeps E[k, l, m, n] exactly conj(E[l, k, n, m])."""
    conj = t.ops.conj()
    for l in range(t.dim.size):
        yield np.einsum("in,ikm,i->knm", t.ops[:, l], conj, t.weights)


def _coherence_blocks(t: _BandTensor):
    """(q, rows, R_q) per coherence order q >= 0: the slice of the real coordinates
    (fock._order_rows) that holds order q, and the real block R_q that acts on
    it, R_0 = M_0 and R_q = [[A, B], [-B, A]] for M_q = A + iB. The orders
    -q enter through M_{-q} = conj(M_q), which is not stored."""
    d = t.dim.size
    for q, rows in _order_rows(d):
        block = _packed_block(t.packed, d, q)
        a, b = block.real, block.imag
        yield q, rows, (a if q == 0 else np.concatenate((np.concatenate((a, b), 1),
                                                          np.concatenate((-b, a), 1))))


def _block_product(t: ProcessTensor, x: np.ndarray, left: bool = False) -> np.ndarray:
    """R x, or x R when left, for real x with D^2 rows (D^2 columns when left)
    of real coordinates (fock._coordinates); R is the map's real transfer matrix.

    A band tensor's R is block diagonal over the orders q >= 0, so each block
    R_q meets only the rows (columns) of its own order: about 4 D^3 / 3
    products per column of x instead of D^4. A Kraus tensor turns each column
    into its Hermitian matrix X, takes sum_i w_i E_i X E_i^dag (sum_i w_i
    E_i^dag X E_i for a row: R^T is the adjoint map's) and reads the
    coordinates back.
    """
    cols = x.T if left else x  # x R = (R^T x^T)^T
    if isinstance(t, _BandTensor):
        out = np.empty(cols.shape)
        for _, rows, block in _coherence_blocks(t):
            out[rows] = (block.T if left else block) @ cols[rows]
    else:
        d = t.dim.size
        mats = _hermitian(cols).reshape(d, -1)  # [n, (m, j)]
        acc = np.zeros((d, d, mats.shape[1] // d), dtype=complex)  # [l, k, j]
        for op, w in zip(t.ops.conj().swapaxes(1, 2) if left else t.ops, t.weights):
            acc += w * (op.conj() @ (op @ mats).reshape(d, d, -1))
        out = _coordinates(acc).reshape(cols.shape)
    return out.T if left else out


def _band_product(second: _BandTensor, first: _BandTensor) -> _BandTensor:
    """second after first for two band tensors: M_q = M2_q M1_q per order q >= 0."""
    d = first.dim.size
    packed = np.zeros(_block_offsets(d)[-1], dtype=complex)
    for q in range(d):
        np.matmul(_packed_block(second.packed, d, q), _packed_block(first.packed, d, q),
                  out=_packed_block(packed, d, q))
    return _BandTensor(first.dim, packed)


def _kraus_product(second: ProcessTensor, first: ProcessTensor) -> ProcessTensor:
    """second after first for two Kraus tensors: E2_a E1_b of weight w2_a w1_b."""
    d = first.dim.size
    ops = _frozen(np.matmul(second.ops[:, None], first.ops[None])).reshape(-1, d, d)
    return ProcessTensor(first.dim, ops, _frozen(np.outer(second.weights, first.weights)).ravel())


def _trace_form(t: ProcessTensor) -> np.ndarray:
    """S_{n,m} = sum_l E^{n,m}_{l,l}, so that Tr E(rho) = sum_{n,m} S_{n,m} rho_{n,m}:
    the diagonal of M_0's column sums (only q = 0 meets l = k), or
    sum_i w_i E_i^T conj(E_i)."""
    if isinstance(t, _BandTensor):
        return np.diag(_packed_block(t.packed, t.dim.size, 0).sum(axis=0))
    return np.einsum("i,iln,ilm->nm", t.weights, t.ops, t.ops.conj())


def _is_finite(t: ProcessTensor) -> bool:
    """Whether every stored entry of t is finite; the gates refuse t otherwise."""
    return bool(np.isfinite(t.packed if isinstance(t, _BandTensor) else t.ops).all())


def _max_entry_gap(a: _BandTensor, b: _BandTensor) -> float:
    """Max |E_a - E_b| over all entries of two band tensors: over their stored M_q,
    q >= 0, which fix every other entry (0, or the conjugate of a stored one)."""
    return float(np.abs(a.packed - b.packed).max())


def tensor_from_kraus(k: KrausSet) -> ProcessTensor:
    """The tensor of a single-mode Kraus set: band storage when every operator
    E_i lies on one diagonal l - n = s, each adding a a^dag, a_n = E_i[n + s, n],
    to the Choi block of shift s; else the operators, with unit weights."""
    if k.input_modes != 1 or k.output_modes != 1:
        raise ValueError("process tensors are single-mode; apply a "
                         "multi-mode KrausSet with apply_kraus")
    ops = np.stack(k.operators)
    shifts = [np.unique(np.subtract(*np.nonzero(op))) for op in ops]
    if all(s.size <= 1 for s in shifts):
        diagonals = [(s[0], np.diagonal(op, -s[0])) for op, s in zip(ops, shifts) if s.size]
        return _band_tensor(k.dim, ((s, np.outer(a, a.conj())) for s, a in diagonals))
    return ProcessTensor(k.dim, _frozen(ops), _frozen(np.ones(len(ops))))


def identity_tensor(dim: FockDim) -> ProcessTensor:
    """E[n, m, n, m] = 1: the shift-0 Choi block of ones."""
    return _band_tensor(dim, [(0, np.ones((dim.size, dim.size)))])


def apply_tensor(t: ProcessTensor, rho: DensityOperator) -> DensityOperator:
    """Sub-normalized output state; its trace is the branch probability."""
    if rho.dim != t.dim or rho.modes != 1:
        raise ValueError("state does not match tensor input structure")
    return DensityOperator(t.dim, _hermitian(_block_product(t, _coordinates(rho.matrix))))


def apply_kraus(k: KrausSet, rho: DensityOperator) -> DensityOperator:
    """Direct sum_i E_i rho E_i^dag: the path for multi-mode sets, which have
    no process tensor. For a single-mode set it agrees with
    apply_tensor(tensor_from_kraus(k), rho) in exact arithmetic."""
    if rho.dim != k.dim or rho.modes != k.input_modes:
        raise ValueError("state does not match Kraus input structure")
    side = k.dim.size ** k.output_modes
    acc = np.zeros((side, side), dtype=complex)
    for op in k.operators:
        acc += op @ rho.matrix @ op.conj().T
    acc = (acc + acc.conj().T) / 2
    return DensityOperator(k.dim, acc, k.output_modes)


def success_probability(t: ProcessTensor, rho: DensityOperator) -> float:
    """Tr E(rho) = Re sum_{n,m} S_{n,m} rho_{n,m} by the trace form; applies nothing."""
    if rho.dim != t.dim or rho.modes != 1:
        raise ValueError("state does not match tensor input structure")
    return float((_trace_form(t).ravel() @ rho.matrix.ravel()).real)


def tensor_diagonal(t: ProcessTensor) -> np.ndarray:
    """F^{m,m}_{k,k}, the map's photon-number transfer, as a read-only D x D
    array [k, m]: a view of M_0, or sum_i w_i |E_i[k, m]|^2 rounded as _kraus_slices."""
    if isinstance(t, _BandTensor):
        return _packed_block(t.packed, t.dim.size, 0)
    return _frozen(np.einsum("ikm,ikm,i->km", t.ops, t.ops.conj(), t.weights))


def compose_serial(second: ProcessTensor, first: ProcessTensor) -> ProcessTensor:
    """Tensor of (second after first): block by block, or operator by operator."""
    if first.dim != second.dim:
        raise ValueError("composed tensors need a common FockDim")
    if isinstance(second, _BandTensor) and isinstance(first, _BandTensor):
        return _band_product(second, first)
    return _kraus_product(_as_kraus(second), _as_kraus(first))


def cp_defect(t: ProcessTensor) -> float:
    """Most negative Choi eigenvalue (0 if spectrum is non-negative).

    A band tensor's permuted Choi matrix is block diagonal, so it takes the
    minimum over its 2D - 1 shift blocks, each exactly Hermitian as gathered.
    A Kraus tensor's is A W A^dag, A = QR the vectorized operators: R W R^dag.
    """
    d = t.dim.size
    if isinstance(t, _BandTensor):
        low = min(np.linalg.eigvalsh(block).min() for _, block in _choi_blocks(t))
    else:
        r = np.linalg.qr(t.ops.reshape(len(t.ops), d * d).T, mode="r")
        low = np.linalg.eigvalsh((r * t.weights) @ r.conj().T).min(initial=0.0)
    return float(min(low, 0.0))


def require_cp(t: ProcessTensor, label: str = "map") -> ProcessTensor:
    """The CP gate: t, or a PhysicalityError naming the Choi defect, nan when t is not finite."""
    defect = cp_defect(t) if _is_finite(t) else float("nan")
    if not defect >= -DEFAULT_CP_TOL:
        raise PhysicalityError(f"{label} is not completely positive "
                               f"(Choi defect {defect:.3e})")
    return t


def tni_defect(t: ProcessTensor) -> float:
    """Largest eigenvalue of S - I; <= 0 means trace non-increasing.

    The trace form S_{n,m} = sum_l E^{n,m}_{l,l} equals (sum_i E_i^dag E_i)^T.
    """
    return float(_hermitian_eigh(_trace_form(t), name="trace form").max() - 1.0)


def require_tni(t: ProcessTensor, label: str = "map") -> ProcessTensor:
    """The TNI gate: t, or a PhysicalityError naming the TNI defect, nan when t is not finite."""
    defect = tni_defect(t) if _is_finite(t) else float("nan")
    if not defect <= DEFAULT_TNI_TOL:
        raise PhysicalityError(f"{label} is trace-increasing "
                               f"(TNI defect {defect:.3e})")
    return t


def require_phase_invariant(t: ProcessTensor) -> _BandTensor:
    """The phase-invariance gate: t in band storage (a Kraus tensor's Choi block
    s is sum_i w_i a_i a_i^dag, a_i = E_i[n + s, n]), or a PhaseSymmetryError."""
    defect = phase_invariance_defect(t)
    if defect != 0.0:
        raise PhaseSymmetryError(f"map is not phase invariant (defect {defect:.3e})")
    if isinstance(t, _BandTensor):
        return t
    diagonals = ((s, t.ops.diagonal(-s, 1, 2)) for s in range(1 - t.dim.size, t.dim.size))
    return _band_tensor(t.dim, ((s, (a.T * t.weights) @ a.conj()) for s, a in diagonals))


def combine_heralding(f1: ProcessTensor, f2: ProcessTensor) -> ProcessTensor:
    """Sum of exclusive heralded branches; probabilities add exactly."""
    if f1.dim != f2.dim:
        raise ValueError("branch tensors need a common FockDim")
    if isinstance(f1, _BandTensor) and isinstance(f2, _BandTensor):
        return _BandTensor(f1.dim, f1.packed + f2.packed)
    f1, f2 = _as_kraus(f1), _as_kraus(f2)
    return ProcessTensor(f1.dim, _frozen(np.concatenate((f1.ops, f2.ops))),
                         _frozen(np.concatenate((f1.weights, f2.weights))))


def scale_tensor(t: ProcessTensor, c: float) -> ProcessTensor:
    if isinstance(t, _BandTensor):
        if np.iscomplexobj(c) or not np.isfinite(c):
            raise ValueError(f"scale factor {c!r} is not a real finite number")
        return _BandTensor(t.dim, c * t.packed)
    return ProcessTensor(t.dim, t.ops, _frozen(c * t.weights))


def phase_invariance_defect(t: ProcessTensor) -> float:
    """Max |element| outside the selection rule l - k = n - m.

    A map is phase invariant only when this is exactly 0. A diagnostic that
    chooses no code path: 0 for a band tensor, whose blocks hold no entry off
    the rule, and a scan of the operators on each call for a Kraus tensor.
    """
    return 0.0 if isinstance(t, _BandTensor) else _off_band_max(t)


def _off_band_max(t: ProcessTensor) -> float:
    """Max |E[l, k, n, m]| of a Kraus tensor over l - k != n - m, one row
    E[l] of _kraus_slices at a time."""
    idx = np.arange(t.dim.size)
    order = np.subtract.outer(idx, idx)  # n - m of (n, m)
    return max(float(np.max(np.abs(part), initial=0.0,
                            where=(l - idx)[:, None, None] != order))
               for l, part in enumerate(_kraus_slices(t)))
