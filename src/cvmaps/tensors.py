"""Single-mode process tensors, and Kraus sets on truncated Fock spaces.

A map acting on single-mode density matrices is the tensor

    [E(rho)]_{l,k} = sum_{n,m} E^{n,m}_{l,k} rho_{n,m},
    E^{n,m}_{l,k} = sum_i <l|E_i|n> <m|E_i^dag|k>,

with axes (l, k, n, m), each of dimension D. Read as the D^2 x D^2 matrix
with rows (l, k) and columns (n, m), E acts on the flattened rho; its Choi
matrix is a transpose and its trace form a partial trace. Heralded maps
stay sub-normalized; the trace of the output is the occurrence probability
of the branch.

A tensor has one of two layouts, and every code path follows the layout.
An exactly phase-invariant map is kept as its 2D - 1 coherence blocks M_q
alone, q = l - k = n - m, packed into one read-only array of
sum_q (D - |q|)^2 entries: 1.2 MB instead of 92 MB at D = 49. The shift-block
writer _band_tensor (behind tensor_from_kraus when every Kraus operator
lies on one diagonal), the amplifier's corner constructor _corner_tensor
when its off-band entries are exactly 0, and combine_heralding,
scale_tensor and compose_serial on band inputs give this layout. Every
other map, and every tensor built from a dense array by
ProcessTensor(dim, elements), keeps the dense D^4 array and is treated
densely, whatever its entries: one full product, one Choi eigh.
``elements`` is the (l, k, n, m) array in either layout; for a band tensor
it is built on each access, read-only, and not kept, and no function here
reads it.

Only this module reads or writes a tensor's entries by index or decides
phase symmetry. Other modules use tensor_diagonal, success_probability,
the writers _band_tensor and _corner_tensor, the gate
require_phase_invariant, which returns a band tensor, and the two products
with E, _block_product and _harmonics; the blocks M_q of a band tensor are
read through _coherence_blocks alone. phase_invariance_defect is a
diagnostic and chooses no path: a dense tensor's array is read-only, so
its defect is computed once, on first use, and kept; a band tensor's is 0
with no scan.

A KrausSet may act on several modes (the two-mode catalog elements go
through apply_kraus); only a single-mode one converts to a tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fock import DensityOperator, FockDim

__all__ = [
    "PhysicalityError",
    "PhaseSymmetryError",
    "KrausSet",
    "ProcessTensor",
    "ChoiMatrix",
    "tensor_from_kraus",
    "identity_tensor",
    "apply_tensor",
    "apply_kraus",
    "success_probability",
    "tensor_diagonal",
    "compose_serial",
    "choi",
    "cp_defect",
    "require_cp",
    "tni_defect",
    "require_tni",
    "require_phase_invariant",
    "combine_heralding",
    "scale_tensor",
    "phase_invariance_defect",
]

# dense storage cap on the D^4 entries: n_max = 66 (D = 67, 322 MB) fits
_MAX_ELEMENTS = 21_000_000

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

    def completeness_defect(self) -> float:
        """Largest eigenvalue of sum E_i^dag E_i - I; <= 0 for physical maps."""
        s = sum(op.conj().T @ op for op in self.operators)
        s = (s + s.conj().T) / 2
        w = np.linalg.eigvalsh(s)
        return float(w.max() - 1.0)


@dataclass(frozen=True)
class ProcessTensor:
    """Single-mode map E^{n,m}_{l,k}, stored with axes (l, k, n, m)."""

    dim: FockDim
    elements: np.ndarray

    input_modes = 1
    output_modes = 1

    def __post_init__(self):
        arr = np.asarray(self.elements, dtype=complex)
        shape = (self.dim.size,) * 4
        if arr.shape != shape:
            raise ValueError(f"elements shape {arr.shape} != {shape}")
        if arr.size > _MAX_ELEMENTS:
            raise ValueError(
                f"tensor with {arr.size} elements exceeds the dense cap "
                f"{_MAX_ELEMENTS}; reduce n_max"
            )
        object.__setattr__(self, "elements", _adopt(arr))

    @property
    def matrix(self) -> np.ndarray:
        """E as the D^2 x D^2 matrix with rows (l, k) and columns (n, m)."""
        side = self.dim.size ** 2
        return self.elements.reshape(side, side)

    @cached_property
    def _phase_defect(self) -> float:
        return _phase_invariance_scan(self)


class _BandTensor(ProcessTensor):
    """An exactly phase-invariant map, kept as its coherence blocks alone.

    ``packed`` holds M_q for q = 1 - D .. D - 1 back to back, each in C
    order (_packed_block). ``elements`` is built on each access and not kept.
    """

    _phase_defect = 0.0  # the blocks hold no entry off l - k = n - m

    def __init__(self, dim: FockDim, packed: np.ndarray):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "packed", _frozen(packed))

    @property
    def elements(self) -> np.ndarray:
        d = self.dim.size
        out = np.zeros((d,) * 4, dtype=complex)
        mat = out.reshape(d * d, d * d)
        for _, rows, block in _coherence_blocks(self):
            mat[rows, rows] = block
        return _frozen(out)


@dataclass(frozen=True)
class ChoiMatrix:
    dim: FockDim
    matrix: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        m = self.matrix
        herm_gap = np.max(np.abs(m - m.conj().T))
        if herm_gap > 1e-8:
            raise ValueError(f"Choi matrix not Hermitian, defect {herm_gap:.3e}")
        return np.linalg.eigvalsh((m + m.conj().T) / 2)


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


def _shift_block(d: int, s: int):
    """Index of the Choi block of photon-number shift s: E[n+s, m+s, n, m]."""
    n = np.arange(max(0, -s), d - max(0, s))
    return (n + s)[:, None], (n + s)[None, :], n[:, None], n[None, :]


@lru_cache(maxsize=None)
def _block_offsets(d: int) -> np.ndarray:
    """Start of each block M_q, q = 1 - D .. D - 1, in a band tensor's packed
    array, and the packed length as a last entry."""
    sizes = (d - np.abs(np.arange(1 - d, d))) ** 2
    return _frozen(np.concatenate(([0], np.cumsum(sizes))))


def _packed_block(packed: np.ndarray, d: int, q: int) -> np.ndarray:
    """M_q of a packed array as a C-ordered view: M_q[i, j] = E[k_i + q, k_i,
    m_j + q, m_j], with k_i = max(-q, 0) + i and m_j = max(-q, 0) + j."""
    off = _block_offsets(d)
    n = d - abs(q)
    return packed[off[q + d - 1]:off[q + d]].reshape(n, n)


def _empty_packed(d: int) -> np.ndarray:
    return np.zeros(_block_offsets(d)[-1], dtype=complex)


def _double_diagonal(e: np.ndarray, q: int) -> np.ndarray:
    """The entries e[k + q, k, m + q, m] of an (a, b, D, D) array as a view
    [k - max(-q, 0), m - max(-q, 0)]: all of M_q when a = b = D, its
    leading rows when a = b < D."""
    return e.diagonal(-q, 0, 1).diagonal(-q, 0, 1)


def _shift_index(d: int, s: int) -> np.ndarray:
    """Where the entries of _shift_block(d, s) lie in a band tensor's packed array."""
    _, k, n, m = _shift_block(d, s)
    q = n - m
    low = np.maximum(-q, 0)
    return _block_offsets(d)[q + d - 1] + (k - low) * (d - np.abs(q)) + m - low


def _band_tensor(dim: FockDim, bands) -> ProcessTensor:
    """The phase-invariant tensor whose Choi block at shift s is the sum of
    the blocks B_s that bands gives for s, added in order.

    The only writer of shift blocks: B_s[i, j] adds to E[n_i + s, n_j + s,
    n_i, n_j], n_i = max(0, -s) + i, and every other entry is 0.
    """
    d = dim.size
    packed = _empty_packed(d)
    for s, block in bands:
        packed[_shift_index(d, s)] += block
    return _BandTensor(dim, packed)


def _corner_tensor(dim: FockDim, corner: np.ndarray) -> ProcessTensor:
    """The tensor equal to corner on E[l, k] for l, k < len(corner), else 0.

    Band storage when the corner has no entry off l - k = n - m, by the
    exact rule of phase_invariance_defect; dense storage otherwise.
    """
    d, j = dim.size, len(corner)
    if _off_band_max(corner) == 0.0:
        packed = _empty_packed(d)
        for q in range(1 - j, j):
            part = _double_diagonal(corner, q)
            _packed_block(packed, d, q)[:len(part)] = part
        return _BandTensor(dim, packed)
    full = np.zeros((d,) * 4, dtype=complex)
    full[:j, :j] = corner
    return ProcessTensor(dim, _frozen(full))


def _coherence_blocks(t: _BandTensor):
    """(q, rows, M_q) per coherence order q: E on the rows (k + q, k) and the
    columns (m + q, m) as a view of the packed array, and those rows
    (k + q) D + k of a D^2 axis as a strided slice. Nothing is kept."""
    d = t.dim.size
    for q in range(1 - d, d):
        first = max(q, 0) * d + max(-q, 0)  # the row (k + q, k) of least k
        rows = slice(first, first + (d - abs(q)) * (d + 1), d + 1)
        yield q, rows, _packed_block(t.packed, d, q)


def _block_product(t: ProcessTensor, x: np.ndarray, left: bool = False) -> np.ndarray:
    """E x, or x E when left, for x with D^2 rows (D^2 columns when left).

    A band tensor is block diagonal over coherence orders, so each block M_q
    meets only the rows (columns) of its own order q: about 2 D^3 / 3
    products per column of x instead of D^4. A dense tensor is one full
    product, whatever its entries.
    """
    if not isinstance(t, _BandTensor):
        return x @ t.matrix if left else t.matrix @ x
    out = np.zeros(x.shape, dtype=complex)
    for _, rows, block in _coherence_blocks(t):
        if left:
            out[..., rows] = x[..., rows] @ block
        else:
            out[rows] = block @ x[rows]
    return out


def _band_product(second: _BandTensor, first: _BandTensor) -> _BandTensor:
    """second after first for two band tensors: M_q = M2_q M1_q per order q."""
    d = first.dim.size
    packed = _empty_packed(d)
    for q in range(1 - d, d):
        np.matmul(_packed_block(second.packed, d, q), _packed_block(first.packed, d, q),
                  out=_packed_block(packed, d, q))
    return _BandTensor(first.dim, packed)


def _harmonics(t: _BandTensor, b_out: np.ndarray, b_in: np.ndarray):
    """(q, C_q) per coherence order q, C_q = B_out,q^T M_q B_in,q raveled, for b_out
    and b_in with D^2 rows; they sum to B_out^T E B_in raveled."""
    for q, rows, block in _coherence_blocks(t):
        yield q, (b_out[rows].T @ (block @ b_in[rows])).ravel()


def _trace_form(t: ProcessTensor) -> np.ndarray:
    """S_{n,m} = sum_l E^{n,m}_{l,l}, so that Tr E(rho) = sum_{n,m} S_{n,m} rho_{n,m}.

    Only the order q = 0 meets l = k, so a band tensor's S is the diagonal
    of the column sums of M_0.
    """
    if isinstance(t, _BandTensor):
        return np.diag(_packed_block(t.packed, t.dim.size, 0).sum(axis=0))
    return np.trace(t.elements, axis1=0, axis2=1)


def _max_entry_gap(a: ProcessTensor, b: ProcessTensor) -> float:
    """Max |E_a - E_b| over all entries; two band tensors differ only in their blocks."""
    if isinstance(a, _BandTensor) and isinstance(b, _BandTensor):
        return float(np.abs(a.packed - b.packed).max())
    return float(np.abs(a.elements - b.elements).max())


def tensor_from_kraus(k: KrausSet) -> ProcessTensor:
    """The tensor of a single-mode Kraus set: the dense D^4 array, or band
    storage when every operator E_i lies on one diagonal l - n = s; each
    then adds a a^dag, a_n = E_i[n + s, n], to the Choi block of shift s."""
    if k.input_modes != 1 or k.output_modes != 1:
        raise ValueError("process tensors are single-mode; apply a "
                         "multi-mode KrausSet with apply_kraus")
    ops = np.stack(k.operators)
    d = k.dim.size
    shifts = [np.unique(np.subtract(*np.nonzero(op))) for op in ops]
    if all(s.size <= 1 for s in shifts):
        diagonals = [(s[0], np.diagonal(op, -s[0])) for op, s in zip(ops, shifts) if s.size]
        return _band_tensor(k.dim, ((s, np.outer(a, a.conj())) for s, a in diagonals))
    # E[l, k, n, m] = sum_i E_i[l, n] conj(E_i[k, m]), filled row by row so
    # that no second full-size array is allocated
    conj = ops.conj().reshape(len(ops), d * d)
    arr = np.empty((d, d, d, d), dtype=complex)
    for l in range(d):
        arr[l] = (ops[:, l, :].T @ conj).reshape(d, d, d).transpose(1, 0, 2)
    return ProcessTensor(k.dim, _frozen(arr))


def identity_tensor(dim: FockDim) -> ProcessTensor:
    """E[n, m, n, m] = 1: the shift-0 Choi block of ones."""
    return _band_tensor(dim, [(0, np.ones((dim.size, dim.size)))])


def apply_tensor(t: ProcessTensor, rho: DensityOperator) -> DensityOperator:
    """Sub-normalized output state; its trace is the branch probability."""
    if rho.dim != t.dim or rho.modes != 1:
        raise ValueError("state does not match tensor input structure")
    d = t.dim.size
    mat = _block_product(t, rho.matrix.reshape(d * d)).reshape(d, d)
    mat = (mat + mat.conj().T) / 2
    return DensityOperator(t.dim, mat)


def apply_kraus(k: KrausSet, rho: DensityOperator) -> DensityOperator:
    """Direct sum_i E_i rho E_i^dag, bypassing tensor storage.

    The only path for a multi-mode set, and preferred at large D where the
    dense tensor would not fit; for a single-mode set it agrees with
    apply_tensor(tensor_from_kraus(k), rho) in exact arithmetic.
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
    """Tr E(rho) = Re sum_{n,m} S_{n,m} rho_{n,m} by the trace form; applies nothing."""
    if rho.dim != t.dim or rho.modes != 1:
        raise ValueError("state does not match tensor input structure")
    return float((_trace_form(t).ravel() @ rho.matrix.ravel()).real)


def tensor_diagonal(t: ProcessTensor) -> np.ndarray:
    """F^{m,m}_{k,k}, the map's photon-number transfer, as a read-only D x D view [k, m]."""
    d = t.dim.size
    if isinstance(t, _BandTensor):
        return _packed_block(t.packed, d, 0)
    return t.matrix[::d + 1, ::d + 1]


def compose_serial(second: ProcessTensor, first: ProcessTensor) -> ProcessTensor:
    """Tensor of (second after first); contracts the intermediate pair, block
    by block when both are band tensors."""
    if first.dim != second.dim:
        raise ValueError("composed tensors need a common FockDim")
    if isinstance(second, _BandTensor) and isinstance(first, _BandTensor):
        return _band_product(second, first)
    product = _frozen(_block_product(second, first.matrix))
    return ProcessTensor(first.dim, product.reshape((first.dim.size,) * 4))


def choi(t: ProcessTensor) -> ChoiMatrix:
    """C_{(l,n),(k,m)} = E^{n,m}_{l,k}."""
    side = t.dim.size ** 2
    return ChoiMatrix(t.dim, t.elements.transpose(0, 2, 1, 3).reshape(side, side))


def cp_defect(t: ProcessTensor) -> float:
    """Most negative Choi eigenvalue (0 if spectrum is non-negative).

    A band tensor's permuted Choi matrix is block diagonal, so it takes the
    minimum over its 2D - 1 shift blocks, gathered from its coherence
    blocks; a dense tensor runs one eigh, whatever its entries.
    """
    d = t.dim.size
    if isinstance(t, _BandTensor):
        low = min(ChoiMatrix(t.dim, t.packed[_shift_index(d, s)]).eigenvalues().min()
                  for s in range(1 - d, d))
    else:
        low = choi(t).eigenvalues().min()
    return float(min(low, 0.0))


def require_cp(t: ProcessTensor, label: str = "map") -> ProcessTensor:
    """The complete-positivity gate: t, or a PhysicalityError naming the Choi defect."""
    defect = cp_defect(t)
    if defect < -DEFAULT_CP_TOL:
        raise PhysicalityError(f"{label} is not completely positive "
                               f"(Choi defect {defect:.3e})")
    return t


def tni_defect(t: ProcessTensor) -> float:
    """Largest eigenvalue of S - I; <= 0 means trace non-increasing.

    The trace form S_{n,m} = sum_l E^{n,m}_{l,l} equals (sum_i E_i^dag E_i)^T.
    """
    s = _trace_form(t)
    gap = np.max(np.abs(s - s.conj().T))
    if gap > 1e-8:
        raise ValueError(f"trace form not Hermitian, defect {gap:.3e}")
    w = np.linalg.eigvalsh((s + s.conj().T) / 2)
    return float(w.max() - 1.0)


def require_tni(t: ProcessTensor, label: str = "map") -> ProcessTensor:
    """The trace-non-increase gate: t, or a PhysicalityError naming the TNI defect."""
    defect = tni_defect(t)
    if defect > DEFAULT_TNI_TOL:
        raise PhysicalityError(f"{label} is trace-increasing "
                               f"(TNI defect {defect:.3e})")
    return t


def require_phase_invariant(t: ProcessTensor) -> _BandTensor:
    """The phase-invariance gate: t in band storage, or a PhaseSymmetryError
    naming the defect."""
    defect = phase_invariance_defect(t)
    if defect != 0.0:
        raise PhaseSymmetryError(f"map is not phase invariant (defect {defect:.3e})")
    return t if isinstance(t, _BandTensor) else _corner_tensor(t.dim, t.elements)


def combine_heralding(f1: ProcessTensor, f2: ProcessTensor) -> ProcessTensor:
    """Sum of exclusive heralded branches; probabilities add exactly."""
    if f1.dim != f2.dim:
        raise ValueError("branch tensors need a common FockDim")
    if isinstance(f1, _BandTensor) and isinstance(f2, _BandTensor):
        return _BandTensor(f1.dim, f1.packed + f2.packed)
    return ProcessTensor(f1.dim, _frozen(f1.elements + f2.elements))


def scale_tensor(t: ProcessTensor, c: float) -> ProcessTensor:
    if isinstance(t, _BandTensor):
        return _BandTensor(t.dim, c * t.packed)
    return ProcessTensor(t.dim, _frozen(c * t.elements))


def phase_invariance_defect(t: ProcessTensor) -> float:
    """Max |element| outside the selection rule l - k = n - m.

    A map is phase invariant only when this is exactly 0. The defect is a
    diagnostic behind require_phase_invariant and the reports; it chooses no
    code path, which follows the layout. A band tensor holds no off-band
    entry, so its defect is 0 with no scan. A dense tensor's elements are
    read-only, so it is scanned on first use only and the defect kept on it.
    """
    return t._phase_defect


def _phase_invariance_scan(t: ProcessTensor) -> float:
    """phase_invariance_defect read from a dense tensor's entries."""
    return _off_band_max(t.elements)


def _off_band_max(e: np.ndarray) -> float:
    """Max |e[l, k, n, m]| over l - k != n - m for an (a, b, D, D) array, one
    leading slice (fixed l) at a time."""
    a, b, d, _ = e.shape
    order = np.subtract.outer(np.arange(d), np.arange(d)).ravel()  # n - m of (n, m)
    return max((float(np.max(np.abs(s), where=(l - np.arange(b))[:, None] != order,
                              initial=0.0))
                for l, s in enumerate(e.reshape(a, b, d * d))), default=0.0)
