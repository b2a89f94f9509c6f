"""Truncated Fock-space states and operators.

Everything lives in a hard-truncated oscillator space of dimension
D = n_max + 1 with the convention a = (x + i p) / sqrt(2), so the vacuum
Wigner function is exp(-x^2 - p^2) / pi.

Coherent states are truncated without renormalization (their trace sits
slightly below one), while thermal states are renormalized over the
truncated space. The asymmetry is deliberate: truncation loss of a
coherent amplitude should stay visible to the caller instead of being
silently absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FockDim",
    "DensityOperator",
    "annihilation",
    "creation",
    "fock_vector",
    "fock_state",
    "coherent_vector",
    "coherent_state",
    "thermal_state",
    "normalize",
    "displacement_matrix",
    "squeeze_matrix",
    "fidelity",
]

_MAX_SIZE = 64
_HERM_ATOL = 1e-10
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class FockDim:
    """Truncation of the single-mode Fock space at photon number n_max."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)):
            raise TypeError("n_max must be an integer")
        if not 1 <= self.n_max <= _MAX_SIZE - 1:
            raise ValueError(
                f"n_max must be in [1, {_MAX_SIZE - 1}], got {self.n_max}"
            )

    @property
    def size(self) -> int:
        return int(self.n_max) + 1


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian operator on ``modes`` copies of the truncated space.

    The matrix is stored dense with mode-major index flattening: basis
    state |n_1, ..., n_M> maps to row n_1 * D^(M-1) + ... + n_M.
    Heralded outputs are sub-normalized, so the trace may be below one;
    outputs of deliberately unphysical maps may exceed one; nothing here
    checks positivity.
    """

    dim: FockDim
    matrix: np.ndarray
    modes: int = 1

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        side = self.dim.size ** self.modes
        if mat.shape != (side, side):
            raise ValueError(f"expected shape {(side, side)}, got {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > _HERM_ATOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()


def _order_rows(d: int):
    """(q, rows) per coherence order q = 0 .. d - 1: the slice of a real
    coordinate vector (_coordinates) that holds order q. Order 0 has the d
    diagonal rows; order q > 0 has 2 (d - q) rows, C_k then S_k for
    k = 0 .. d - q - 1, which _coordinates reads from X[k, k + q]."""
    start = 0
    for q in range(d):
        size = d if q == 0 else 2 * (d - q)
        yield q, slice(start, start + size)
        start += size


def _coordinates(mat: np.ndarray) -> np.ndarray:
    """The real coordinates, (D^2,) + rest, of Hermitian matrices mat, (D, D) + rest,
    in the orthonormal basis |k><k|, (|k><k+q| + |k+q><k|)/sqrt(2) and
    i(|k><k+q| - |k+q><k|)/sqrt(2): X[k, k], then sqrt(2) Re and sqrt(2) Im of
    X[k, k + q] for each q > 0, as _order_rows gives. The lower triangle is not read."""
    bands = [np.diagonal(mat, q, 0, 1) for q in range(len(mat))]  # (rest..., D - q)
    parts = [bands[0].real] + [_SQRT2 * p for band in bands[1:] for p in (band.real, band.imag)]
    return np.moveaxis(np.concatenate(parts, axis=-1), -1, 0)


def _hermitian(coords: np.ndarray) -> np.ndarray:
    """The Hermitian matrices, (D, D) + rest, of real coordinates (D^2,) + rest:
    the inverse of _coordinates."""
    d = math.isqrt(len(coords))
    out = np.zeros((d, d) + coords.shape[1:], dtype=complex)
    for q, rows in _order_rows(d):
        k, part = np.arange(d - q), coords[rows]
        band = part if q == 0 else (part[:d - q] + 1j * part[d - q:]) / _SQRT2
        out[k, k + q] = band
        out[k + q, k] = np.conj(band)
    return out


def annihilation(dim: FockDim) -> np.ndarray:
    d = dim.size
    a = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def creation(dim: FockDim) -> np.ndarray:
    return annihilation(dim).conj().T


def fock_vector(n: int, dim: FockDim) -> np.ndarray:
    if not 0 <= n <= dim.n_max:
        raise ValueError(f"Fock index {n} outside [0, {dim.n_max}]")
    v = np.zeros(dim.size, dtype=complex)
    v[n] = 1.0
    return v


def fock_state(n: int, dim: FockDim) -> DensityOperator:
    v = fock_vector(n, dim)
    return DensityOperator(dim, np.outer(v, v.conj()))


def coherent_vector(alpha: complex, dim: FockDim) -> np.ndarray:
    """Truncated coherent amplitudes; NOT renormalized after truncation."""
    ns = np.arange(dim.size)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim.size)))))
    if alpha == 0:
        return fock_vector(0, dim)
    # exp(-|a|^2/2) a^n / sqrt(n!), phases handled separately for stability
    mag = np.exp(-abs(alpha) ** 2 / 2 + ns * np.log(abs(alpha)) - log_fact / 2)
    phase = np.exp(1j * ns * np.angle(alpha))
    return mag * phase


def coherent_state(alpha: complex, dim: FockDim) -> DensityOperator:
    v = coherent_vector(alpha, dim)
    return DensityOperator(dim, np.outer(v, v.conj()))


def thermal_state(mean_n: float, dim: FockDim) -> DensityOperator:
    """Thermal state renormalized over the truncated space."""
    if mean_n < 0:
        raise ValueError("mean photon number must be >= 0")
    if mean_n == 0:
        return fock_state(0, dim)
    ratio = mean_n / (1.0 + mean_n)
    weights = ratio ** np.arange(dim.size)
    weights /= weights.sum()
    return DensityOperator(dim, np.diag(weights.astype(complex)))


def normalize(rho: DensityOperator) -> DensityOperator:
    """Explicit trace renormalization, the only place it happens."""
    tr = rho.trace
    if tr <= 0:
        raise ValueError(f"cannot normalize operator with trace {tr}")
    return DensityOperator(rho.dim, rho.matrix / tr, rho.modes)


def _exp_nilpotent(mat: np.ndarray) -> np.ndarray:
    """exp(mat) for nilpotent mat via the terminating power series."""
    d = mat.shape[0]
    out = np.eye(d, dtype=complex)
    term = np.eye(d, dtype=complex)
    for k in range(1, d + 1):
        term = mat @ term / k
        if not np.any(term):
            break
        out = out + term
    return out


def displacement_matrix(alpha: complex, dim: FockDim) -> np.ndarray:
    """Matrix of the displacement operator D(alpha) on the truncated space.

    Uses the normal-ordered factorization
    D = exp(-|a|^2/2) exp(alpha ad) exp(-conj(alpha) a). Each factor moves
    Fock indices monotonically, so every index chain between basis states
    below the cutoff stays below the cutoff and the truncated elements
    equal the infinite-dimensional ones exactly. ValueError when they overflow
    (the product holds 1 - |alpha|^2, so |alpha|^2 is finite past that check).
    """
    a = annihilation(dim)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = _exp_nilpotent(alpha * a.conj().T) @ _exp_nilpotent(-np.conj(alpha) * a)
    if not np.isfinite(prod).all():
        raise ValueError(f"displacement amplitude {alpha} overflows at n_max={dim.n_max}")
    return math.exp(-abs(alpha) ** 2 / 2) * prod


def squeeze_matrix(r: float, dim: FockDim) -> np.ndarray:
    """Matrix of S(r) = exp[(r/2)(a^2 - ad^2)] on the truncated space.

    S(r) squeezes the x quadrature for r > 0. Built from the normal-ordered
    factorization S = exp(-(t/2) ad^2) sech^(n+1/2) exp((t/2) a^2) with
    t = tanh(r); as with the displacement, the factorized elements are
    exact, no generator truncation is involved.
    """
    a = annihilation(dim)
    t = math.tanh(r)
    sech = 1.0 / math.cosh(r)
    up = _exp_nilpotent(-(t / 2) * (a.conj().T @ a.conj().T))
    mid = np.diag(sech ** (np.arange(dim.size) + 0.5)).astype(complex)
    down = _exp_nilpotent((t / 2) * (a @ a))
    return up @ mid @ down


def _psd_sqrt(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    if w.min() < -tol:
        raise ValueError(f"operator has negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a: DensityOperator, b: DensityOperator) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(a) b sqrt(a)))^2.

    Both inputs must be trace-normalized by the caller; non-PSD input is
    rejected. When either state is pure the exact shortcut <psi|other|psi>
    is used; the general eigenvalue route carries O(sqrt(eps)) noise from
    near-zero eigenvalues, which the relative cutoff suppresses.
    """
    for rho in (a, b):
        if abs(rho.trace - 1.0) > 1e-6:
            raise ValueError(
                f"fidelity requires normalized states, trace = {rho.trace}"
            )
    for first, second in ((a, b), (b, a)):
        w, v = np.linalg.eigh(first.matrix)
        if w.min() < -1e-10:
            raise ValueError(f"state has negative eigenvalue {w.min():.3e}")
        if w[-1] > 1.0 - 1e-11:
            psi = v[:, -1]
            val = np.real(psi.conj() @ second.matrix @ psi)
            return float(min(max(val, 0.0), 1.0))
    sa = _psd_sqrt(a.matrix)
    inner = sa @ b.matrix @ sa
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    w[w < 1e-13 * max(w.max(), 1e-300)] = 0.0
    return float(min(np.sum(np.sqrt(w)) ** 2, 1.0))
