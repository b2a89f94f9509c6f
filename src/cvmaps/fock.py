"""Truncated Fock-space states and operators.

Everything lives in a hard-truncated oscillator space of dimension
D = n_max + 1 with the convention a = (x + i p) / sqrt(2), so the vacuum
Wigner function is exp(-x^2 - p^2) / pi.

Coherent states are truncated without renormalization (their trace sits
slightly below one), while thermal states are renormalized over the
truncated space. The asymmetry is deliberate: truncation loss of a
coherent amplitude should stay visible to the caller instead of being
silently absorbed.

The Gaussian unitaries hold at every cut: displacement reads the Laguerre
rows of _band_values, squeezing the Hermite-function overlaps of
_squeeze_amplitudes, and neither sums an alternating series.
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
    if not mean_n >= 0:
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


def _band_values(counts, x, p):
    """Per coherence order q < len(counts) at the points (x, p), None where
    counts[q] is 0, else (ts, coeff, u, v, at): the unscaled rows
    T_k = e^{-xi/2} L_k^q(xi), k < counts[q], on the U distinct values of
    xi = 2 (x^2 + p^2), shape (counts[q], U), with at the column of each point;
    c_k = (-1)^k sqrt(k!/(k+q)!) / pi, times sqrt(2) for q > 0; and
    u + i v = (sqrt(2) (x - i p))^q, zeroed where the envelope underflowed.
    The real Wigner basis rows are W_{|k><k|} = c_k T_k and, for q > 0,
    C_k = c_k T_k u, S_k = c_k T_k v, W_{|k+q><k|} = (C_k + i S_k)/sqrt(2).
    T_k never overflows (|T_k| <= binom(k+q, k)), and is exactly 0 where the
    envelope underflowed, since xi is set to 0 there.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    shape = np.broadcast_shapes(x.shape, p.shape)
    xi, at = np.unique(2.0 * (x * x + p * p), return_inverse=True)
    at = at.reshape(shape)
    env = np.exp(-0.5 * xi)
    xi = np.where(env == 0.0, 0.0, xi)
    # u and v start at 0 where the envelope underflowed and stay there, so no
    # power of a large z is formed
    u, v = np.where(env[at] == 0.0, 0.0, 1.0), np.zeros(shape)
    for q, count in enumerate(counts):
        if q:
            u, v = _SQRT2 * (u * x + v * p), _SQRT2 * (v * x - u * p)
        if not count:
            yield None
            continue
        ts = np.empty((count, xi.size))
        ts[0] = env
        for k in range(1, count):
            # ((2k - 1 + q - xi) T_{k-1} - (k - 1 + q) T_{k-2}) / k, in place
            row = np.subtract(2 * k - 1 + q, xi, out=ts[k])
            row *= ts[k - 1]
            if k > 1:
                row -= (k - 1 + q) * ts[k - 2]
            row /= k
        coeff = np.array([(1.0 if q == 0 else _SQRT2) * ((-1) ** k / math.pi)
                          * math.exp(0.5 * (math.lgamma(k + 1) - math.lgamma(k + q + 1)))
                          for k in range(count)])
        yield ts, coeff, u, v, at


def displacement_matrix(alpha: complex, dim: FockDim) -> np.ndarray:
    """Matrix of the displacement operator D(alpha) on the truncated space.

    Its amplitudes are Wigner basis values, <l|D(alpha)|n> = pi (-1)^n
    W_{|n><l|} at x + i p = alpha / sqrt(2): <k+q|D|k> = sqrt(k!/(k+q)!)
    alpha^q T_k from the bounded recurrence of _band_values, with no
    alternating sum, and <k|D|k+q> = (-1)^q conj(<k+q|D|k>). Against expm on
    a padded space the largest error at n_max 20 to 63 is 7.1e-15 for |alpha|
    from 0.5 to 5, and up to 9.9e-14 below 0.5, where the upward recurrence
    at small xi gathers error with k. ValueError when |alpha|^2 overflows.
    """
    if not math.isfinite(alpha.real * alpha.real + alpha.imag * alpha.imag):
        raise ValueError(f"displacement amplitude {alpha} overflows: |alpha|^2 is not finite")
    d = dim.size
    out = np.empty((d, d), dtype=complex)
    bands = _band_values(range(d, 0, -1), alpha.real / _SQRT2, alpha.imag / _SQRT2)
    for q, (ts, _, u, v, at) in enumerate(bands):
        k = np.arange(d - q)
        # one rounding for sqrt(k!/(k+q)!): the rows' lgamma c_k err by 4e-14 at D = 64
        amp = ts[:, at] * [math.sqrt(math.factorial(j) / math.factorial(j + q)) for j in k]
        out[k + q, k] = amp * (u - 1j * v)
        out[k, k + q] = (-1) ** q * np.conj(out[k + q, k])
    return out


def _hermite_functions(size: int, x) -> np.ndarray:
    """psi_n(x) = <x|n> for n < size at the points x, shape (size,) + x.shape, from
    psi_n = sqrt(2/n) x psi_{n-1} - sqrt((n-1)/n) psi_{n-2}; |psi_n| <= pi^(-1/4)."""
    x = np.asarray(x, dtype=float)
    out = np.empty((size,) + x.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    out[1:2] = _SQRT2 * x * out[0]  # no row to fill when size is 1
    for n in range(2, size):
        out[n] = math.sqrt(2.0 / n) * x * out[n - 1] - math.sqrt((n - 1) / n) * out[n - 2]
    return out


def _squeeze_amplitudes(r: float, size: int) -> np.ndarray:
    """<m|S(r)|n> for m, n < size (a size, so callers can pass FockDim's cap): the
    overlap of psi_m(x) and e^{r/2} psi_n(e^r x), a degree m + n polynomial times
    exp(-y^2), y^2 = (1 + e^{2r}) x^2 / 2, that size Gauss-Hermite nodes sum exactly."""
    y, w = np.polynomial.hermite.hermgauss(size)
    s = math.sqrt(0.5 * (1.0 + math.exp(2.0 * r)))
    # weights w e^{y^2}, as the psi carry the Gaussian: every term is bounded
    left = _hermite_functions(size, y / s) * (w * np.exp(y * y) * (math.exp(0.5 * r) / s))
    return left @ _hermite_functions(size, math.exp(r) / s * y).T


def squeeze_matrix(r: float, dim: FockDim) -> np.ndarray:
    """Matrix of S(r) = exp[(r/2)(a^2 - ad^2)] on the truncated space, which
    squeezes x for r > 0: the exact Hermite-function overlaps of _squeeze_amplitudes."""
    return _squeeze_amplitudes(r, dim.size)


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
