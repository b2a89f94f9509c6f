"""Wigner functions of truncated Fock-space operators.

Conventions: a = (x + i p) / sqrt(2) and
W_rho(x, p) = (1/2 pi) Int dv e^{i v p} <x - v/2| rho |x + v/2>,
so the vacuum is exp(-x^2 - p^2) / pi and Tr(A B) = 2 pi Int W_A W_B.

The basis element |n><m| with m >= n has the closed form

    W_{nm}(x, p) = (1/pi) e^{-|z|^2} (-1)^n sqrt(n!/m!)
                   (sqrt(2) z)^{m-n} L_n^{m-n}(2 |z|^2),   z = x + i p,

and W_{mn} = conj(W_{nm}). An operator enters as its real coordinates
(fock._coordinates) in the orthonormal Hermitian basis, whose Wigner
functions are the real rows W_{kk}, C_k and S_k, W_{k+q,k} = (C_k + i S_k)/sqrt(2);
_band_values alone computes them. The generalized Laguerre values come
from the upward three-term recurrence with the Gaussian envelope folded in
from the start, which keeps every intermediate bounded
(|e^{-xi/2} L_n^d(xi)| is at most binom(n+d, n) for xi >= 0).

Integrals over samples are trapezoid-weighted sums; one helper gives the
weights of uniform and non-uniform axes alike.
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .fock import DensityOperator, FockDim, _coordinates, _order_rows

__all__ = [
    "QuadratureGrid",
    "WignerField",
    "wigner_basis",
    "wigner_basis_table",
    "wigner_of",
    "weyl_symbol",
    "grid_integral",
    "overlap",
]

_SQRT2 = math.sqrt(2.0)
# cap on a basis table's 8 D^2 n_x n_p bytes; n_max 63 at 136^2 points needs 0.61e9
_MAX_TABLE_BYTES = 2_000_000_000


def _trapezoid_weights(steps) -> np.ndarray:
    """Weights w with sum(w * f) the trapezoid integral of samples f.

    ``steps`` are the n - 1 gaps between samples: constant on a grid axis,
    np.diff(axis) on any other.
    """
    half = np.asarray(steps, dtype=float) / 2.0
    return np.append(half, 0.0) + np.append(0.0, half)


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform rectangular grid in phase space, x index first."""

    x_min: float = -5.0
    x_max: float = 5.0
    p_min: float = -5.0
    p_max: float = 5.0
    n_x: int = 161
    n_p: int = 161

    def __post_init__(self):
        if not (np.isfinite([self.x_min, self.x_max, self.p_min, self.p_max]).all()
                and self.x_max > self.x_min and self.p_max > self.p_min):
            raise ValueError("grid bounds must be finite and increasing")
        if not all(isinstance(n, (int, np.integer)) and n >= 2 for n in (self.n_x, self.n_p)):
            raise ValueError("grid needs an integer count of at least 2 points per axis")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def ps(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n_p - 1)

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid weights [ix, ip]: sum(weights * f) integrates f."""
        wx = _trapezoid_weights(np.full(self.n_x - 1, self.dx))
        wp = _trapezoid_weights(np.full(self.n_p - 1, self.dp))
        return np.outer(wx, wp)


@dataclass(frozen=True, eq=False)
class WignerField:
    """Real Wigner values sampled on a grid, indexed [ix, ip]."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("Wigner values are real; got a complex array")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_x, self.grid.n_p):
            raise ValueError(
                f"values shape {vals.shape} does not match grid "
                f"({self.grid.n_x}, {self.grid.n_p})"
            )
        object.__setattr__(self, "values", vals)

    def integral(self) -> float:
        return grid_integral(self.values, self.grid)


def _band_values(counts, x, p):
    """The real basis rows of each order q = 0, 1, ..., len(counts) - 1 at the
    given points, counts[q] of them: W_{|k><k|} for q = 0, and for q > 0 C_k
    then S_k with W_{|k+q><k|} = (C_k + i S_k)/sqrt(2), k < counts[q].

    Yields an array (rows,) + broadcast shape per order, None where counts[q]
    is 0. The recurrence runs on T_k = e^{-xi/2} L_k^q(xi), which never
    overflows; the band prefactor, (u + i v) = (sqrt(2) conj(z))^q carried
    from order to order, is applied afterwards, with points where the
    envelope underflowed to zero forced to exactly zero.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    shape = np.broadcast_shapes(x.shape, p.shape)
    xi = 2.0 * (x * x + p * p)
    env = np.exp(-0.5 * xi)
    u, v = np.ones(shape), np.zeros(shape)
    for q, count in enumerate(counts):
        if q:
            u, v = _SQRT2 * (u * x + v * p), _SQRT2 * (v * x - u * p)
        if not count:
            yield None
            continue
        ts = np.empty((count,) + shape)
        ts[0] = env
        for k in range(1, count):
            before = ts[k - 2] if k > 1 else 0.0
            ts[k] = ((2 * k - 1 + q - xi) * ts[k - 1] - (k - 1 + q) * before) / k
        coeff = [(1.0 if q == 0 else _SQRT2) * ((-1) ** k / math.pi)
                 * math.exp(0.5 * (math.lgamma(k + 1) - math.lgamma(k + q + 1)))
                 for k in range(count)]
        ts *= np.reshape(coeff, (count,) + (1,) * len(shape))
        rows = ts if q == 0 else np.concatenate((ts * u, ts * v))
        np.copyto(rows, 0.0, where=env == 0.0)
        yield rows


def _basis_rows(dim: FockDim, x, p) -> np.ndarray:
    """All D^2 real basis rows at the points (x, p), shape (D^2,) + broadcast
    shape, grouped by order as fock._order_rows gives."""
    size = dim.size
    table = np.empty((size * size,) + np.broadcast_shapes(np.shape(x), np.shape(p)))
    for (_, rows), band in zip(_order_rows(size), _band_values(range(size, 0, -1), x, p)):
        table[rows] = band
    return table


def wigner_basis(n: int, m: int, x, p):
    """Wigner function of |n><m| at the given quadrature points, complex."""
    if n < 0 or m < 0:
        raise ValueError("Fock indices must be non-negative")
    q, k = abs(n - m), min(n, m)
    *_, rows = _band_values([0] * q + [k + 1], x, p)
    # W_{|k+q><k|} = (C_k + i S_k)/sqrt(2), and W_{|k><k+q|} is its conjugate
    vals = (rows[k] + (1j if n > m else -1j) * rows[2 * k + 1]) / _SQRT2 if q else rows[k] + 0j
    return complex(vals) if vals.ndim == 0 else vals


_CacheInfo = namedtuple("CacheInfo", "hits misses entries nbytes")
_tables = weakref.WeakValueDictionary()  # (dim, grid) -> table, while a caller holds it
_table_stats = {"hits": 0, "misses": 0}


def wigner_basis_table(dim: FockDim, grid: QuadratureGrid) -> np.ndarray:
    """The D^2 real basis rows of _basis_rows on the grid, shape (D^2, n_x n_p)
    with points in C order, read-only; refused above _MAX_TABLE_BYTES before it
    is allocated.

    A table is shared while any caller holds it, such as a FactoredKernel's
    b_in and b_out, and freed with its last holder. ``cache_info()`` counts
    hits and misses as functools.lru_cache does, and the entries and bytes of
    the live tables; ``cache_clear()`` forgets them all.
    """
    key = (dim, grid)
    table = _tables.get(key)
    if table is not None:
        _table_stats["hits"] += 1
        return table
    _table_stats["misses"] += 1
    size = 8 * dim.size ** 2 * grid.n_x * grid.n_p
    if size > _MAX_TABLE_BYTES:
        raise ValueError(f"Wigner basis table of {size:.3e} bytes exceeds the cap "
                         f"{_MAX_TABLE_BYTES:.1e}; use a coarser grid or a smaller n_max")
    table = _basis_rows(dim, grid.xs[:, None], grid.ps[None, :]).reshape(dim.size ** 2, -1)
    table.flags.writeable = False
    _tables[key] = table
    return table


def _cache_info() -> _CacheInfo:
    return _CacheInfo(_table_stats["hits"], _table_stats["misses"], len(_tables),
                     sum(t.nbytes for t in _tables.values()))


def _cache_clear() -> None:
    _tables.clear()
    _table_stats.update(hits=0, misses=0)


wigner_basis_table.cache_info = _cache_info
wigner_basis_table.cache_clear = _cache_clear


def wigner_of(rho: DensityOperator, grid: QuadratureGrid) -> WignerField:
    """W_rho on the grid: rho's real coordinates times the basis table."""
    if rho.modes != 1:
        raise ValueError("grid Wigner sampling is single-mode only")
    vals = _coordinates(rho.matrix) @ wigner_basis_table(rho.dim, grid)
    return WignerField(grid, vals.reshape(grid.n_x, grid.n_p))


def weyl_symbol(mat: np.ndarray, dim: FockDim, grid: QuadratureGrid) -> np.ndarray:
    """Weyl symbol 2 pi W_A of a Hermitian operator, real; any other operator is
    refused with ValueError.

    The untruncated identity resums to 1; at finite n_max the pointwise
    values of slowly-decaying symbols oscillate, only integrals against
    converged Wigner functions are trustworthy.
    """
    vals = DensityOperator(dim, mat).matrix  # checks the shape and Hermiticity
    sym = 2.0 * math.pi * (_coordinates(vals) @ wigner_basis_table(dim, grid))
    return sym.reshape(grid.n_x, grid.n_p)


def grid_integral(values: np.ndarray, grid: QuadratureGrid) -> float:
    return float(np.sum(values * grid.weights))


def overlap(a: WignerField, b: WignerField) -> float:
    """Tr(A B) = 2 pi Int W_A W_B for fields on the same grid."""
    if a.grid != b.grid:
        raise ValueError("overlap needs both fields on the same grid")
    return 2.0 * math.pi * grid_integral(a.values * b.values, a.grid)
