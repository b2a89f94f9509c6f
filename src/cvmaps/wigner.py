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
fock._band_values alone computes them, order by order. The generalized
Laguerre values come from the upward three-term recurrence with the Gaussian
envelope folded in from the start, which keeps every intermediate bounded
(|e^{-xi/2} L_n^d(xi)| is at most binom(n+d, n) for xi >= 0).

Grid products stream the basis by order (_synthesize, _analyze) and never
build the D^2 x N table that _basis_rows gives for dense samples and radial
forms; one cap, _MAX_GRID_VALUES, refuses each before anything is allocated.

Integrals over samples are trapezoid-weighted sums; one helper gives the
weights of uniform and non-uniform axes alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityOperator, FockDim, _band_values, _coordinates, _order_rows

__all__ = [
    "QuadratureGrid",
    "WignerField",
    "wigner_basis",
    "wigner_of",
    "weyl_symbol",
    "grid_integral",
    "overlap",
]

_SQRT2 = math.sqrt(2.0)
# The one cap on dense values, each refused before it is allocated: grid kernel
# samples, a basis table, and one order (D x N) of a basis stream
_MAX_GRID_VALUES = 70_000_000


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


def _require_capped(n_vals: int, what: str = "grid kernel",
                    hint: str = "use coarser grids, the factored operations or radial_form"):
    """Refuse more than _MAX_GRID_VALUES dense values before any is allocated."""
    if n_vals > _MAX_GRID_VALUES:
        raise ValueError(f"{what} with {n_vals} values exceeds the dense cap; {hint}")


def _require_streamable(dim: FockDim, grid: QuadratureGrid) -> None:
    """Refuse a basis stream whose one order, D x N values, exceeds the cap."""
    _require_capped(dim.size * grid.n_x * grid.n_p, "Wigner basis stream",
                    "use a coarser grid or a smaller n_max")


def _grid_bands(dim: FockDim, grid: QuadratureGrid):
    """(fock._order_rows' (q, rows), fock._band_values' tuple) per order on
    the grid's points in C order; refused before it starts above the cap."""
    _require_streamable(dim, grid)
    x, p = (axis.ravel() for axis in np.meshgrid(grid.xs, grid.ps, indexing="ij"))
    return zip(_order_rows(dim.size), _band_values(range(dim.size, 0, -1), x, p))


def _synthesize(coords: np.ndarray, dim: FockDim, grid: QuadratureGrid) -> np.ndarray:
    """sum_j coords[j] G_j on the grid, shape (n_x, n_p): the field of real
    coordinates (fock._coordinates). The coefficients fold into the
    coordinates, so no row is scaled: order q adds [(c a)^T T] u + [(c b)^T T] v
    for its C and S coordinates a and b (order 0 has no S rows, and u = 1),
    each product taken on the distinct radii."""
    bands = _grid_bands(dim, grid)  # refused here, before acc is allocated
    acc = np.zeros(grid.n_x * grid.n_p)
    for (q, rows), (ts, coeff, u, v, at) in bands:
        sums = (coeff * coords[rows].reshape(-1, len(coeff))) @ ts
        acc += sums[0][at] * u
        if q:
            acc += sums[1][at] * v
    return acc.reshape(grid.n_x, grid.n_p)


def _analyze(values: np.ndarray, dim: FockDim, grid: QuadratureGrid) -> np.ndarray:
    """G v: the real coordinates, (D^2,), of a weighted field v, (n_x, n_p),
    i.e. its sum against each basis row on the grid."""
    flat = np.ravel(values)
    out = np.empty(dim.size ** 2)
    for (q, rows), (ts, coeff, u, v, at) in _grid_bands(dim, grid):
        # the field times u (and v), summed over the points of each distinct radius
        sums = np.stack([np.bincount(at, w * flat, ts.shape[1]) for w in (u, v)[:1 + (q > 0)]])
        out[rows] = (coeff * (sums @ ts.T)).ravel()
    return out


def _basis_rows(dim: FockDim, x, p) -> np.ndarray:
    """All D^2 real basis rows at the points (x, p), shape (D^2,) + broadcast
    shape, grouped by order as fock._order_rows gives, zero where the envelope
    underflowed."""
    size = dim.size
    table = np.empty((size * size,) + np.broadcast_shapes(np.shape(x), np.shape(p)))
    bands = _band_values(range(size, 0, -1), x, p)
    for (q, rows), (ts, coeff, u, v, at) in zip(_order_rows(size), bands):
        if q == 0:
            dead = u == 0.0  # order 0's prefactor is 1 wherever the envelope is not 0
        ts = np.take(ts * coeff[:, None], at, axis=1)
        band = ts if q == 0 else np.concatenate((ts * u, ts * v))
        np.copyto(band, 0.0, where=dead)
        table[rows] = band
    return table


def wigner_basis(n: int, m: int, x, p):
    """Wigner function of |n><m| at the given quadrature points, complex."""
    if n < 0 or m < 0:
        raise ValueError("Fock indices must be non-negative")
    q, k = abs(n - m), min(n, m)
    *_, (ts, coeff, u, v, at) = _band_values([0] * q + [k + 1], x, p)
    row = ts[k, at] * coeff[k]
    # W_{|k+q><k|} = (C_k + i S_k)/sqrt(2), and W_{|k><k+q|} is its conjugate
    vals = (row * u + (1j if n > m else -1j) * (row * v)) / _SQRT2 if q else row + 0j
    return complex(vals) if vals.ndim == 0 else vals


def wigner_of(rho: DensityOperator, grid: QuadratureGrid) -> WignerField:
    """W_rho on the grid, synthesized from rho's real coordinates order by order."""
    if rho.modes != 1:
        raise ValueError("grid Wigner sampling is single-mode only")
    return WignerField(grid, _synthesize(_coordinates(rho.matrix), rho.dim, grid))


def weyl_symbol(mat: np.ndarray, dim: FockDim, grid: QuadratureGrid) -> np.ndarray:
    """Weyl symbol 2 pi W_A of a Hermitian operator, real; any other operator is
    refused with ValueError.

    The untruncated identity resums to 1; at finite n_max the pointwise
    values of slowly-decaying symbols oscillate, only integrals against
    converged Wigner functions are trustworthy.
    """
    vals = DensityOperator(dim, mat).matrix  # checks the shape and Hermiticity
    return 2.0 * math.pi * _synthesize(_coordinates(vals), dim, grid)


def grid_integral(values: np.ndarray, grid: QuadratureGrid) -> float:
    return float(np.sum(values * grid.weights))


def overlap(a: WignerField, b: WignerField) -> float:
    """Tr(A B) = 2 pi Int W_A W_B for fields on the same grid."""
    if a.grid != b.grid:
        raise ValueError("overlap needs both fields on the same grid")
    return 2.0 * math.pi * grid_integral(a.values * b.values, a.grid)
