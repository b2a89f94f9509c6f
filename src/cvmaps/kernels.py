"""Transfer kernels: phase-space representations of Fock-space maps.

A map E acting on Wigner functions is an integral transform

    W'(x', p') = Int dx dp f(x', p', x, p) W(x, p).

The Hermitian operators |k><k|, (|k><k+q| + |k+q><k|)/sqrt(2) and
i(|k><k+q| - |k+q><k|)/sqrt(2) are orthonormal under Tr(A B) =
2 pi Int W_A W_B; their Wigner functions are the real rows G of
fock._band_values. On their real coordinates a map that keeps
Hermiticity is a real D^2 x D^2 transfer matrix R, the phase-space analogue
of the Pauli transfer matrix, and f = 2 pi G_out^T R G_in. The complex form
2 pi sum E^{n,m}_{l,k} conj(W_{|n><m|}(x, p)) W_{|l><k|}(x', p') needs the
conjugate on the input side for the identity to be the reproducing kernel;
in real coordinates both sides are the same real rows and R = I gives it.

Kernel variants: GaussianKernel (the closed form of a Gaussian map,
f = weight N(r' - X r - d; Y), with the delta kernel of a point map as
Y = 0), GridKernel (dense 4D samples, indexed [out_x, out_p, in_x, in_p]),
FactoredKernel (grid samples of a tensor kept as the unevaluated product
2 pi G_out^T R G_in, G streamed by order), SumKernel (weighted sums), RadialKernel
(f(r', r, theta) samples). Each type carries its own apply, marginal,
norm, scaling, negativity and sampling rules; the module functions below
delegate to them. Closed-form kernels compose by one rule,
(X2 X1, X2 Y1 X2^T + Y2, X2 d1 + d2, w1 w2), and sampled kernels
through the grid. Every producer of dense samples builds them real,
refused by _require_capped above the one value cap before they are
allocated, zeroes each entry below sqrt(float64 tiny) in magnitude and
hands them to GridKernel._of_floored; a caller's real array is kept as a
floored read-only copy. Transfer functions are real, since every tensor
a caller can build keeps Hermiticity: FactoredKernel.dense is one real
product, and a complex sample array, weight or scale factor is refused
with ValueError. Grid composition multiplies blocks of rows of the
weighted f2, floored again, by f1's stored samples, so no product is
subnormal and neither factor is copied whole. Integrals over samples use
the trapezoid weights of QuadratureGrid.weights and RadialKernel.weights;
a radial integral needs two or more points on each axis it integrates
over. Radial forms sum the angular harmonics q >= 0 of a map that passes
tensors.require_phase_invariant, their cos and sin parts read from the
same real product R G_in, and are refused above the same value cap as
dense grid samples. Kernels keep no array a caller can write to.
Bookkeeping convention: integrating f over the output plane gives the
Weyl symbol of E^dag E (identity maps to the constant 1), and
kernel_norm(f) = (1/2 pi) Int f d^4 = Tr(E^dag E).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .fock import _order_rows
from .tensors import (KrausSet, ProcessTensor, _adopt, _block_product, _frozen,
                      require_phase_invariant, scale_tensor, tensor_from_kraus)
from .wigner import (QuadratureGrid, WignerField, _analyze, _basis_rows, _require_capped,
                     _require_streamable, _synthesize, _trapezoid_weights)

__all__ = [
    "GaussianKernel",
    "GridKernel",
    "FactoredKernel",
    "SumKernel",
    "RadialKernel",
    "kernel_from_tensor",
    "kernel_from_kraus",
    "apply_kernel",
    "compose_kernels",
    "input_marginal",
    "output_marginal",
    "kernel_norm",
    "radial_form",
    "negativity",
    "scale_kernel",
    "sample_kernel",
    "band_concentration",
]

# Stored samples and composition's weighted f2 hold no nonzero entry below
# sqrt(float64 tiny), about 1.49e-154, so that no product of two factor
# entries is subnormal: subnormal operands and results slow the matmul
# several-fold. Each composed sample moves by at most
# N_mid * _FACTOR_FLOOR * max(max |w f2|, max |f1|), plus _FACTOR_FLOOR
# where it is itself floored.
_FACTOR_FLOOR = math.sqrt(np.finfo(float).tiny)
# entries per row block of the weighted f2 that composition floors and
# multiplies at a time (4 MB), and per block that _floored reads
_BLOCK_ENTRIES = 1 << 19
_COARSE_SPACING = 0.25

_DEFAULT_KERNEL_GRID = QuadratureGrid(-5.0, 5.0, -5.0, 5.0, 81, 81)


class _Kernel:
    """Rules shared by every kernel type; each type overrides what it supports."""

    def apply(self, w_in: WignerField) -> WignerField:
        raise TypeError(f"cannot apply kernel of type {type(self).__name__}")

    def marginal(self, grid: QuadratureGrid, over_output: bool) -> WignerField:
        raise TypeError(f"no marginal rule for {type(self).__name__}")

    def norm(self) -> float:
        raise TypeError(
            "kernel_norm requires sampled kernels; closed-form kernels have "
            "truncation-dependent norms"
        )

    def scaled(self, c: float):
        raise TypeError(f"cannot scale kernel of type {type(self).__name__}")

    def negativity(self) -> dict:
        raise TypeError(f"no negativity rule for {type(self).__name__}")

    def sample(self, out_grid: QuadratureGrid, in_grid: QuadratureGrid):
        raise TypeError(f"cannot sample {type(self).__name__}")


@dataclass(frozen=True, eq=False)
class GaussianKernel(_Kernel):
    """f(r', r) = weight N(r' - X r - d; Y), the closed form of a Gaussian map.

    N(u; Y) is the normalized Gaussian density with covariance Y (vacuum
    has Y = I/2); Y = 0 is the delta kernel delta(r' - X r - d), a
    volume-preserving substitution (|det X| = 1). Coordinates are ordered
    (x_1, p_1, ..., x_M, p_M), so X, Y are 2M x 2M and d has 2M entries.
    A state with mean r and covariance V leaves with mean X r + d and
    covariance X V X^T + Y, and two kernels compose by the same rule.
    """

    X: np.ndarray
    Y: np.ndarray
    d: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        x = np.array(self.X, dtype=float)
        y = np.array(self.Y, dtype=float)
        d = np.array(self.d, dtype=float)
        n = x.shape[0] if x.ndim == 2 else 0
        if n == 0 or n % 2 or x.shape != (n, n) or y.shape != (n, n) or d.shape != (n,):
            raise ValueError("X and Y must be 2M x 2M and d of length 2M")
        weight = float(_real(self.weight, "weight"))
        if not all(np.isfinite(arr).all() for arr in (x, y, d, weight)):
            raise ValueError("X, Y, d and the weight must be finite")
        if np.max(np.abs(y - y.T)) > 1e-12 * max(1.0, float(np.max(np.abs(y)))):
            raise ValueError("noise covariance Y must be symmetric")
        y = (y + y.T) / 2.0
        if not y.any():
            if abs(abs(np.linalg.det(x)) - 1.0) > 1e-9:
                raise ValueError("a delta kernel (Y = 0) must keep volume: |det X| = 1")
        elif np.linalg.eigvalsh(y)[0] <= 0.0:
            raise ValueError("noise covariance Y must be 0 or positive definite")
        for name, arr in (("X", x), ("Y", y), ("d", d)):
            object.__setattr__(self, name, _frozen(arr))
        object.__setattr__(self, "weight", weight)

    @property
    def modes(self) -> int:
        return self.X.shape[0] // 2

    @property
    def is_delta(self) -> bool:
        return not self.Y.any()

    def _single_mode(self):
        if self.modes != 1:
            raise ValueError("only single-mode kernels act on Wigner fields")

    def _gaussian(self):
        """(-Y^-1 / 2, weight / sqrt(det 2 pi Y)): exponent form and peak value."""
        if self.is_delta:
            raise TypeError("delta kernels are symbolic; they have no sampled values")
        peak = self.weight / math.sqrt(np.linalg.det(2.0 * math.pi * self.Y))
        return -0.5 * np.linalg.inv(self.Y), peak

    def _residual(self, row, out, xi, pi):
        # out - X[row] . (xi, pi) - d[row], skipping zero couplings
        u = np.asarray(out, dtype=float)
        for col, coord in ((0, xi), (1, pi)):
            if self.X[row, col] != 0.0:
                u = u - self.X[row, col] * np.asarray(coord)
        return u - self.d[row]

    def _values(self, xo, po, xi, pi) -> np.ndarray:
        """f at the points as a fresh writable array, broadcast only as far as
        the residuals reach."""
        self._single_mode()
        q, peak = self._gaussian()
        ux = self._residual(0, xo, xi, pi)
        up = self._residual(1, po, xi, pi)
        expo = np.asarray(q[0, 0] * ux * ux + q[1, 1] * up * up)
        if q[0, 1] != 0.0:
            expo += 2.0 * q[0, 1] * ux * up
        np.exp(expo, out=expo)
        expo *= peak
        return expo

    def evaluate(self, xo, po, xi, pi) -> np.ndarray:
        """Single-mode f at output (xo, po) and input (xi, pi), broadcast together."""
        shape = np.broadcast_shapes(*(np.shape(v) for v in (xo, po, xi, pi)))
        return np.broadcast_to(_frozen(self._values(xo, po, xi, pi)), shape)

    def apply(self, w_in):
        self._single_mode()
        grid = w_in.grid
        q, peak = self._gaussian()
        if self.X[0, 1] != 0.0 or self.X[1, 0] != 0.0 or self.Y[0, 1] != 0.0:
            raise TypeError(
                "closed-form apply needs X and Y that keep x and p apart; "
                "sample the kernel first (sample_kernel) and apply the samples"
            )
        gx = np.exp(q[0, 0] * (grid.xs[:, None] - self.X[0, 0] * grid.xs[None, :]
                               - self.d[0]) ** 2)
        gp = np.exp(q[1, 1] * (grid.ps[:, None] - self.X[1, 1] * grid.ps[None, :]
                               - self.d[1]) ** 2)
        vals = peak * (gx @ (w_in.values * grid.weights) @ gp.T)
        return WignerField(grid, vals)

    def marginal(self, grid, over_output):
        self._single_mode()
        grid = grid or _DEFAULT_KERNEL_GRID
        if over_output:
            const = self.weight
        else:
            # Int f dr = weight / |det X|: substitute u = X r
            det = abs(float(np.linalg.det(self.X)))
            if det == 0.0:
                raise ValueError("output marginal diverges for singular X")
            const = self.weight / det
        return WignerField(grid, np.full((grid.n_x, grid.n_p), const))

    def scaled(self, c):
        return replace(self, weight=c * self.weight)

    def negativity(self):
        _, peak = self._gaussian()
        if peak >= 0.0:
            return {"min_value": 0.0, "negative_volume": 0.0}
        # a negative Gaussian over the unbounded input plane has no finite integral
        return {"min_value": float(peak), "negative_volume": math.inf}

    def sample(self, out_grid, in_grid):
        shape = (out_grid.n_x, out_grid.n_p, in_grid.n_x, in_grid.n_p)
        _require_capped(math.prod(shape))
        vals = _floored(self._values(out_grid.xs[:, None, None, None],
                                     out_grid.ps[None, :, None, None],
                                     in_grid.xs[None, None, :, None],
                                     in_grid.ps[None, None, None, :]))
        return GridKernel._of_floored(out_grid, in_grid,
                                      np.broadcast_to(_frozen(vals), shape))


class _SampledKernel(_Kernel):
    """A kernel known through its samples on an output and an input grid.

    Each type integrates a weighted v over inputs (_push, giving a field on
    the output grid) and over outputs (_pull, on the input grid).
    """

    def apply(self, w_in):
        if self.in_grid != w_in.grid:
            raise ValueError("field grid does not match kernel input grid")
        return self._push(w_in.values * self.in_grid.weights)

    def marginal(self, grid, over_output):
        kept = self.in_grid if over_output else self.out_grid
        if grid is not None and grid != kept:
            raise ValueError("sampled kernels give marginals on their own grids only")
        if over_output:
            return self._pull(self.out_grid.weights)
        return self._push(self.in_grid.weights)

    def norm(self):
        return self.marginal(None, True).integral() / (2.0 * math.pi)

    def negativity(self):
        vals = self.values
        neg = np.where(vals < 0.0, -vals, 0.0)
        wo, wi = self.out_grid.weights.ravel(), self.in_grid.weights.ravel()
        part = wo @ neg.reshape(wo.size, wi.size) @ wi
        return {"min_value": float(vals.min()), "negative_volume": float(part)}

    def sample(self, out_grid, in_grid):
        if self.out_grid != out_grid or self.in_grid != in_grid:
            raise ValueError("grid kernel resampling is not supported")
        return self.dense()


@dataclass(frozen=True, eq=False)
class GridKernel(_SampledKernel):
    """Dense 4D samples f[out_x, out_p, in_x, in_p] on two grids.

    No stored sample is nonzero below _FACTOR_FLOOR in magnitude, and none
    is complex. A caller's real array, writable or not, is floored in the
    one read-only copy the kernel keeps; a complex one is refused. Producers
    hand their freshly floored real samples to _of_floored, which keeps them
    without a copy.
    """

    out_grid: QuadratureGrid
    in_grid: QuadratureGrid
    values: np.ndarray

    @classmethod
    def _of_floored(cls, out_grid, in_grid, values):
        """The kernel of read-only real samples its producer has just floored."""
        kernel = object.__new__(cls)
        object.__setattr__(kernel, "out_grid", out_grid)
        object.__setattr__(kernel, "in_grid", in_grid)
        object.__setattr__(kernel, "values", _adopt(values))
        kernel._check_shape(values)
        return kernel

    def _check_shape(self, vals):
        shape = (self.out_grid.n_x, self.out_grid.n_p,
                 self.in_grid.n_x, self.in_grid.n_p)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} != {shape}")

    def __post_init__(self):
        vals = np.asarray(self.values)
        self._check_shape(vals)
        _real(vals, "grid kernel samples")
        kept = np.array(vals, dtype=float, order="C")  # no one else holds it
        object.__setattr__(self, "values", _frozen(_floored(kept)))

    def _push(self, v):
        return WignerField(self.out_grid, np.tensordot(self.values, v, 2))

    def _pull(self, v):
        return WignerField(self.in_grid, np.tensordot(v, self.values, 2))

    def scaled(self, c):
        return GridKernel._of_floored(self.out_grid, self.in_grid,
                                      _frozen(_floored(c * self.values)))

    def dense(self):
        return self


@dataclass(frozen=True, eq=False)
class FactoredKernel(_SampledKernel):
    """Grid samples of a tensor's kernel, kept as 2 pi G_out^T R G_in.

    The kernel holds neither basis G: apply, marginals and norms stream it
    by order, G_in v (wigner._analyze), then R (tensors._block_product), then
    G_out^T (wigner._synthesize). ``values`` evaluates the real product
    (G_out^T R) G_in on each access, G_in a local table, and G_out read from
    it on equal grids, else built for one block of output points at a time.
    """

    out_grid: QuadratureGrid
    in_grid: QuadratureGrid
    tensor: ProcessTensor

    @property
    def values(self) -> np.ndarray:
        return self.dense().values

    def dense(self) -> GridKernel:
        """The samples as a GridKernel; they and G_in are refused above the cap."""
        dim, out, inp = self.tensor.dim, self.out_grid, self.in_grid
        side, n_out, n_in = dim.size ** 2, out.n_x * out.n_p, inp.n_x * inp.n_p
        _require_capped(n_out * n_in)
        _require_capped(side * n_in, "Wigner basis table", "use a coarser input grid")
        b_in = _basis_rows(dim, inp.xs[:, None], inp.ps[None, :]).reshape(side, n_in)
        flat = np.empty((n_out, n_in))
        step = max(1, 2 * _BLOCK_ENTRIES // side)  # 8 MB of G_out^T R, one block alive
        for lo in range(0, n_out, step):
            points = np.arange(lo, min(lo + step, n_out))
            b_out = (b_in[:, lo:lo + step] if out == inp else
                     _basis_rows(dim, out.xs[points // out.n_p], out.ps[points % out.n_p]))
            np.matmul(_block_product(self.tensor, b_out.T, left=True), b_in,
                      out=flat[lo:lo + step])
        flat *= 2.0 * math.pi
        vals = _frozen(_floored(flat)).reshape(out.n_x, out.n_p, inp.n_x, inp.n_p)
        return GridKernel._of_floored(out, inp, vals)

    def _push(self, v):
        t, grid = self.tensor, self.out_grid
        coords = _block_product(t, _analyze(v, t.dim, self.in_grid))
        return WignerField(grid, 2.0 * math.pi * _synthesize(coords, t.dim, grid))

    def _pull(self, v):
        t, grid = self.tensor, self.in_grid
        coords = _block_product(t, _analyze(v, t.dim, self.out_grid), left=True)
        return WignerField(grid, 2.0 * math.pi * _synthesize(coords, t.dim, grid))

    def scaled(self, c):
        return replace(self, tensor=scale_tensor(self.tensor, c))


@dataclass(frozen=True)
class SumKernel(_Kernel):
    """Weighted sum of kernels, e.g. exclusive heralded branches."""

    terms: tuple  # of (weight, kernel)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("SumKernel needs at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))
        for w, _ in self.terms:
            _real(w, "term weight")

    def _field_sum(self, field_of) -> WignerField:
        acc = None
        for weight, term in self.terms:
            part = field_of(term)
            vals = weight * part.values
            acc = vals if acc is None else acc + vals
        return WignerField(part.grid, acc)

    def apply(self, w_in):
        return self._field_sum(lambda k: k.apply(w_in))

    def marginal(self, grid, over_output):
        return self._field_sum(lambda k: k.marginal(grid, over_output))

    def norm(self):
        return float(sum(w * k.norm() for w, k in self.terms))

    def scaled(self, c):
        return SumKernel(tuple((c * w, k) for w, k in self.terms))

    def sample(self, out_grid, in_grid):
        total = None
        for w, term in self.terms:
            part = w * term.sample(out_grid, in_grid).values
            total = part if total is None else total + part
        return GridKernel._of_floored(out_grid, in_grid, _frozen(_floored(total)))


@dataclass(frozen=True, eq=False)
class RadialKernel(_Kernel):
    """f(r', r, theta) samples for phase-invariant maps, [ir', ir, itheta]."""

    rp_axis: np.ndarray
    r_axis: np.ndarray
    theta_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("rp_axis", "r_axis", "theta_axis", "values"):
            arr = _real(getattr(self, name), f"radial {name}")
            object.__setattr__(self, name, _adopt(np.asarray(arr, dtype=float)))
        if self.values.shape != (self.rp_axis.size, self.r_axis.size, self.theta_axis.size):
            raise ValueError("radial values do not match axes")

    def scaled(self, c):
        return replace(self, values=_frozen(c * self.values))

    @property
    def weights(self):
        """Trapezoid weights of the r', r and theta axes, which must be finite and
        strictly increasing, with two or more radii on each radial axis and none
        negative: others raise ValueError. A one-point theta axis has weight 0."""
        axes = (self.rp_axis, self.r_axis, self.theta_axis)
        ok = all(np.isfinite(a).all() and (np.diff(a) > 0.0).all() for a in axes)
        if not ok or any(a.size < 2 or (a < 0.0).any() for a in axes[:2]):
            raise ValueError("cannot integrate: axes must be finite and strictly "
                             "increasing, with two or more radii, none negative")
        return tuple(_trapezoid_weights(np.diff(axis)) for axis in axes)

    def _integral(self, vals) -> float:
        """Int vals r' r dr' dr dtheta over the samples, which need two or more angles."""
        if self.theta_axis.size < 2:
            raise ValueError("cannot integrate over a single angle")
        wrp, wr, wt = self.weights
        return float(vals @ wt @ (self.r_axis * wr) @ (self.rp_axis * wrp))

    def norm(self):
        return self._integral(self.values)

    def negativity(self):
        vals = self.values
        neg = np.where(vals < 0.0, -vals, 0.0)
        return {"min_value": float(vals.min()),
                "negative_volume": self._integral(neg)}


def _warn_if_coarse(grid: QuadratureGrid, name: str):
    if grid.dx > _COARSE_SPACING or grid.dp > _COARSE_SPACING:
        warnings.warn(
            f"{name} grid spacing ({grid.dx:.3f}, {grid.dp:.3f}) above "
            f"{_COARSE_SPACING}; quadratures may be inaccurate",
            RuntimeWarning,
            stacklevel=3,
        )


def kernel_from_tensor(t: ProcessTensor, in_grid: QuadratureGrid = None,
                       out_grid: QuadratureGrid = None) -> FactoredKernel:
    """Sample the transfer function of a process tensor on grids.

    The samples stay factored, so the dense cap applies only where
    ``FactoredKernel.dense`` evaluates them. A grid on which one order of the
    basis stream, D x N values, exceeds the cap is refused with ValueError.
    """
    in_grid = in_grid or _DEFAULT_KERNEL_GRID
    out_grid = out_grid or in_grid
    _warn_if_coarse(in_grid, "input")
    _warn_if_coarse(out_grid, "output")
    for grid in (in_grid, out_grid):
        _require_streamable(t.dim, grid)
    return FactoredKernel(out_grid, in_grid, t)


def kernel_from_kraus(k: KrausSet, in_grid: QuadratureGrid = None,
                      out_grid: QuadratureGrid = None) -> FactoredKernel:
    return kernel_from_tensor(tensor_from_kraus(k), in_grid, out_grid)


def sample_kernel(f, out_grid: QuadratureGrid, in_grid: QuadratureGrid = None) -> GridKernel:
    """Sample a kernel on grids as dense values.

    Delta kernels are symbolic records and cannot be sampled; grid kernels
    pass through unchanged when the grids already match.
    """
    return f.sample(out_grid, in_grid or out_grid)


def apply_kernel(f, w_in: WignerField) -> WignerField:
    """Integral transform of a Wigner field; output on the kernel's out grid."""
    return f.apply(w_in)


def _floored(a: np.ndarray) -> np.ndarray:
    """Real C-ordered a with every entry below _FACTOR_FLOOR in magnitude set to
    0, in place, _BLOCK_ENTRIES at a time, through boolean masks alone."""
    flat = a.reshape(-1)
    for lo in range(0, flat.size, _BLOCK_ENTRIES):
        blk = flat[lo:lo + _BLOCK_ENTRIES]
        np.copyto(blk, 0.0, where=(blk < _FACTOR_FLOOR) & (blk > -_FACTOR_FLOOR))
    return a


def compose_kernels(f2, f1):
    """Kernel of (f2 after f1): integrates out the intermediate plane."""
    if isinstance(f1, SumKernel):
        return SumKernel(tuple((w, compose_kernels(f2, k)) for w, k in f1.terms))
    if isinstance(f2, SumKernel):
        return SumKernel(tuple((w, compose_kernels(k, f1)) for w, k in f2.terms))
    if isinstance(f2, GaussianKernel) and isinstance(f1, GaussianKernel):
        if f2.modes != f1.modes:
            raise ValueError("mode counts differ")
        x2 = f2.X
        return GaussianKernel(x2 @ f1.X, x2 @ f1.Y @ x2.T + f2.Y,
                              x2 @ f1.d + f2.d, f1.weight * f2.weight)
    if isinstance(f2, _SampledKernel) and isinstance(f1, _SampledKernel):
        if f1.out_grid != f2.in_grid:
            raise ValueError("intermediate grids do not match")
        out, mid, inp = f2.out_grid, f2.in_grid, f1.in_grid
        _require_capped(out.n_x * out.n_p * inp.n_x * inp.n_p)
        # one product over the flattened intermediate plane, weights on f2,
        # streamed by blocks of f2's rows against f1's stored samples
        left = f2.values.reshape(out.n_x * out.n_p, -1)
        right = f1.values.reshape(mid.n_x * mid.n_p, -1)
        w = mid.weights.ravel()
        flat = np.empty((left.shape[0], right.shape[1]))
        step = max(1, _BLOCK_ENTRIES // left.shape[1])
        for lo in range(0, left.shape[0], step):
            rows = flat[lo:lo + step]
            np.matmul(_floored(left[lo:lo + step] * w), right, out=rows)
            _floored(rows)
        vals = _frozen(flat).reshape(out.n_x, out.n_p, inp.n_x, inp.n_p)
        return GridKernel._of_floored(out, inp, vals)
    raise TypeError(
        f"no composition rule for {type(f2).__name__} after {type(f1).__name__}"
    )


def input_marginal(f, grid: QuadratureGrid = None) -> WignerField:
    """Int f dx' dp' as a field over inputs; Weyl symbol of E^dag E.

    Sampled kernels keep their own input grid and refuse any other.
    """
    return f.marginal(grid, over_output=True)


def output_marginal(f, grid: QuadratureGrid = None) -> WignerField:
    """Int f dx dp as a field over outputs; Weyl symbol of E E^dag."""
    return f.marginal(grid, over_output=False)


def kernel_norm(f) -> float:
    """(1/2 pi) Int f d^4 = Tr(E^dag E), quadrature on the stored grids."""
    return f.norm()


def radial_form(t: ProcessTensor, rp_axis=None, r_axis=None,
                theta_axis=None) -> RadialKernel:
    """Sample f(r', r, theta) of a phase-invariant map directly from the tensor.

    Points are (x, p) = (r, 0) and (x', p') = (r' cos theta, r' sin theta).
    The basis rows are evaluated on the real axis, once for r' and once for
    r, where their S rows vanish. W_{lk}(r' e^{i theta}) = W_{lk}(r')
    e^{-i q theta} for q = l - k, so at angle theta the output's C rows of
    order q are C' cos(q theta) and its S rows -C' sin(q theta), and f is
    2 pi sum_{q >= 0} [cos(q theta) C'^T (R G)_C - sin(q theta) C'^T (R G)_S]
    with R G = tensors._block_product of the input rows. The sum is exact: a
    map that fails tensors.require_phase_invariant is refused with its
    PhaseSymmetryError, and R is read from the band tensor that gate
    returns. Besides the output, the basis rows, R G and the per-order parts
    of one block of output radii (1 MB) are held; a form whose output or
    basis tables would exceed wigner._MAX_GRID_VALUES is refused before either
    is built.
    """
    t = require_phase_invariant(t)
    radii = np.linspace(0.0, 5.0, 101)
    rp_axis = np.asarray(radii if rp_axis is None else rp_axis, float)
    r_axis = np.asarray(radii if r_axis is None else r_axis, float)
    theta_axis = np.asarray(np.linspace(0.0, 2 * math.pi, 73)
                            if theta_axis is None else theta_axis, float)
    d = t.dim.size
    _require_radial_size(d, rp_axis.size, r_axis.size, theta_axis.size)

    b_in = _basis_rows(t.dim, r_axis, 0.0)
    b_out = b_in if np.array_equal(rp_axis, r_axis) else _basis_rows(t.dim, rp_axis, 0.0)
    half = _block_product(t, b_in)
    # cos(q theta), q >= 0, then sin(q theta), q > 0, against their radial parts
    trig = np.concatenate((np.cos(np.multiply.outer(range(d), theta_axis)),
                           np.sin(np.multiply.outer(range(1, d), theta_axis))))
    vals = np.empty((rp_axis.size, r_axis.size, theta_axis.size))
    step = max(1, _BLOCK_ENTRIES // 4 // (r_axis.size * len(trig)))
    for lo in range(0, rp_axis.size, step):
        out_rows = b_out[:, lo:lo + step]
        parts = np.empty((out_rows.shape[1], r_axis.size, len(trig)))
        for q, rows in _order_rows(d):
            c = slice(rows.start, rows.start + d - q)  # the C rows; the S rows follow
            parts[..., q] = out_rows[c].T @ half[c]
            if q:
                parts[..., d - 1 + q] = -(out_rows[c].T @ half[c.stop:rows.stop])
        np.matmul(parts, trig, out=vals[lo:lo + step])
    vals *= 2.0 * math.pi
    return RadialKernel(rp_axis, r_axis, theta_axis, _frozen(vals))


def _require_radial_size(d: int, n_rp: int, n_r: int, n_theta: int) -> None:
    """Refuse a radial form whose output or basis tables exceed the dense cap."""
    _require_capped(max(n_rp * n_r * n_theta, d * d * max(n_rp, n_r)), "radial form",
                    "use fewer radii or angles")


def _real(value, what: str):
    """value, refused with ValueError when complex: transfer functions are real."""
    if np.iscomplexobj(value):
        raise ValueError(f"complex {what}; transfer functions are real")
    return value


def negativity(f) -> dict:
    """Most negative value and integrated negative part of a kernel."""
    return f.negativity()


def band_concentration(rk: RadialKernel, half_width: float = 0.5) -> float:
    """Fraction of squared mass within |r' - r| <= half_width at the first theta.

    Concentration is measured on the squared values. The exact kernels of
    photon-number-shifting maps are delta derivatives supported on r' = r,
    and the truncated representation of such a ridge carries oscillatory
    tails whose absolute mass grows logarithmically with the cutoff; the
    squared mass converges onto the ridge instead.
    """
    sl = rk.values[:, :, 0] ** 2
    band = np.abs(rk.rp_axis[:, None] - rk.r_axis[None, :]) <= half_width
    wrp, wr, _ = rk.weights
    total = wrp @ sl @ wr
    inside = wrp @ np.where(band, sl, 0.0) @ wr
    if total == 0.0:
        return 1.0
    return float(inside / total)


def scale_kernel(f, c: float):
    """Kernel scaled by a real constant; negativity metrics scale by exactly c."""
    return f.scaled(_real(c, "scale factor"))
