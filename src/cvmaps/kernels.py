"""Transfer kernels: phase-space representations of Fock-space maps.

A map E acting on Wigner functions is an integral transform

    W'(x', p') = Int dx dp f(x', p', x, p) W(x, p),

with f built from the process tensor as

    f = 2 pi sum_{l,k,n,m} E^{n,m}_{l,k} conj(W_{|n><m|}(x, p)) W_{|l><k|}(x', p').

The conjugate on the input-side basis function is required for the
identity tensor to act as the reproducing kernel; with real symmetric
combinations it is invisible, which makes it easy to drop by accident.

Kernel variants: AffineDelta (coordinate substitutions, Jacobian 1),
GaussianKernel (per-quadrature affine Gaussians), GridKernel (dense 4D
samples, indexed [out_x, out_p, in_x, in_p]), FactoredKernel (grid samples
of a tensor kept as the unevaluated product 2 pi B_out^T E conj(B_in)),
SumKernel (weighted sums), RadialKernel (f(r', r, theta) samples). Each
type carries its own apply, marginal, norm, scaling, negativity and
sampling rules; the module functions below delegate to them.
Bookkeeping convention: integrating f over the output plane gives the
Weyl symbol of E^dag E (identity maps to the constant 1), and
kernel_norm(f) = (1/2 pi) Int f d^4 = Tr(E^dag E).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .tensors import KrausSet, ProcessTensor, tensor_from_kraus
from .wigner import (QuadratureGrid, WignerField, _basis_values, _trapz,
                     wigner_basis_table)

__all__ = [
    "AffineDelta",
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
]

_MAX_GRID_VALUES = 70_000_000
_COARSE_SPACING = 0.25
# bytes of output basis values radial_form evaluates at once
_RADIAL_BLOCK_BYTES = 64 * 2 ** 20

_DEFAULT_KERNEL_GRID = QuadratureGrid(-5.0, 5.0, -5.0, 5.0, 81, 81)


def _axis_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] = w[-1] = step / 2
    return w


def _weighted(values: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Trapezoid-weighted samples on a grid, ready to be summed."""
    wx = _axis_weights(grid.n_x, grid.dx)
    wp = _axis_weights(grid.n_p, grid.dp)
    return values * wx[:, None] * wp[None, :]


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


@dataclass(frozen=True)
class AffineDelta(_Kernel):
    """Delta kernel recording input coordinates as a function of output.

    r_in = matrix @ r_out + offset, coordinates ordered
    (x_1, p_1, ..., x_M, p_M). Jacobian is unity (|det matrix| = 1), so
    the action on Wigner functions is plain substitution,
    W'(r') = W(matrix @ r' + offset).
    """

    matrix: np.ndarray
    offset: np.ndarray
    modes: int = 1

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        off = np.asarray(self.offset, dtype=float)
        n = 2 * self.modes
        if mat.shape != (n, n) or off.shape != (n,):
            raise ValueError("coordinate relation has wrong shape")
        if abs(abs(np.linalg.det(mat)) - 1.0) > 1e-9:
            raise ValueError("coordinate relation must be volume preserving")
        mat = mat.copy(); mat.flags.writeable = False
        off = off.copy(); off.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "offset", off)

    @property
    def input_modes(self) -> int:
        return self.modes

    @property
    def output_modes(self) -> int:
        return self.modes

    def input_coords(self, out_coords: np.ndarray) -> np.ndarray:
        out_coords = np.asarray(out_coords, dtype=float)
        return out_coords @ self.matrix.T + self.offset

    def apply(self, w_in):
        if self.modes != 1:
            raise ValueError("only single-mode delta kernels can be applied")
        from scipy.interpolate import RegularGridInterpolator

        grid = w_in.grid
        interp = RegularGridInterpolator(
            (grid.xs, grid.ps), w_in.values, bounds_error=False, fill_value=0.0
        )
        outx = grid.xs[:, None, None]
        outp = grid.ps[None, :, None]
        pts = np.concatenate(
            [np.broadcast_to(outx, (grid.n_x, grid.n_p, 1)),
             np.broadcast_to(outp, (grid.n_x, grid.n_p, 1))], axis=2
        ).reshape(-1, 2)
        vals = interp(self.input_coords(pts)).reshape(grid.n_x, grid.n_p)
        return WignerField(grid, vals)

    def marginal(self, grid, over_output):
        if self.modes != 1:
            raise ValueError("marginals are defined for single-mode kernels")
        return WignerField(grid, np.ones((grid.n_x, grid.n_p)))

    def sample(self, out_grid, in_grid):
        raise TypeError("delta kernels are symbolic; sampling one is ill-defined")


@dataclass(frozen=True)
class GaussianKernel(_Kernel):
    """f = prefactor exp(-((x'-mu_x x-off_x)/nu_x)^2 -((p'-mu_p p-off_p)/nu_p)^2).

    The trace-normalized prefactor for a channel built this way is
    1/(pi nu_x nu_p); the offsets extend the quadrature-diagonal family to
    displaced channels so that delta/Gaussian compositions stay closed.
    """

    mu_x: float
    nu_x: float
    mu_p: float
    nu_p: float
    prefactor: float
    off_x: float = 0.0
    off_p: float = 0.0

    input_modes = 1
    output_modes = 1

    def __post_init__(self):
        if self.nu_x == 0.0 or self.nu_p == 0.0:
            raise ValueError(
                "degenerate Gaussian channel (nu = 0); use AffineDelta"
            )

    def evaluate(self, xo, po, xi, pi) -> np.ndarray:
        ex = (np.asarray(xo) - self.mu_x * np.asarray(xi) - self.off_x) / self.nu_x
        ep = (np.asarray(po) - self.mu_p * np.asarray(pi) - self.off_p) / self.nu_p
        return self.prefactor * np.exp(-ex * ex - ep * ep)

    def apply(self, w_in):
        grid = w_in.grid
        gx = np.exp(-((grid.xs[:, None] - self.mu_x * grid.xs[None, :]
                       - self.off_x) / self.nu_x) ** 2)
        gp = np.exp(-((grid.ps[:, None] - self.mu_p * grid.ps[None, :]
                       - self.off_p) / self.nu_p) ** 2)
        wx = _axis_weights(grid.n_x, grid.dx)
        wp = _axis_weights(grid.n_p, grid.dp)
        vals = self.prefactor * ((gx * wx[None, :]) @ w_in.values
                                 @ (gp * wp[None, :]).T)
        return WignerField(grid, vals)

    def marginal(self, grid, over_output):
        if over_output:
            # integral over the full output plane, closed form
            const = self.prefactor * math.pi * abs(self.nu_x) * abs(self.nu_p)
            return WignerField(grid, np.full((grid.n_x, grid.n_p), const))
        # integral over inputs: substitute u = (x' - mu x - off)/nu per axis
        if self.mu_x == 0.0 or self.mu_p == 0.0:
            raise ValueError("output marginal diverges for mu = 0 kernels")
        const = (self.prefactor * math.pi * abs(self.nu_x) * abs(self.nu_p)
                 / abs(self.mu_x * self.mu_p))
        return WignerField(grid, np.full((grid.n_x, grid.n_p), const))

    def scaled(self, c):
        return replace(self, prefactor=c * self.prefactor)

    def negativity(self):
        return {"min_value": 0.0, "negative_volume": 0.0}

    def sample(self, out_grid, in_grid):
        vals = self.evaluate(out_grid.xs[:, None, None, None],
                             out_grid.ps[None, :, None, None],
                             in_grid.xs[None, None, :, None],
                             in_grid.ps[None, None, None, :])
        return GridKernel(out_grid, in_grid, vals)


def normalized_gaussian(mu_x: float, nu_x: float, mu_p: float, nu_p: float,
                        off_x: float = 0.0, off_p: float = 0.0) -> GaussianKernel:
    if nu_x == 0.0 or nu_p == 0.0:
        raise ValueError("degenerate Gaussian channel (nu = 0); use AffineDelta")
    pref = 1.0 / (math.pi * abs(nu_x) * abs(nu_p))
    return GaussianKernel(mu_x, nu_x, mu_p, nu_p, pref, off_x, off_p)


class _SampledKernel(_Kernel):
    """A kernel known through its samples on an output and an input grid."""

    input_modes = 1
    output_modes = 1

    def norm(self):
        return self.marginal(None, True).integral() / (2.0 * math.pi)

    def negativity(self):
        vals = self.values
        neg = np.where(vals < 0.0, -vals, 0.0)
        part = _trapz(neg, dx=self.in_grid.dp, axis=-1)
        part = _trapz(part, dx=self.in_grid.dx, axis=-1)
        part = _trapz(part, dx=self.out_grid.dp, axis=-1)
        part = _trapz(part, dx=self.out_grid.dx, axis=-1)
        return {"min_value": float(vals.min()), "negative_volume": float(part)}

    def _check_field(self, w_in: WignerField):
        if self.in_grid != w_in.grid:
            raise ValueError("field grid does not match kernel input grid")

    def _check_grids(self, out_grid, in_grid):
        if self.out_grid != out_grid or self.in_grid != in_grid:
            raise ValueError("grid kernel resampling is not supported")


@dataclass(frozen=True, eq=False)
class GridKernel(_SampledKernel):
    """Dense 4D samples f[out_x, out_p, in_x, in_p] on two grids."""

    out_grid: QuadratureGrid
    in_grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        shape = (self.out_grid.n_x, self.out_grid.n_p,
                 self.in_grid.n_x, self.in_grid.n_p)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} != {shape}")
        if np.iscomplexobj(vals):
            resid = float(np.max(np.abs(vals.imag)))
            scale = max(1.0, float(np.max(np.abs(vals.real))))
            if resid > 1e-10 * scale:
                raise ValueError(
                    f"kernel has imaginary residue {resid:.3e}; "
                    "transfer functions are real"
                )
            vals = vals.real
        vals = np.ascontiguousarray(vals, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def apply(self, w_in):
        self._check_field(w_in)
        vals = np.einsum("abxy,xy->ab", self.values, _weighted(w_in.values, self.in_grid))
        return WignerField(self.out_grid, vals)

    def marginal(self, grid, over_output):
        if over_output:
            g = self.out_grid
            wx = _axis_weights(g.n_x, g.dx)
            wp = _axis_weights(g.n_p, g.dp)
            vals = np.einsum("abxy,a,b->xy", self.values, wx, wp)
            return WignerField(self.in_grid, vals)
        g = self.in_grid
        wx = _axis_weights(g.n_x, g.dx)
        wp = _axis_weights(g.n_p, g.dp)
        vals = np.einsum("abxy,x,y->ab", self.values, wx, wp)
        return WignerField(self.out_grid, vals)

    def scaled(self, c):
        return GridKernel(self.out_grid, self.in_grid, c * self.values)

    def sample(self, out_grid, in_grid):
        self._check_grids(out_grid, in_grid)
        return self


@dataclass(frozen=True, eq=False)
class FactoredKernel(_SampledKernel):
    """Grid samples of a tensor's kernel, kept as 2 pi B_out^T E conj(B_in).

    b_out (D^2, N_out) and b_in (D^2, N_in) are the Wigner basis tables
    flattened over grid points and e is the tensor as a D^2 x D^2 matrix.
    The product has rank at most D^2, so apply, marginals and norms cost
    O(D^2 N + D^4): the quadrature weights are contracted into a basis
    table first. ``values`` evaluates the dense samples on each access.
    """

    out_grid: QuadratureGrid
    in_grid: QuadratureGrid
    b_out: np.ndarray
    e: np.ndarray
    b_in: np.ndarray

    def __post_init__(self):
        side = self.e.shape[0]
        if (self.e.shape != (side, side)
                or self.b_out.shape != (side, self.out_grid.n_x * self.out_grid.n_p)
                or self.b_in.shape != (side, self.in_grid.n_x * self.in_grid.n_p)):
            raise ValueError("factors do not match each other or the grids")

    @property
    def values(self) -> np.ndarray:
        return self.dense().values

    def dense(self) -> GridKernel:
        """The evaluated samples as a GridKernel, refused above the dense cap."""
        n_vals = self.b_out.shape[1] * self.b_in.shape[1]
        if n_vals > _MAX_GRID_VALUES:
            raise ValueError(
                f"grid kernel with {n_vals} samples exceeds the dense cap; "
                "use coarser grids, the factored operations or radial_form"
            )
        flat = 2.0 * math.pi * (self.b_out.T @ self.e @ np.conj(self.b_in))
        vals = flat.reshape(self.out_grid.n_x, self.out_grid.n_p,
                            self.in_grid.n_x, self.in_grid.n_p)
        return GridKernel(self.out_grid, self.in_grid, vals)

    def _out_field(self, weighted_in: np.ndarray) -> WignerField:
        # Int f w_in over inputs; conj(B_in) v = conj(B_in v) for real v
        half = self.e @ np.conj(self.b_in @ weighted_in.ravel())
        vals = 2.0 * math.pi * np.real(self.b_out.T @ half)
        return WignerField(self.out_grid,
                           vals.reshape(self.out_grid.n_x, self.out_grid.n_p))

    def apply(self, w_in):
        self._check_field(w_in)
        return self._out_field(_weighted(w_in.values, self.in_grid))

    def marginal(self, grid, over_output):
        if not over_output:
            ones = np.ones((self.in_grid.n_x, self.in_grid.n_p))
            return self._out_field(_weighted(ones, self.in_grid))
        g = self.out_grid
        row = (self.b_out @ _weighted(np.ones((g.n_x, g.n_p)), g).ravel()) @ self.e
        # Re(row conj(B_in)) = Re(conj(row) B_in)
        vals = 2.0 * math.pi * np.real(np.conj(row) @ self.b_in)
        return WignerField(self.in_grid,
                           vals.reshape(self.in_grid.n_x, self.in_grid.n_p))

    def scaled(self, c):
        return replace(self, e=c * self.e)

    def sample(self, out_grid, in_grid):
        self._check_grids(out_grid, in_grid)
        return self.dense()


@dataclass(frozen=True)
class SumKernel(_Kernel):
    """Weighted sum of kernels, e.g. exclusive heralded branches."""

    terms: tuple  # of (weight, kernel)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("SumKernel needs at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def input_modes(self) -> int:
        return self.terms[0][1].input_modes

    @property
    def output_modes(self) -> int:
        return self.terms[0][1].output_modes

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
        return GridKernel(out_grid, in_grid, total)


@dataclass(frozen=True, eq=False)
class RadialKernel(_Kernel):
    """f(r', r, theta) samples for phase-invariant maps, [ir', ir, itheta]."""

    rp_axis: np.ndarray
    r_axis: np.ndarray
    theta_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rp = np.asarray(self.rp_axis, dtype=float)
        r = np.asarray(self.r_axis, dtype=float)
        th = np.asarray(self.theta_axis, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (rp.size, r.size, th.size):
            raise ValueError("radial values do not match axes")
        for arr in (rp, r, th, vals):
            arr.flags.writeable = False
        object.__setattr__(self, "rp_axis", rp)
        object.__setattr__(self, "r_axis", r)
        object.__setattr__(self, "theta_axis", th)
        object.__setattr__(self, "values", vals)

    def scaled(self, c):
        return RadialKernel(self.rp_axis, self.r_axis, self.theta_axis,
                            c * self.values)

    def negativity(self):
        vals = self.values
        neg = np.where(vals < 0.0, -vals, 0.0)
        neg = neg * self.rp_axis[:, None, None] * self.r_axis[None, :, None]
        part = _trapz(neg, x=self.theta_axis, axis=-1)
        part = _trapz(part, x=self.r_axis, axis=-1)
        part = _trapz(part, x=self.rp_axis, axis=-1)
        return {"min_value": float(vals.min()), "negative_volume": float(part)}


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

    The samples stay factored, so any grid size builds; the dense cap
    applies only where ``FactoredKernel.dense`` evaluates the samples.
    """
    in_grid = in_grid or _DEFAULT_KERNEL_GRID
    out_grid = out_grid or in_grid
    _warn_if_coarse(in_grid, "input")
    _warn_if_coarse(out_grid, "output")
    d = t.dim.size
    b_in = wigner_basis_table(t.dim, in_grid).reshape(d * d, -1)
    b_out = wigner_basis_table(t.dim, out_grid).reshape(d * d, -1)
    return FactoredKernel(out_grid, in_grid, b_out, t.matrix, b_in)


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


def _compose_gaussians(f2: GaussianKernel, f1: GaussianKernel) -> GaussianKernel:
    # chain the in->mid and mid->out Gaussian integrals axis by axis
    mu_x = f2.mu_x * f1.mu_x
    mu_p = f2.mu_p * f1.mu_p
    nu_x = math.hypot(f2.nu_x, f2.mu_x * f1.nu_x)
    nu_p = math.hypot(f2.nu_p, f2.mu_p * f1.nu_p)
    off_x = f2.mu_x * f1.off_x + f2.off_x
    off_p = f2.mu_p * f1.off_p + f2.off_p
    pref = (f1.prefactor * f2.prefactor * math.pi
            * (abs(f1.nu_x) * abs(f2.nu_x) / nu_x)
            * (abs(f1.nu_p) * abs(f2.nu_p) / nu_p))
    return GaussianKernel(mu_x, nu_x, mu_p, nu_p, pref, off_x, off_p)


def _delta_axis_form(f: AffineDelta):
    """Per-quadrature (a_x, b_x, a_p, b_p) if the delta does not mix x and p."""
    m = f.matrix
    if f.modes != 1:
        return None
    if m[0, 1] != 0.0 or m[1, 0] != 0.0:
        return None
    return m[0, 0], f.offset[0], m[1, 1], f.offset[1]


def compose_kernels(f2, f1):
    """Kernel of (f2 after f1): integrates out the intermediate plane."""
    if isinstance(f1, SumKernel):
        return SumKernel(tuple((w, compose_kernels(f2, k)) for w, k in f1.terms))
    if isinstance(f2, SumKernel):
        return SumKernel(tuple((w, compose_kernels(k, f1)) for w, k in f2.terms))
    if isinstance(f2, AffineDelta) and isinstance(f1, AffineDelta):
        if f1.modes != f2.modes:
            raise ValueError("mode counts differ")
        return AffineDelta(
            f1.matrix @ f2.matrix,
            f1.matrix @ f2.offset + f1.offset,
            f1.modes,
        )
    if isinstance(f2, GaussianKernel) and isinstance(f1, GaussianKernel):
        return _compose_gaussians(f2, f1)
    if isinstance(f2, GaussianKernel) and isinstance(f1, AffineDelta):
        axis = _delta_axis_form(f1)
        if axis is None:
            raise ValueError(
                "delta kernel mixes x and p; compose through the grid path"
            )
        ax, bx, ap, bp = axis
        # mid = (in - b)/a per axis, from r_in = a r_mid + b
        return GaussianKernel(
            f2.mu_x / ax, f2.nu_x, f2.mu_p / ap, f2.nu_p,
            f2.prefactor,
            f2.off_x - f2.mu_x * bx / ax,
            f2.off_p - f2.mu_p * bp / ap,
        )
    if isinstance(f2, AffineDelta) and isinstance(f1, GaussianKernel):
        axis = _delta_axis_form(f2)
        if axis is None:
            raise ValueError(
                "delta kernel mixes x and p; compose through the grid path"
            )
        ax, bx, ap, bp = axis
        # substitute mid = a r_out + b into the first kernel's output slot;
        # pure substitution, so the peak value (prefactor) is unchanged
        return GaussianKernel(
            f1.mu_x / ax, f1.nu_x / abs(ax), f1.mu_p / ap, f1.nu_p / abs(ap),
            f1.prefactor,
            (f1.off_x - bx) / ax, (f1.off_p - bp) / ap,
        )
    if isinstance(f2, _SampledKernel) and isinstance(f1, _SampledKernel):
        if f1.out_grid != f2.in_grid:
            raise ValueError("intermediate grids do not match")
        out, mid, inp = f2.out_grid, f2.in_grid, f1.in_grid
        # one matmul over the flattened intermediate plane, weights on f2
        left = _weighted(f2.values.reshape(-1, mid.n_x, mid.n_p), mid)
        flat = (left.reshape(out.n_x * out.n_p, -1)
                @ f1.values.reshape(mid.n_x * mid.n_p, -1))
        vals = flat.reshape(out.n_x, out.n_p, inp.n_x, inp.n_p)
        return GridKernel(out, inp, vals)
    raise TypeError(
        f"no composition rule for {type(f2).__name__} after {type(f1).__name__}"
    )


def _marginal(f, grid: QuadratureGrid, over_output: bool) -> WignerField:
    return f.marginal(grid or _DEFAULT_KERNEL_GRID, over_output)


def input_marginal(f, grid: QuadratureGrid = None) -> WignerField:
    """Int f dx' dp' as a field over inputs; Weyl symbol of E^dag E."""
    return _marginal(f, grid, over_output=True)


def output_marginal(f, grid: QuadratureGrid = None) -> WignerField:
    """Int f dx dp as a field over outputs; Weyl symbol of E E^dag."""
    return _marginal(f, grid, over_output=False)


def kernel_norm(f) -> float:
    """(1/2 pi) Int f d^4 = Tr(E^dag E), quadrature on the stored grids."""
    return f.norm()


def radial_form(t: ProcessTensor, rp_axis=None, r_axis=None, theta_axis=None,
                defect_tol: float = 1e-10) -> RadialKernel:
    """Sample f(r', r, theta) of a phase-invariant map directly from the tensor.

    Points are (x, p) = (r, 0) and (x', p') = (r' cos theta, r' sin theta);
    no 4D grid is materialized. All (r', theta) output points go through one
    basis evaluation and one matmul, split over theta only as far as needed
    to keep the output basis values under _RADIAL_BLOCK_BYTES.
    """
    from .tensors import phase_invariance_defect

    defect = phase_invariance_defect(t)
    if defect > defect_tol:
        raise ValueError(
            f"map is not phase invariant (defect {defect:.3e}); "
            "no radial form exists"
        )
    rp_axis = np.asarray(
        rp_axis if rp_axis is not None else np.linspace(0.0, 5.0, 101), float)
    r_axis = np.asarray(
        r_axis if r_axis is not None else np.linspace(0.0, 5.0, 101), float)
    theta_axis = np.asarray(
        theta_axis if theta_axis is not None else np.linspace(0.0, 2 * math.pi, 73),
        float)
    d = t.dim.size
    b_in = _basis_values(t.dim, r_axis, np.zeros_like(r_axis)).reshape(d * d, -1)
    half = t.matrix @ np.conj(b_in)  # (D^2, n_r)
    cos = np.array([math.cos(th) for th in theta_axis])
    sin = np.array([math.sin(th) for th in theta_axis])
    per_theta = d * d * rp_axis.size * np.dtype(complex).itemsize
    step = max(1, _RADIAL_BLOCK_BYTES // max(per_theta, 1))
    vals = np.empty((theta_axis.size, rp_axis.size, r_axis.size))
    for lo in range(0, theta_axis.size, step):
        block = slice(lo, lo + step)
        xo = cos[block, None] * rp_axis[None, :]
        po = sin[block, None] * rp_axis[None, :]
        b_out = _basis_values(t.dim, xo, po).reshape(d * d, -1)
        vals[block] = (2.0 * math.pi * np.real(b_out.T @ half)).reshape(
            -1, rp_axis.size, r_axis.size)
    return RadialKernel(rp_axis, r_axis, theta_axis, vals.transpose(1, 2, 0))


def radial_norm(rk: RadialKernel) -> float:
    """kernel_norm computed from radial samples: Int f r r' dr dr' dtheta."""
    w = rk.values * rk.rp_axis[:, None, None] * rk.r_axis[None, :, None]
    inner = _trapz(w, x=rk.theta_axis, axis=-1)
    inner = _trapz(inner, x=rk.r_axis, axis=-1)
    return float(_trapz(inner, x=rk.rp_axis, axis=-1))


def negativity(f) -> dict:
    """Most negative value and integrated negative part of a kernel."""
    return f.negativity()


def band_concentration(rk: RadialKernel, half_width: float = 0.5,
                       theta_index: int = 0) -> float:
    """Fraction of squared kernel mass within |r' - r| <= half_width.

    Concentration is measured on the squared values. The exact kernels of
    photon-number-shifting maps are delta derivatives supported on r' = r,
    and the truncated representation of such a ridge carries oscillatory
    tails whose absolute mass grows logarithmically with the cutoff; the
    squared mass converges onto the ridge instead.
    """
    sl = rk.values[:, :, theta_index] ** 2
    band = np.abs(rk.rp_axis[:, None] - rk.r_axis[None, :]) <= half_width

    total = _trapz(_trapz(sl, x=rk.rp_axis, axis=0), x=rk.r_axis, axis=0)
    inside = _trapz(_trapz(np.where(band, sl, 0.0), x=rk.rp_axis, axis=0),
                    x=rk.r_axis, axis=0)
    if total == 0.0:
        return 1.0
    return float(inside / total)


def scale_kernel(f, c: float):
    """Kernel scaled by a constant; negativity metrics scale by exactly c."""
    return f.scaled(c)
