"""Independent reference implementations used by the test suite.

Everything here is built from first principles with scipy/numpy primitives
(direct expm circuits, quadrature integrals, textbook series) and avoids the
package's own recurrences and factorizations, so agreement is evidence and
not circularity. The phase-space references build their complex basis
W_{|n><m|} one element at a time from the public wigner_basis (checked
against the Laguerre closed form and the chord integral in test_wigner) and
contract it with the whole D^2 x D^2 matrix in complex arithmetic, so they
check the real coordinates, the real basis rows and the real transfer
matrix of the package.
amplifier_einsum_reference reuses the catalog's splitter columns, spread
into whole splitter tables: it checks only how the amplifier model collapses
its sums. tensor_of_elements
is no reference but the tests' way from a dense array into the Kraus layout,
through the package's own Choi conversion. render_csv_rows and
render_json_rows are the CLI's former row-at-a-time table writers, kept as
the byte reference for its column renderers.
"""

import json
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, factorial

from cvmaps import tensors
from cvmaps.elements import beam_splitter_columns, experimental_single_photon
from cvmaps.fock import FockDim, annihilation
from cvmaps.wigner import wigner_basis

# np.trapezoid is numpy 2.0's name for np.trapz
trapezoid = getattr(np, "trapezoid", None) or np.trapz


# ---------------------------------------------------------------------------
# phase-space references

def hermite_psi(n: int, x: np.ndarray) -> np.ndarray:
    """Position wavefunction <x|n> for the x = (a + ad)/sqrt(2) convention."""
    h_prev = np.ones_like(x)
    h = 2.0 * x
    if n == 0:
        poly = h_prev
    elif n == 1:
        poly = h
    else:
        for k in range(2, n + 1):
            h_prev, h = h, 2.0 * x * h - 2.0 * (k - 1) * h_prev
        poly = h
    norm = 1.0 / math.sqrt(2.0 ** n * factorial(n, exact=True) * math.sqrt(math.pi))
    return norm * poly * np.exp(-x * x / 2.0)


def wigner_quadrature(rho: np.ndarray, x: float, p: float,
                      nu_max: float = 18.0, n_nu: int = 3001) -> float:
    """W(x, p) from the defining chord integral, trapezoid in nu."""
    d = rho.shape[0]
    nu = np.linspace(-nu_max, nu_max, n_nu)
    left = np.array([hermite_psi(n, np.asarray(x - nu / 2.0)) for n in range(d)])
    right = np.array([hermite_psi(n, np.asarray(x + nu / 2.0)) for n in range(d)])
    chord = np.einsum("an,ab,bn->n", left, rho, right)
    integrand = np.exp(1j * nu * p) * chord
    val = trapezoid(integrand, nu) / (2.0 * math.pi)
    return float(np.real(val))


def wigner_basis_laguerre(n: int, m: int, x, p):
    """W_{|n><m|} from the associated-Laguerre closed form (small n, m only)."""
    z = np.asarray(x, dtype=float) + 1j * np.asarray(p, dtype=float)
    if m < n:
        return np.conj(wigner_basis_laguerre(m, n, x, p))
    d = m - n
    r2 = 2.0 * np.abs(z) ** 2
    pref = ((-1.0) ** n / math.pi
            * math.sqrt(factorial(n, exact=True) / factorial(m, exact=True)))
    return (pref * np.exp(-r2 / 2.0) * (math.sqrt(2.0) * z) ** d
            * eval_genlaguerre(n, d, r2))


def coherent_wigner(alpha: complex, x, p):
    """Closed-form coherent-state Wigner function."""
    x0 = math.sqrt(2.0) * alpha.real
    p0 = math.sqrt(2.0) * alpha.imag
    return np.exp(-(np.asarray(x) - x0) ** 2 - (np.asarray(p) - p0) ** 2) / math.pi


def attenuation_kernel_reference(eta: float, xp, pp, x, p):
    """Gaussian transfer kernel of the loss channel, written out directly."""
    nu2 = 1.0 - eta
    mu = math.sqrt(eta)
    val = np.exp(-((np.asarray(xp) - mu * np.asarray(x)) ** 2
                   + (np.asarray(pp) - mu * np.asarray(p)) ** 2) / nu2)
    return val / (math.pi * nu2)


def amplification_kernel_reference(g: float, xp, pp, x, p):
    nu2 = g - 1.0
    mu = math.sqrt(g)
    val = np.exp(-((np.asarray(xp) - mu * np.asarray(x)) ** 2
                   + (np.asarray(pp) - mu * np.asarray(p)) ** 2) / nu2)
    return val / (math.pi * nu2)


def gaussian_evaluate_reference(k, xo, po, xi, pi) -> np.ndarray:
    """GaussianKernel.evaluate as peak * exp(expo), each step a new array.

    It reuses the kernel's exponent form and residuals, so what it checks is
    that evaluating the exponential in place changes no bit.
    """
    q, peak = k._gaussian()
    ux = k._residual(0, xo, xi, pi)
    up = k._residual(1, po, xi, pi)
    expo = q[0, 0] * ux * ux + q[1, 1] * up * up
    if q[0, 1] != 0.0:
        expo = expo + 2.0 * q[0, 1] * ux * up
    shape = np.broadcast_shapes(*(np.shape(v) for v in (xo, po, xi, pi)))
    return np.broadcast_to(peak * np.exp(expo), shape)


def basis_reference(dim, x, p) -> np.ndarray:
    """W_{|n><m|} at the points (x, p), complex, shape (D^2,) + broadcast shape
    with row n D + m: each element n <= m from the public wigner_basis, and
    W_{|m><n|} its conjugate."""
    d = dim.size
    shape = np.broadcast_shapes(np.shape(x), np.shape(p))
    out = np.empty((d, d) + shape, dtype=complex)
    for n in range(d):
        for m in range(n, d):
            out[n, m] = wigner_basis(n, m, x, p)
            out[m, n] = np.conj(out[n, m])
    return out.reshape((d * d,) + shape)


def radial_form_reference(t, rp_axis, r_axis, theta_axis) -> np.ndarray:
    """f(r', r, theta) of a tensor, contracted one sampled angle at a time.

    The output basis is evaluated off the real axis, at (r' cos theta,
    r' sin theta), and contracted with E conj(B_in) for each theta, all of
    it complex, so what it checks is the angular bookkeeping of radial_form
    and its real per-order products.
    """
    rp_axis, r_axis = np.asarray(rp_axis, float), np.asarray(r_axis, float)
    theta_axis = np.asarray(theta_axis, float)
    half = matrix_reference(t) @ np.conj(basis_reference(t.dim, r_axis, 0.0))
    b_out = basis_reference(t.dim, np.cos(theta_axis)[:, None] * rp_axis,
                            np.sin(theta_axis)[:, None] * rp_axis)
    vals = np.empty((rp_axis.size, r_axis.size, theta_axis.size))
    for k in range(theta_axis.size):
        vals[:, :, k] = 2.0 * math.pi * np.real(b_out[:, k].T @ half)
    return vals


def factored_kernel_reference(t, out_grid, in_grid) -> np.ndarray:
    """Real samples f[out_x, out_p, in_x, in_p] = 2 pi B_out^T E conj(B_in).

    The whole D^2 x D^2 matrix E enters one dense complex product, evaluated
    as (B_out^T E) conj(B_in), with no coherence blocks, so what it checks
    is the real contraction of FactoredKernel.
    """
    flat = factored_kernel_product(t, out_grid, in_grid)
    return flat.real.reshape(out_grid.n_x, out_grid.n_p, in_grid.n_x, in_grid.n_p)


def grid_basis_reference(dim, grid) -> np.ndarray:
    """basis_reference on a grid's points in C order: (D^2, n_x n_p)."""
    xs, ps = np.meshgrid(grid.xs, grid.ps, indexing="ij")
    return basis_reference(dim, xs.ravel(), ps.ravel())


def factored_kernel_product(t, out_grid, in_grid) -> np.ndarray:
    """The complex (N_out, N_in) product behind factored_kernel_reference,
    imaginary part kept: it vanishes when E keeps Hermiticity."""
    return 2.0 * math.pi * (grid_basis_reference(t.dim, out_grid).T @ matrix_reference(t)
                            @ np.conj(grid_basis_reference(t.dim, in_grid)))


def wigner_reference(mat, dim, grid) -> np.ndarray:
    """sum_{n,m} A_nm W_{|n><m|} on the grid, complex, shape (n_x, n_p): the
    Wigner function of A, and 1/(2 pi) its Weyl symbol."""
    flat = np.asarray(mat).reshape(-1) @ grid_basis_reference(dim, grid)
    return flat.reshape(grid.n_x, grid.n_p)


def map_reference(t, a, adjoint=False) -> np.ndarray:
    """E(A)_{l,k} = sum_{n,m} E^{n,m}_{l,k} A_{n,m} of a (D, D) matrix, or, when
    adjoint, Z_{n,m} = sum_{l,k} E^{n,m}_{l,k} A_{l,k}, without the D^4 array:
    from a Kraus tensor's operators, E^{n,m}_{l,k} = sum_i w_i E_i[l, n]
    conj(E_i[k, m]), or from a band tensor's stored blocks
    M_q[i, j] = E^{j+q,j}_{i+q,i} and M_{-q} = conj(M_q)."""
    d = t.dim.size
    a = np.asarray(a, dtype=complex)
    if isinstance(t, tensors._BandTensor):
        out = np.zeros((d, d), dtype=complex)
        for q in range(d):
            block = tensors._packed_block(t.packed, d, q)
            block = block.T if adjoint else block
            k = np.arange(d - q)
            out[k + q, k] = block @ a[k + q, k]
            if q:
                out[k, k + q] = block.conj() @ a[k, k + q]
        return out
    if adjoint:
        return sum(w * (op.T @ a @ op.conj()) for op, w in zip(t.ops, t.weights))
    return sum(w * (op @ a @ op.conj().T) for op, w in zip(t.ops, t.weights))


# ---------------------------------------------------------------------------
# Fock-space references: the dense D^4 array of a tensor and what one dense
# product or one eigh of it gives

def entries(t) -> np.ndarray:
    """The read-only (l, k, n, m) array of a tensor in either layout: each
    block M_q of a band tensor, q = 1 - D .. D - 1, written through a D^2 x D^2
    view on the rows (k + q) D + k, the stored M_q for q >= 0 and its conjugate
    M_{-q} = conj(M_q) for q < 0; or a Kraus tensor's rows E[l] as
    tensors._kraus_slices gives them."""
    d = t.dim.size
    if isinstance(t, tensors._BandTensor):
        out = np.zeros((d,) * 4, dtype=complex)
        mat = out.reshape(d * d, d * d)
        for q in range(1 - d, d):
            first = max(q, 0) * d + max(-q, 0)  # the row (k + q, k) of least k
            rows = slice(first, first + (d - abs(q)) * (d + 1), d + 1)
            block = tensors._packed_block(t.packed, d, abs(q))
            mat[rows, rows] = block if q >= 0 else block.conj()
    else:
        out = np.empty((d,) * 4, dtype=complex)
        for l, part in enumerate(tensors._kraus_slices(t)):
            out[l] = part
    out.flags.writeable = False
    return out


def matrix_reference(t) -> np.ndarray:
    """E as the D^2 x D^2 matrix with rows (l, k) and columns (n, m)."""
    side = t.dim.size ** 2
    return entries(t).reshape(side, side)


def choi_reference(t) -> np.ndarray:
    """The Choi matrix C_{(l,n),(k,m)} = E^{n,m}_{l,k}."""
    side = t.dim.size ** 2
    return entries(t).transpose(0, 2, 1, 3).reshape(side, side)


def apply_tensor_reference(t, rho) -> np.ndarray:
    """E(rho) as one product with the whole D^2 x D^2 matrix, Hermitian part kept."""
    d = t.dim.size
    mat = (matrix_reference(t) @ rho.matrix.reshape(d * d)).reshape(d, d)
    return (mat + mat.conj().T) / 2


def compose_serial_reference(second, first) -> np.ndarray:
    """Entries of (second after first) as one dense D^2 x D^2 matmul."""
    return (matrix_reference(second) @ matrix_reference(first)).reshape((first.dim.size,) * 4)


def tensor_from_kraus_reference(k) -> np.ndarray:
    """The dense array of a single-mode Kraus set, E[l, k, n, m] = sum_i
    E_i[l, n] conj(E_i[k, m]), one BLAS product per output row l."""
    ops = np.stack(k.operators)
    d = k.dim.size
    conj = ops.conj().reshape(len(ops), d * d)
    arr = np.empty((d, d, d, d), dtype=complex)
    for l in range(d):
        arr[l] = (ops[:, l, :].T @ conj).reshape(d, d, d).transpose(1, 0, 2)
    arr.flags.writeable = False
    return arr


def band_tensor_reference(dim, bands) -> np.ndarray:
    """The dense array with each block B_s on the leading corner of the Choi
    block at shift s: B_s[i, j] at E[n_i + s, n_j + s, n_i, n_j], n_i = max(0, -s) + i."""
    d = dim.size
    out = np.zeros((d,) * 4, dtype=complex)
    for s, block in bands:
        n = np.arange(max(0, -s), d - max(0, s))[:len(block)]
        out[(n + s)[:, None], (n + s)[None, :], n[:, None], n[None, :]] = block
    out.flags.writeable = False
    return out


def phase_invariance_defect_reference(t) -> float:
    """Max |E^{n,m}_{l,k}| over l - k - n + m != 0 of a tensor's elements."""
    return off_band_max_reference(entries(t))


def off_band_max_reference(arr) -> float:
    """Max |arr[l, k, n, m]| over l - k - n + m != 0, from a full D^4 mask."""
    idx = np.arange(len(arr), dtype=np.int16)
    violating = (idx[:, None, None, None] - idx[:, None, None]
                 - idx[:, None] + idx) != 0
    return float(np.max(np.abs(arr), where=violating, initial=0.0))


def tensor_of_elements(dim, elements):
    """The Kraus tensor of an (l, k, n, m) array, which is not kept: the Choi
    eigenpairs of its shift blocks E[n + s, m + s, n, m] when it has no entry
    off l - k = n - m, else of its whole D^2 x D^2 Choi matrix."""
    arr = np.asarray(elements, dtype=complex)
    d = dim.size
    if arr.shape != (d,) * 4:
        raise ValueError(f"elements shape {arr.shape} != {(d,) * 4}")
    if off_band_max_reference(arr) == 0.0:
        blocks = ((tensors._shift_rows(d, s), arr.diagonal(-s, 0, 2).diagonal(-s, 0, 1))
                  for s in range(1 - d, d))
    else:
        rows = np.divmod(np.arange(d * d), d)  # (l, n) of each Choi row
        blocks = [(rows, arr.transpose(0, 2, 1, 3).reshape(d * d, d * d))]
    return tensors._kraus_from_choi(dim, blocks)


def coherent_amplitudes(alpha: complex, size: int) -> np.ndarray:
    if alpha == 0:
        return np.eye(size)[0].astype(complex)
    ns = np.arange(size)
    log_fact = np.cumsum(np.log(np.maximum(ns, 1)))
    return np.exp(-abs(alpha) ** 2 / 2.0 + ns * np.log(alpha + 0j)
                  - log_fact / 2.0)


def squeezed_coherent_amplitudes(r: float, alpha: complex, size: int) -> np.ndarray:
    """<n| S(r) |alpha> for S(r) = exp[(r/2)(a^2 - ad^2)].

    S(r)|alpha> is the squeezed vacuum displaced by
    beta = alpha cosh r - conj(alpha) sinh r; the displacement acts as the
    exact normal-ordered series.
    """
    beta = alpha * math.cosh(r) - np.conj(alpha) * math.sinh(r)
    t = math.tanh(r)
    vac = np.zeros(size, dtype=complex)
    for m in range(size // 2 + 1):
        n = 2 * m
        if n >= size:
            break
        vac[n] = ((-t / 2.0) ** m
                  * math.sqrt(factorial(n, exact=True)) / factorial(m, exact=True)
                  / math.sqrt(math.cosh(r)))
    # D(beta) via expm of the (truncated) generator on a buffered space
    buf = size + 25
    vac_buf = np.zeros(buf, dtype=complex)
    vac_buf[:size] = vac
    return (displacement_reference(beta, buf) @ vac_buf)[:size]


def displacement_reference(alpha: complex, levels: int) -> np.ndarray:
    """expm of the generator alpha ad - conj(alpha) a truncated to ``levels``
    levels: D(alpha) on the leading block, once ``levels`` is large enough
    that a larger space no longer changes that block."""
    a = np.diag(np.sqrt(np.arange(1.0, levels)), 1)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def thermal_diagonal(mean_n: float, size: int) -> np.ndarray:
    ratio = mean_n / (1.0 + mean_n)
    probs = (1.0 / (1.0 + mean_n)) * ratio ** np.arange(size)
    return probs


# ---------------------------------------------------------------------------
# heralded-circuit oracles (direct expm, no factorizations)

def bs2(t: float, size: int) -> np.ndarray:
    """Two-mode beam-splitter unitary exp[phi (a1d a2 - a1 a2d)], cos phi = t."""
    a = annihilation(FockDim(size - 1))
    ad = a.conj().T
    gen = np.kron(ad, a) - np.kron(a, ad)
    return expm(math.acos(t) * gen)


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) of non-negative integers, from an integer square root
    carried 64 bits past the result's leading bit."""
    shift = max(0, (den.bit_length() - num.bit_length()) // 2) + 64
    return math.ldexp(float(math.isqrt((num << 2 * shift) // den)), -shift)


def splitter_columns_exact(t: float, totals: range, count: int) -> np.ndarray:
    """<p, N - p| U |N - b, b> of beam_splitter(t) for N in totals, p < totals.stop
    and b < count, in exact integer arithmetic.

    U|N - b, b> = (t a1+ - r a2+)^(N - b) (r a1+ + t a2+)^b |0> / sqrt((N - b)! b!)
    expands to one binomial sum per amplitude. With the float t's own square
    t^2 = a / c and r^2 = (c - a) / c, each amplitude is a sign times the
    square root of an exact rational, rounded once at the end.
    """
    sq = Fraction(float(t)) ** 2
    a, c = sq.numerator, sq.denominator
    top = totals.stop
    fact = [math.factorial(n) for n in range(top)]
    pow_a = [a ** k for k in range(top)]
    pow_r = [(c - a) ** k for k in range(top)]
    pow_c = [c ** k for k in range(top)]
    out = np.zeros((len(totals), top, count))
    for i, n in enumerate(totals):
        for b in range(min(count, n + 1)):
            for p in range(n + 1):
                # t^(b + p - 2j) r^(n - b - p + 2j) from a1+^j of the second factor
                sum_ = 0
                for j in range(max(0, p - n + b), min(b, p) + 1):
                    term = (math.comb(b, j) * math.comb(n - b, p - j)
                            * pow_a[(b + p) // 2 - j] * pow_r[(n - b - p) // 2 + j])
                    sum_ += -term if (n - b - p + j) % 2 else term
                if sum_ == 0:
                    continue
                odd_t, odd_r = (b + p) % 2, (n - b - p) % 2
                num = sum_ * sum_ * pow_a[odd_t] * pow_r[odd_r] * fact[p] * fact[n - p]
                den = pow_c[n] * fact[n - b] * fact[b]
                sign = (-1 if t < 0 and odd_t else 1) * (1 if sum_ > 0 else -1)
                out[i, p, b] = sign * _sqrt_ratio(num, den)
    return out


def tms2(chi: float, size: int) -> np.ndarray:
    """Two-mode squeezer exp[chi (a1d a2d - a1 a2)]."""
    a = annihilation(FockDim(size - 1))
    gen = np.kron(a.conj().T, a.conj().T) - np.kron(a, a)
    return expm(chi * gen)


def apply_pair(state: np.ndarray, u2: np.ndarray, ax_a: int, ax_b: int) -> np.ndarray:
    """Apply a two-mode unitary to axes (ax_a, ax_b) of a pure-state tensor."""
    size = state.shape[0]
    u4 = u2.reshape(size, size, size, size)
    moved = np.moveaxis(state, (ax_a, ax_b), (0, 1))
    out = np.tensordot(u4, moved, axes=([2, 3], [0, 1]))
    return np.moveaxis(out, (0, 1), (ax_a, ax_b))


def amplifier_oracle(psi_in: np.ndarray, cfg, size: int):
    """Herald probability and unnormalized output of the amplifier circuit.

    Five wires: input, mismatched component, resource photon, resource
    vacuum, mismatch splitter vacuum. The resource-arm splitter sends the
    photon toward the signal splitter; the click detector sits on the second
    signal-splitter port and the extra condition on the first.
    """
    occ = np.arange(size, dtype=float)
    # the detector sets both the click pair and the condition on the first port
    if cfg.detector == "apd":
        nc1 = (1.0 - cfg.mu) ** occ
        so = nc1[:, None] * nc1[None, :]
        click_pair = 1.0 - so
    else:
        click_pair = ((occ[:, None] + occ[None, :]) == 1.0).astype(float)
        so = ((occ[:, None] == 0) & (occ[None, :] == 0)).astype(float)

    u_m = bs2(math.sqrt(cfg.eta_m), size)
    u_a = bs2(math.sqrt(1.0 - cfg.reflectivity), size)
    u_half = bs2(math.sqrt(0.5), size)

    res_weights = np.real(np.diag(
        experimental_single_photon(cfg.delta, FockDim(2)).matrix))
    vac = np.zeros(size)
    vac[0] = 1.0
    p_total = 0.0
    sigma = np.zeros((size, size), dtype=complex)
    for phi, wphi in enumerate(res_weights):
        if wphi == 0.0:
            continue
        res = np.zeros(size)
        res[phi] = 1.0
        state = np.einsum("i,w,r,v,z->iwrvz", psi_in, vac, res, vac, vac)
        state = apply_pair(state, u_m, 0, 1)     # (in, wrong) -> (s, u)
        state = apply_pair(state, u_a, 2, 3)     # resource splitter -> (o, b)
        state = apply_pair(state, u_half, 0, 3)  # signal splitter -> (d1, d2)
        state = apply_pair(state, u_half, 1, 4)  # mismatch splitter -> (u1, u2)
        # axes (d1, u1, o, d2, u2); the click POVM acts on (d2, u2)
        amp2 = np.abs(state) ** 2
        p_total += wphi * float(np.einsum("daoeb,eb,da->", amp2, click_pair, so))
        sigma += wphi * np.einsum("daoeb,dafeb,eb,da->of", state, state.conj(),
                                  click_pair, so)
    return p_total, sigma


def splitter_table(t: float, n1: int, n2: int, n_out: int) -> np.ndarray:
    """<p, q| U |s, b> of beam_splitter(t) for s <= n1, b <= n2 <= 2,
    p, q < n_out, spread from the closed-form columns <p, N - p|U|N - b, b>."""
    cols = beam_splitter_columns(t, max(n_out, n1 + n2 + 1), n2 + 1)
    s, b, p = np.broadcast_arrays(*np.ogrid[:n1 + 1, :n2 + 1, :n_out])
    q = s + b - p
    keep = (q >= 0) & (q < n_out)
    s, b, p, q = s[keep], b[keep], p[keep], q[keep]
    amps = np.zeros((n_out, n_out, n1 + 1, n2 + 1))
    amps[p, q, s, b] = cols[s + b, p, b]
    return amps


def amplifier_einsum_reference(cfg):
    """The amplifier's correct and faulty (3, 3, D, D) arrays E[o, O, n, m], each
    one 13-operand einsum over whole splitter tables, symmetrized.

    res: resource after the asymmetric splitter; us: signal splitter on the
    matched input and the herald arm; um: mode-matching split of the input;
    vh: symmetric split of the mismatched light. Each table enters once on
    the ket (lower case) and once on the bra (upper case); the resource
    mixture and the herald diagonals tie the two sides.
    """
    n_max, d = cfg.dim.n_max, cfg.dim.size
    f = n_max + 3
    res = splitter_table(math.sqrt(1.0 - cfg.reflectivity), 2, 0, 3)[..., 0]
    weights = np.real(np.diag(experimental_single_photon(cfg.delta, FockDim(2)).matrix))
    us = splitter_table(math.sqrt(0.5), n_max, 2, f)
    um = splitter_table(math.sqrt(cfg.eta_m), n_max, 0, d)[..., 0]
    vh = splitter_table(math.sqrt(0.5), n_max, 0, f)[..., 0]
    occ = np.arange(f, dtype=float)
    if cfg.detector == "apd":
        click = 1.0 - (1.0 - cfg.mu) ** occ
        wso = 1.0 - click
        branches = ((click, 1.0 - click), (np.ones(f), click))
    else:
        click, wso = (occ == 1).astype(float), (occ == 0).astype(float)
        branches = ((click, wso), (wso, click))
    out = []
    for w_click, w_mismatch in branches:
        # the greedy path with no cap on intermediate size
        e = np.einsum("obp,desb,sun,vwu,p,d,e,v,w,OBp,deSB,SUm,vwU->oOnm",
                      res, us, um, vh, weights, wso, w_click, wso, w_mismatch,
                      res, us, um, vh, optimize=("greedy", 2 ** 62))
        out.append((e + e.transpose(1, 0, 3, 2)) / 2.0)
    return out


def addition_oracle(psi_in: np.ndarray, chi: float, mu: float, detector: str,
                    size: int):
    """Herald probability and output for the bare addition circuit (no parasite)."""
    u = tms2(chi, size)
    occ = np.arange(size, dtype=float)
    if detector == "apd":
        w = 1.0 - (1.0 - mu) ** occ
    else:
        w = (occ == 1.0).astype(float)
    vac = np.zeros(size)
    vac[0] = 1.0
    state = (u @ np.kron(psi_in, vac)).reshape(size, size)
    p = float(np.einsum("lj,j->", np.abs(state) ** 2, w))
    sigma = np.einsum("lj,kj,j->lk", state, state.conj(), w)
    return p, sigma


def addition_correct_einsum(cfg) -> np.ndarray:
    """Correct photon-addition branch as one plain einsum over idler counts.

    scale * sum_j v[l, j, n] w_j v[k, j, m], with the closed-form pair
    amplitudes v[n+j, j, n] = tanh(chi)^j sqrt(C(n+j, j)) sech(chi)^(n+1),
    herald weights w_j and scale kappa_nc (APD) or 1/h (counter),
    h = cosh^2(gamma chi).
    """
    d = cfg.dim.size
    lam, sech = math.tanh(cfg.chi), 1.0 / math.cosh(cfg.chi)
    v = np.zeros((d, d, d))
    for n in range(d):
        for j in range(d - n):
            v[n + j, j, n] = lam ** j * math.sqrt(math.comb(n + j, j)) * sech ** (n + 1)
    h = math.cosh(cfg.gamma * cfg.chi) ** 2
    occ = np.arange(d, dtype=float)
    if cfg.detector == "apd":
        w = 1.0 - (1.0 - cfg.mu) ** occ
        scale = 1.0 / (cfg.mu * h + 1.0 - cfg.mu)
    else:
        w = (occ == 1).astype(float)
        scale = 1.0 / h
    return (scale * np.einsum("ljn,j,kjm->lknm", v, w, v)).astype(complex)


def scissors_probability(alpha: float, reflectivity: float) -> float:
    """Closed-form herald probability of the ideal truncating amplifier."""
    r2 = reflectivity
    t2 = 1.0 - reflectivity
    return math.exp(-alpha * alpha) * 0.5 * (r2 + t2 * alpha * alpha)


# ---------------------------------------------------------------------------
# table renderers, row at a time, as the CLI wrote its tables before it
# rendered them by column

def render_csv_rows(header, rows) -> str:
    """CSV of row tuples: floats as shortest round-trip decimals with -0.0
    folded to 0.0, everything else through str."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            repr(float(c) + 0.0) if isinstance(c, float) else str(c) for c in row))
    return "\n".join(lines) + "\n"


def render_json_rows(header, rows) -> str:
    """JSON records of row tuples, with -0.0 folded to 0.0."""
    records = [{key: c + 0.0 if isinstance(c, float) else c for key, c in zip(header, row)}
               for row in rows]
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


# frozen small values with their derivations:
# attenuation process tensor, one lost photon from |1><1|: E^{1,1}_{0,0} = 1 - eta
ATTENUATION_DROP_04 = 0.6
# on/off detector with efficiency 0.11 on |2>: 1 - (1 - 0.11)^2
APD_TWO_PHOTON_011 = 0.2079
# vacuum against a mean-0.5 thermal state: F = <0|rho|0> = 1/(1 + 0.5)
VACUUM_THERMAL_HALF_FIDELITY = 2.0 / 3.0
# two-mode squeezer at g = 1.2 on vacuum: idler marginal is thermal, <n> = g - 1
PDC_G12_HERALD_MEAN = 0.2
