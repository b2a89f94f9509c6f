"""Catalog of basic continuous-variable channels, detectors and sources.

Each catalog entry bundles a Kraus presentation with its closed-form
transfer kernel, one GaussianKernel f = weight N(r' - X r - d; Y) read as
"output from input": a point transformation is the delta Y = 0, and
attenuation and phase-insensitive amplification add noise Y > 0.

Conventions fixed here and relied on everywhere else:

  phase_rotation(theta) conjugates by exp(-i theta n), so a coherent state
  maps alpha -> exp(-i theta) alpha and the delta kernel has
  X = [[cos theta, sin theta], [-sin theta, cos theta]].

  displacement(alpha) has X = I and d = sqrt(2) (Re alpha, Im alpha);
  squeezing(r) has X = diag(exp(-r), exp(r)). attenuation(eta) and
  parametric_amplification(g) have X = sqrt(g) I and Y = |g - 1|/2 I,
  with g = eta for attenuation; at g = 1 both are the identity delta.

  beam_splitter(t) is exp(phi (a1+ a2 - a2+ a1)) with t = cos(phi),
  r = sin(phi) >= 0, giving a1 -> t a1 + r a2 in the Heisenberg picture
  and U|1,0> = t|1,0> - r|0,1>. Coherent inputs (alpha1, alpha2) leave
  as (t alpha1 + r alpha2, -r alpha1 + t alpha2), which its kernel's
  4 x 4 X reproduces on the coordinates (x_1, p_1, x_2, p_2).

  parametric_down_conversion(g) is the two-mode squeezer
  exp(zeta (a1+ a2+ - a1 a2)) with cosh(zeta) = sqrt(g); it and
  parametric_amplification(g), the squeezer on a traced-out vacuum idler,
  come from one closed form, two_mode_squeeze_amplitudes, exact at
  truncation. Mean amplitudes leave as (c alpha1 + s conj(alpha2),
  c alpha2 + s conj(alpha1)) with c = sqrt(g), s = sqrt(g - 1). The
  heralded models take this routine and the splitter's closed-form columns,
  beam_splitter_columns: every amplitude with at most two photons in the
  second input port, for all photon totals at once and with no eigh. The
  whole two-mode matrix is filled one exact total-photon block at a time,
  beam_splitter_block, through beam_splitter_amplitudes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockDim, DensityOperator, displacement_matrix, squeeze_matrix
from .tensors import KrausSet, ProcessTensor, tensor_from_kraus
from .kernels import GaussianKernel

__all__ = [
    "Element",
    "DetectorElement",
    "identity",
    "phase_rotation",
    "displacement",
    "squeezing",
    "beam_splitter",
    "beam_splitter_amplitudes",
    "beam_splitter_block",
    "beam_splitter_columns",
    "beam_splitter_matrix",
    "parametric_down_conversion",
    "two_mode_squeeze_amplitudes",
    "two_mode_squeeze_matrix",
    "attenuation",
    "attenuation_kraus",
    "parametric_amplification",
    "apd_click",
    "photon_counter",
    "vacuum_projector",
    "experimental_single_photon",
]


@dataclass(frozen=True, eq=False)
class Element:
    """A named channel carried in both representations."""

    name: str
    kraus: KrausSet
    kernel: GaussianKernel = None

    @property
    def dim(self) -> FockDim:
        return self.kraus.dim

    def tensor(self) -> ProcessTensor:
        return tensor_from_kraus(self.kraus)


def _point_map(x, d=None) -> GaussianKernel:
    """Delta kernel of the noiseless map r' = x r + d."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    return GaussianKernel(x, np.zeros((n, n)), np.zeros(n) if d is None else d)


def _phase_insensitive(g: float) -> GaussianKernel:
    """Loss (g < 1) or gain (g > 1): X = sqrt(g) I, Y = |g - 1|/2 I."""
    return GaussianKernel(math.sqrt(g) * np.eye(2), abs(g - 1.0) / 2.0 * np.eye(2),
                          np.zeros(2))


def identity(dim: FockDim) -> Element:
    return Element("identity", KrausSet(dim, [np.eye(dim.size)]), _point_map(np.eye(2)))


def phase_rotation(theta: float, dim: FockDim) -> Element:
    theta = float(theta)
    u = np.diag(np.exp(-1j * theta * np.arange(dim.size)))
    c, s = math.cos(theta), math.sin(theta)
    return Element("phase_rotation", KrausSet(dim, [u]), _point_map([[c, s], [-s, c]]))


def displacement(alpha: complex, dim: FockDim) -> Element:
    alpha = complex(alpha)
    kraus = KrausSet(dim, [displacement_matrix(alpha, dim)])  # refuses an overflowing |alpha|^2
    shift = math.sqrt(2.0) * np.array([alpha.real, alpha.imag])
    return Element("displacement", kraus, _point_map(np.eye(2), shift))


def squeezing(r: float, dim: FockDim) -> Element:
    r = float(r)
    return Element("squeezing", KrausSet(dim, [squeeze_matrix(r, dim)]),
                   _point_map(np.diag([math.exp(-r), math.exp(r)])))


def _require_amplitude(t: float):
    if not -1.0 <= t <= 1.0:
        raise ValueError("beam-splitter amplitude must satisfy |t| <= 1")


def beam_splitter_columns(t: float, top: int, count: int) -> np.ndarray:
    """cols[N, p, b] = <p, N - p| U |N - b, b> of beam_splitter(t) for every
    total N < top, p <= N and b < count <= 3; zero where b > N.

    Column 0 is U|N, 0> = (t a1+ - r a2+)^N |0> / sqrt(N!), the binomial
    sqrt(C(N, p)) t^p (-r)^(N - p), divided by (t^2 + r^2)^(N/2) so that the
    rounded t and r leave it a unit vector. Each next column applies
    U a2+ a1 U+ = (r a1+ + t a2+)(t a1 - r a2) and divides by
    sqrt((N - b + 1) b). All totals are built at once in O(top^2) work. The
    ladder loses accuracy as b grows (7e-8 against eigh across the whole
    N = 150 block), so it stops at three columns; whole blocks come from
    beam_splitter_block.
    """
    t = float(t)
    _require_amplitude(t)
    if not 0 < count <= 3:
        raise ValueError("splitter columns need 0 < count <= 3")
    r = math.sqrt(max(0.0, 1.0 - t * t))
    tot, p = np.arange(top)[:, None], np.arange(top)
    comb = np.zeros((top, top))
    for n in range(top):
        comb[n, :n + 1] = [math.comb(n, k) for k in range(n + 1)]
    # a zero column p = top lets the ladder's a1 read c[N, p + 1] for every p < top
    cols = np.zeros((top, top + 1, count))
    # t^2 + r^2 - 1, exact in integers from the binary fractions t and r
    (tn, td), (rn, rd) = t.as_integer_ratio(), r.as_integer_ratio()
    excess = ((tn * rd) ** 2 + (rn * td) ** 2 - (td * rd) ** 2) / (td * rd) ** 2
    cols[:, :top, 0] = (np.sqrt(comb) * np.power(t, p) * np.power(-r, np.maximum(tot - p, 0))
                        * np.exp(-0.5 * math.log1p(excess) * tot))
    up = np.sqrt(p + 1.0)  # a1 |p + 1> = sqrt(p + 1) |p>
    rest = np.sqrt(np.maximum(tot - p, 0.0))  # a2 |p, N - p> = sqrt(N - p) |p, N - p - 1>
    for b in range(1, count):
        c = cols[:, :, b - 1]
        # (t a1 - r a2) down to total N - 1, then (r a1+ + t a2+) back up to N
        low = t * up * c[:, 1:] - r * rest * c[:, :-1]
        cols[:, 1:top, b] = r * np.sqrt(p[1:]) * low[:, :-1]
        cols[:, :top, b] += t * rest * low
        norm = np.sqrt(np.maximum(tot - b + 1.0, 0.0) * b)
        # no column b below total b: the ladder reads 0 / 0 there
        cols[:, :, b] *= np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0)
    return cols[:, :top]


def beam_splitter_block(t: float, total: int) -> np.ndarray:
    """<p, total - p| U |s, total - s> of beam_splitter(t) as block[p, s].

    The total-photon block exp(phi (G - G^T)), t = cos(phi), is taken
    exactly, as V exp(-i phi w) V^dag from eigh of the Hermitian i (G - G^T).
    It serves the whole two-mode matrices; the heralded models read their few
    columns from beam_splitter_columns.
    """
    _require_amplitude(t)
    j = np.arange(total)
    gen = np.zeros((total + 1, total + 1))
    # a1+ a2 |j, total-j> = sqrt((j+1)(total-j)) |j+1, total-j-1>
    gen[j + 1, j] = np.sqrt((j + 1.0) * (total - j))
    w, v = np.linalg.eigh(1j * (gen - gen.T))
    return ((v * np.exp(-1j * math.acos(t) * w)) @ v.conj().T).real


def beam_splitter_amplitudes(t: float, n1: int, n2: int, n_out: int) -> np.ndarray:
    """<p, q| U |s, b> of beam_splitter(t) for s <= n1, b <= n2, p, q < n_out,
    filled one beam_splitter_block at a time."""
    amps = np.zeros((n_out, n_out, n1 + 1, n2 + 1))
    for tot in range(n1 + n2 + 1):
        block = beam_splitter_block(t, tot)
        s = np.arange(max(0, tot - n2), min(n1, tot) + 1)
        p = np.arange(max(0, tot - n_out + 1), min(n_out - 1, tot) + 1)[:, None]
        amps[p, tot - p, s, tot - s] = block[p, s]
    return amps


def beam_splitter_matrix(t: float, dim: FockDim) -> np.ndarray:
    """Two-mode beam-splitter matrix, index n1 * D + n2.

    Each total-photon block is diagonalized at its full size, so stored
    amplitudes are exact; columns with total number above n_max lose the
    part that leaves the truncation.
    """
    side = dim.size ** 2
    return beam_splitter_amplitudes(t, dim.n_max, dim.n_max, dim.size).reshape(side, side)


def beam_splitter(t: float, dim: FockDim) -> Element:
    t = float(t)
    u = beam_splitter_matrix(t, dim)
    r = math.sqrt(max(0.0, 1.0 - t * t))
    # (x1', x2') = (t x1 + r x2, -r x1 + t x2), and the same for p
    x = np.kron(np.array([[t, r], [-r, t]]), np.eye(2))
    return Element("beam_splitter", KrausSet(dim, [u], input_modes=2, output_modes=2),
                   _point_map(x))


def two_mode_squeeze_amplitudes(zeta: float, n1: int, n2: int, n_out: int) -> np.ndarray:
    """<p, q| S |s, b> of exp(zeta (a1+ a2+ - a1 a2)) for s <= n1, b <= n2, p, q < n_out.

    The normal order exp(G a1+ a2+) sech^(n1+n2+1) exp(-G a1 a2), G = tanh
    zeta, removes k pairs and adds j = p - s + k: the amplitude is the sum
    over k of (-G)^k G^j sqrt(C(s,k) C(b,k) C(p,j) C(q,j)) sech^(s+b-2k+1).
    """
    gam, sech = math.tanh(zeta), 1.0 / math.cosh(zeta)
    top = max(n_out, n1 + 1, n2 + 1)
    comb = np.array([[float(math.comb(n, k)) for k in range(top)] for n in range(top)])
    gam_pow = np.array([gam ** j for j in range(n_out)])
    amps = np.zeros((n_out, n_out, n1 + 1, n2 + 1))
    for s in range(n1 + 1):
        for b in range(n2 + 1):
            for k in range(min(s, b) + 1):
                j = np.arange(n_out - max(s, b) + k)
                p, q = s - k + j, b - k + j
                amps[p, q, s, b] += (
                    ((-gam) ** k * gam_pow[j])
                    * np.sqrt(comb[s, k] * comb[b, k] * comb[p, j] * comb[q, j])
                    * sech ** (s + b - 2 * k + 1))
    return amps


def two_mode_squeeze_matrix(g: float, dim: FockDim) -> np.ndarray:
    """Two-mode squeezer with cosh(zeta) = sqrt(g), index n1 * D + n2."""
    if g < 1.0:
        raise ValueError("parametric gain must satisfy g >= 1")
    side = dim.size ** 2
    return two_mode_squeeze_amplitudes(
        math.acosh(math.sqrt(g)), dim.n_max, dim.n_max, dim.size).reshape(side, side)


def parametric_down_conversion(g: float, dim: FockDim) -> Element:
    g = float(g)
    u = two_mode_squeeze_matrix(g, dim)
    c, s = math.sqrt(g), math.sqrt(g - 1.0)
    # x1' = c x1 + s x2 and p1' = c p1 - s p2, symmetric in the two modes
    z = np.diag([1.0, -1.0])
    x = np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])
    return Element("parametric_down_conversion",
                   KrausSet(dim, [u], input_modes=2, output_modes=2), _point_map(x))


def attenuation_kraus(eta: float, dim: FockDim) -> list:
    """Loss-channel operators K_j mapping |n> -> |n-j> with binomial weights."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmission must satisfy 0 <= eta <= 1")
    size = dim.size
    ops = []
    for j in range(size):
        k = np.zeros((size, size))
        for n in range(j, size):
            k[n - j, n] = math.sqrt(
                math.comb(n, j) * (1.0 - eta) ** j * eta ** (n - j))
        if np.any(k):
            ops.append(k)
    return ops


def attenuation(eta: float, dim: FockDim) -> Element:
    eta = float(eta)
    ops = attenuation_kraus(eta, dim)
    return Element("attenuation", KrausSet(dim, ops), _phase_insensitive(eta))


def parametric_amplification(g: float, dim: FockDim) -> Element:
    """Phase-insensitive amplifier; K_j = <j| S |0> on the idler adds j photons."""
    g = float(g)
    if g < 1.0:
        raise ValueError("gain must satisfy g >= 1")
    amps = two_mode_squeeze_amplitudes(math.acosh(math.sqrt(g)), dim.n_max, 0, dim.size)
    ops = [amps[:, j, :, 0] for j in range(dim.size) if np.any(amps[:, j, :, 0])]
    return Element("parametric_amplification", KrausSet(dim, ops), _phase_insensitive(g))


_DETECTOR_KINDS = ("apd_click", "photon_counter", "vacuum_projector")


@dataclass(frozen=True)
class DetectorElement:
    """Diagonal POVM element of a photon detector.

    A measurement has input coordinates only; its kernel is 2 pi times the
    Wigner function of the POVM element, i.e. the Weyl symbol.
    """

    kind: str
    mu: float = 1.0
    n: int = None

    def __post_init__(self):
        if self.kind not in _DETECTOR_KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("detector efficiency must satisfy 0 < mu <= 1")
        if self.kind == "photon_counter":
            if self.n is None or self.n < 0:
                raise ValueError("photon counter needs a count n >= 0")

    def diagonal(self, count: int) -> np.ndarray:
        """POVM weights <n|Pi|n> for n < count."""
        occ = np.arange(count, dtype=float)
        if self.kind == "apd_click":
            return 1.0 - (1.0 - self.mu) ** occ
        target = 0 if self.kind == "vacuum_projector" else self.n
        return (occ == target).astype(float)

    def matrix(self, dim: FockDim) -> np.ndarray:
        return np.diag(self.diagonal(dim.size))


def apd_click(mu: float) -> DetectorElement:
    return DetectorElement("apd_click", mu=float(mu))


def photon_counter(n: int) -> DetectorElement:
    return DetectorElement("photon_counter", n=int(n))


def vacuum_projector() -> DetectorElement:
    return DetectorElement("vacuum_projector")


# Two-photon admixture fraction of the heralded single-photon source;
# w2 = _TWO_PHOTON_FRACTION * w1 * (1 - w1) vanishes at both endpoints.
_TWO_PHOTON_FRACTION = 0.25


def experimental_single_photon(delta: float, dim: FockDim) -> DensityOperator:
    """Heralded single-photon resource with purity parameter delta in [0, 2].

    Mixture of |0>, |1>, |2> with w1 = delta/2 and a small two-photon
    admixture from residual multi-pair emission. The Wigner origin value is
    (1 - delta)/pi independent of the two-photon weight (vacuum and
    two-photon terms both contribute +1/pi there), delta = 2 is the pure
    single photon exactly and delta = 0 is vacuum.
    """
    delta = float(delta)
    if not 0.0 <= delta <= 2.0:
        raise ValueError("purity parameter must satisfy 0 <= delta <= 2")
    w1 = delta / 2.0
    w2 = _TWO_PHOTON_FRACTION * w1 * (1.0 - w1)
    diag = np.zeros(dim.size)
    diag[0] = 1.0 - w1 - w2
    if dim.size > 1:
        diag[1] = w1
    if w1 > 0.0 and dim.size < 2:
        raise ValueError("need n_max >= 1 for a single-photon component")
    if w2 > 0.0:
        if dim.size < 3:
            raise ValueError("need n_max >= 2 for the two-photon admixture")
        diag[2] = w2
    return DensityOperator(dim, np.diag(diag))
