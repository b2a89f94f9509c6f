"""End-to-end builders of the two heralded experiments.

Both models decompose the heralding event into a correct branch (the click
is caused by light in the intended herald mode) and a faulty branch (the
click comes from mismatched or parasitic light). The two branches are
complementary pieces of one exact POVM identity,

    I - NC (x) NC = Pi_click (x) NC  +  I (x) Pi_click,

evaluated on the pair (intended mode, spurious mode) seen by the same
detector, so the total herald probability is additive by construction and
equals the probability of the full circuit.

Amplifier circuit, built from catalog splitter columns: the resource photon
and vacuum pass an asymmetric beam splitter (reflectivity R toward the
herald arm, gain g = sqrt((1-R)/R)); the input loses (1 - eta_m) of its
light to a mismatched mode before interfering with the herald arm on a
symmetric beam splitter; the mismatched light reaches the same pair of
detectors through its own symmetric split. The herald detector sits on the
second S-BS output, which fixes the sign so a coherent input alpha yields an
output proportional to |0> + g alpha |1>. Each splitter enters only through
the closed-form columns it needs, exact for every photon total (the herald
arm carries at most the resource's two photons, the S-BS totals reach
n_max + 2), so no interior truncation error enters the stored tensor. Every
herald weight is diagonal in photon number and every splitter conserves it,
so the sums collapse: the mismatched pair to one weight per lost photon
count, the herald pair to at most a 3 x 3 form per S-BS total, and the
resource to one 3^4 array. The whole build, columns included, then takes
O(D^2) work and memory and forms no whole splitter table. The output
carries at most the resource's two photons and the circuit conserves photon
number up to those two, so the result is at most a 3 x 3 leading corner of
each Choi shift block, which goes to the band writer of the tensors module.

Addition circuit: the catalog two-mode squeezer at gain g = cosh^2(chi)
with vacuum idler, heralded by a click on the idler detector. Each idler
count j feeds one Choi shift block of the correct branch, which the band
writer of the tensors module fills one block at a time. The faulty
branch models parasitic down-conversion at gain h = cosh^2(gamma chi) whose
idler hits the same detector while its signal stays in unobserved modes: the
spurious clicks leave the state unchanged (identity on the signal), with the
exact geometrically-resummed click weight.

Both models pass the complete-positivity and trace-non-increase gates of the
tensors module before they are returned.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockDim, creation
from .tensors import (
    KrausSet,
    ProcessTensor,
    tensor_from_kraus,
    identity_tensor,
    combine_heralding,
    scale_tensor,
    require_cp,
    require_tni,
    _band_tensor,
)
from .elements import (apd_click, beam_splitter_columns, experimental_single_photon,
                       photon_counter, two_mode_squeeze_amplitudes, vacuum_projector)

__all__ = [
    "AmplifierConfig",
    "AdditionConfig",
    "ideal_truncated_amplifier",
    "ideal_photon_addition",
    "amplifier_branches",
    "amplifier_model",
    "addition_branches",
    "addition_model",
]

_DETECTORS = ("apd", "photon_counter")


@dataclass(frozen=True)
class AmplifierConfig:
    """Heralded noiseless-amplifier parameters.

    Exactly one of reflectivity R (toward the herald arm) and gain g is
    given; the other follows from g = sqrt((1-R)/R). The detector also sets
    the condition on the unmonitored S-BS port: the vacuum projector for
    photon_counter, APD no-click for apd.
    """

    dim: FockDim = FockDim(15)
    reflectivity: float = None
    gain: float = None
    mu: float = 1.0
    delta: float = 2.0
    eta_m: float = 1.0
    detector: str = "photon_counter"
    include_faulty: bool = True

    def __post_init__(self):
        if (self.reflectivity is None) == (self.gain is None):
            raise ValueError("give exactly one of reflectivity and gain")
        if self.reflectivity is None:
            if not self.gain >= 1.0:
                raise ValueError("gain must satisfy g >= 1")
            # g^-2 once 1 + g^2 rounds to g^2 (g >= 2^27), so g^2 never overflows
            object.__setattr__(self, "reflectivity", 1.0 / (1.0 + self.gain ** 2)
                               if self.gain < 2.0 ** 27 else self.gain ** -2.0)
        else:
            if not 0.0 < self.reflectivity < 1.0:
                raise ValueError("reflectivity must satisfy 0 < R < 1")
            object.__setattr__(
                self, "gain",
                math.sqrt((1.0 - self.reflectivity) / self.reflectivity))
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("detector efficiency must satisfy 0 < mu <= 1")
        if not 0.0 <= self.delta <= 2.0:
            raise ValueError("purity parameter must satisfy 0 <= delta <= 2")
        if not 0.0 < self.eta_m <= 1.0:
            raise ValueError("mode matching must satisfy 0 < eta_m <= 1")
        if self.detector not in _DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.dim.n_max < 2:
            raise ValueError("need n_max >= 2 for the two-photon resource term")


@dataclass(frozen=True)
class AdditionConfig:
    """Heralded photon-addition parameters; g = cosh^2(chi), h = cosh^2(gamma chi)."""

    dim: FockDim = FockDim(15)
    chi: float = 0.105
    gamma: float = 0.0
    mu: float = 1.0
    detector: str = "photon_counter"
    include_faulty: bool = True

    def __post_init__(self):
        if not self.chi >= 0.0:
            raise ValueError("interaction strength chi must be >= 0")
        if not self.gamma >= 0.0:
            raise ValueError("parasite ratio gamma must be >= 0")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("detector efficiency must satisfy 0 < mu <= 1")
        if self.detector not in _DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")


def ideal_truncated_amplifier(g: float, dim: FockDim) -> ProcessTensor:
    """Reference map g^n truncated to the span of |0> and |1>."""
    if not g >= 1.0 or g * g == math.inf:  # the tensor holds g^2
        raise ValueError("gain must satisfy g >= 1, with g^2 finite")
    k = np.zeros((dim.size, dim.size))
    k[0, 0] = 1.0
    if dim.size > 1:
        k[1, 1] = g
    return tensor_from_kraus(KrausSet(dim, [k]))


def ideal_photon_addition(dim: FockDim) -> ProcessTensor:
    """Bare creation operator as a single Kraus; trace-increasing reference."""
    return tensor_from_kraus(KrausSet(dim, [creation(dim)]))


def _click_weights(detector: str, mu: float, count: int):
    """Per-branch diagonal weights (w_intended, w_spurious) for one detector.

    Branch 1 attributes the click to the intended mode (spurious quiet),
    branch 2 to the spurious mode (intended unconditioned); the two sum to
    the exact click POVM of the combined pair. Every detector weight of both
    models is read from here, the amplifier's unmonitored port and the
    addition's idler included.
    """
    if detector == "apd":
        click = apd_click(mu).diagonal(count)
        return (click, 1.0 - click), (np.ones(count), click)
    click = photon_counter(1).diagonal(count)
    vac = vacuum_projector().diagonal(count)
    return (click, vac), (vac, click)


def amplifier_branches(cfg: AmplifierConfig):
    """Correct and faulty amplifier tensors before combination."""
    n_max, d = cfg.dim.n_max, cfg.dim.size
    f = n_max + 3  # photon totals at the S-BS; the resource adds at most 2
    gap = np.abs(np.subtract.outer(np.arange(f), np.arange(f)))

    # the resource mixture after the asymmetric splitter, b, B = herald arm:
    # R[o, O, b, B] = sum_p w_p <o, b|U_R|p, 0> <O, B|U_R|p, 0>, o + b = p
    split = beam_splitter_columns(math.sqrt(1.0 - cfg.reflectivity), 3, 1)[..., 0]
    p, o = np.tril_indices(3)
    res = np.zeros((3, 3, 3))
    res[o, p - o, p] = split[p, o]
    weights = np.real(np.diag(experimental_single_photon(cfg.delta, FockDim(2)).matrix))
    resource = np.einsum("obp,p,OBp->oObB", res, weights, res)
    # S-BS columns cols[N, d, b] = <d, N - d|U|N - b, b>; cols[u, :, 0] also
    # splits u mismatched photons toward the same detectors. A column with
    # N - b > n_max meets only the zero padding of amp below. Matched
    # amplitudes amp[x, n] = <x, n - x|U_m|n, 0>
    cols = beam_splitter_columns(math.sqrt(0.5), f, 3)
    amp = beam_splitter_columns(math.sqrt(cfg.eta_m), d, 1)[..., 0].T

    branches = _click_weights(cfg.detector, cfg.mu, f)
    # the condition on the unmonitored S-BS port is branch 1's quiet weight
    wso = branches[0][1]

    # the click detector sits on the second S-BS port (port 1 carries the
    # vacuum / no-click condition); this is the wiring that makes a coherent
    # input come out as |0> + g alpha |1> with a plus sign. Every herald
    # weight is diagonal and every splitter conserves photon number, so each
    # detector pair collapses to one weight per photon total; the columns
    # are zero where d > N, so wso(d) w(|N - d|) weighs only real pairs.
    x, b = np.arange(d)[:, None, None], np.arange(3)[:, None]
    tensors = []
    for w_click, w_mismatch in branches:
        # herald pair H[N, b, B] and mismatch weight lam[u] per lost photon count
        h = np.einsum("Ndb,Nd,NdB->NbB", cols, wso * w_click[gap], cols)
        lam = np.einsum("ud,ud->u", cols[:d, :, 0] ** 2, wso * w_mismatch[gap[:d]])
        # g[o, O, x] = sum_{b, B} R[o, O, b, B] H[x + b, b, B], x matched photons
        g = np.einsum("oObB,xbB->oOx", resource, h[x + b, b, np.arange(3)])
        # E[o, O, n, m] = sum_x g[o, O, x] lam(n - x) amp[x, n] amp[x - q, m]
        # with q = o - O = n - m, kept as e[o, O, n]
        lam_amp = lam[gap[:d, :d]] * amp
        padded = np.pad(amp, 2)
        e = np.zeros((3, 3, d))
        for q in range(-2, 3):
            o = np.arange(max(0, q), min(3, 3 + q))
            e[o, o - q] = g[o, o - q] @ (lam_amp * padded[2 - q:d + 2 - q, 2 - q:d + 2 - q])
        tensors.append(_band_tensor(cfg.dim, _amplifier_blocks(e)))
    return tensors[0], tensors[1]


def _amplifier_blocks(e):
    """(s, B_s) per shift s = o - n of the amplifier's e[o, O, n]: the leading
    corner B_s[i, j] = E[o_i, o_j, o_i - s, o_j - s], o_i = max(0, s) + i <= 2,
    made exactly symmetric."""
    d = e.shape[2]
    for s in range(1 - d, 3):
        o = np.arange(max(0, s), min(3, d + s))
        block = e[o[:, None], o, o[:, None] - s]
        yield s, (block + block.T) / 2.0


def _gate_physical(t: ProcessTensor, label: str) -> ProcessTensor:
    return require_tni(require_cp(t, label), label)


def amplifier_model(cfg: AmplifierConfig) -> ProcessTensor:
    correct, faulty = amplifier_branches(cfg)
    total = combine_heralding(correct, faulty) if cfg.include_faulty else correct
    return _gate_physical(total, "amplifier model")


def addition_branches(cfg: AdditionConfig):
    """Correct and faulty photon-addition tensors before combination."""
    dim = cfg.dim
    d = dim.size
    v = two_mode_squeeze_amplitudes(cfg.chi, dim.n_max, d)
    h = math.cosh(cfg.gamma * cfg.chi) ** 2
    (wc, _), _ = _click_weights(cfg.detector, cfg.mu, d)
    if cfg.detector == "apd":
        # parasite thermal weights q_i = (1/h)((h-1)/h)^i resummed exactly
        kappa_nc = 1.0 / (cfg.mu * h + 1.0 - cfg.mu)
        scale, weight_faulty = kappa_nc, 1.0 - kappa_nc
    else:
        # q0 = 1/h: no parasite pair, so the click is the single idler photon
        scale, weight_faulty = 1.0 / h, (h - 1.0) / h ** 2
    # the faulty branch first: its unscaled identity is freed before the
    # correct branch is allocated
    faulty_t = scale_tensor(identity_tensor(dim), weight_faulty)
    # scale * sum_j v[l, j, n] w_j v[k, j, m]: idler count j feeds only the
    # shift block j, with amplitude a_n = v[n+j, j, n]; each entry is
    # scale * ((a_n w_j) a_m), the unoptimized einsum's own order of
    # operations, so the result is bit-for-bit the same
    diagonals = ((j, np.diagonal(v[:, j], -j)) for j in np.flatnonzero(wc))
    correct_t = _band_tensor(dim, ((j, scale * np.outer(a * wc[j], a))
                                   for j, a in diagonals))
    return correct_t, faulty_t


def addition_model(cfg: AdditionConfig) -> ProcessTensor:
    correct, faulty = addition_branches(cfg)
    total = combine_heralding(correct, faulty) if cfg.include_faulty else correct
    return _gate_physical(total, "addition model")

