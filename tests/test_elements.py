import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cvmaps import cli
from cvmaps.elements import (
    DetectorElement,
    apd_click,
    attenuation,
    attenuation_kraus,
    beam_splitter,
    beam_splitter_block,
    beam_splitter_columns,
    beam_splitter_matrix,
    displacement,
    experimental_single_photon,
    identity,
    parametric_amplification,
    parametric_down_conversion,
    phase_rotation,
    photon_counter,
    squeezing,
    two_mode_squeeze_amplitudes,
    two_mode_squeeze_matrix,
    vacuum_projector,
)
from cvmaps.fock import (
    DensityOperator,
    FockDim,
    coherent_state,
    fock_state,
    normalize,
    thermal_state,
)
from cvmaps.kernels import GaussianKernel, compose_kernels
from cvmaps.tensors import apply_kraus, apply_tensor, tensor_from_kraus
from cvmaps.wigner import QuadratureGrid, grid_integral, weyl_symbol, wigner_of


def partial_trace_first(rho2: DensityOperator, dim: FockDim) -> DensityOperator:
    d = dim.size
    arr = rho2.matrix.reshape(d, d, d, d)
    return DensityOperator(dim, np.einsum("abad->bd", arr))


def coherent_field_after(delta: GaussianKernel, alpha: complex, grid: QuadratureGrid):
    """Closed-form output Wigner of a delta channel on a coherent input."""
    pts = np.stack(np.broadcast_arrays(grid.xs[:, None], grid.ps[None, :]), axis=-1)
    # W'(r') = W(X^-1 (r' - d))
    mapped = np.linalg.solve(delta.X, (pts - delta.d).reshape(-1, 2).T).T
    mapped = mapped.reshape(grid.n_x, grid.n_p, 2)
    return oracles.coherent_wigner(alpha, mapped[..., 0], mapped[..., 1])


def check_delta_element(element, alpha, tol=1e-8):
    dim = element.kraus.dim
    grid = QuadratureGrid(-4.0, 4.0, -4.0, 4.0, 33, 33)
    rho = coherent_state(alpha, dim)
    out = apply_kraus(element.kraus, rho)
    w_num = wigner_of(out, grid).values
    w_ref = coherent_field_after(element.kernel, alpha, grid)
    assert np.max(np.abs(w_num - w_ref)) < tol, element.name


def test_identity_element():
    el = identity(FockDim(20))
    assert np.array_equal(el.kernel.X, np.eye(2)) and el.kernel.is_delta
    check_delta_element(el, 0.6 - 0.3j, tol=1e-10)


def test_phase_rotation_element():
    el = phase_rotation(math.pi / 3.0, FockDim(20))
    check_delta_element(el, 0.7 + 0.2j)
    # coherent transport: rotation acts on alpha as multiplication
    dim = FockDim(25)
    el2 = phase_rotation(0.9, dim)
    out = apply_kraus(el2.kraus, coherent_state(0.5, dim))
    ref = coherent_state(0.5 * np.exp(-0.9j), dim)
    assert np.max(np.abs(out.matrix - ref.matrix)) < 1e-12


def test_displacement_element():
    el = displacement(0.5 + 0.2j, FockDim(20))
    check_delta_element(el, 0.3 - 0.1j)
    shift = el.kernel.d
    assert abs(shift[0] - math.sqrt(2.0) * 0.5) < 1e-15
    assert abs(shift[1] - math.sqrt(2.0) * 0.2) < 1e-15


def test_squeezing_element():
    el = squeezing(0.35, FockDim(40))
    check_delta_element(el, 0.2)
    m = el.kernel.X
    assert abs(m[0, 0] - math.exp(-0.35)) < 1e-15
    assert abs(m[1, 1] - math.exp(0.35)) < 1e-15
    assert abs(np.linalg.det(m) - 1.0) < 1e-14


def test_beam_splitter_unitary_on_exact_block():
    dim = FockDim(7)
    d = dim.size
    u = beam_splitter_matrix(math.sqrt(0.6), dim)
    cols = [n1 * d + n2 for n1 in range(d) for n2 in range(d) if n1 + n2 <= dim.n_max]
    g = u[:, cols].T @ u[:, cols]
    assert np.max(np.abs(g - np.eye(len(cols)))) < 1e-13


def test_beam_splitter_sign_convention():
    dim = FockDim(4)
    d = dim.size
    t = math.sqrt(0.6)
    r = math.sqrt(0.4)
    u = beam_splitter_matrix(t, dim)
    col = u[:, 1 * d + 0]
    assert abs(col[1 * d + 0] - t) < 1e-15
    assert abs(col[0 * d + 1] + r) < 1e-15
    assert np.max(np.abs(np.delete(col, [d, 1]))) == 0.0


def test_beam_splitter_against_expm():
    dim = FockDim(6)
    d = dim.size
    u = beam_splitter_matrix(0.7, dim)
    ref = oracles.bs2(0.7, d)
    cols = [n1 * d + n2 for n1 in range(d) for n2 in range(d) if n1 + n2 <= dim.n_max]
    diff = np.max(np.abs(u[np.ix_(cols, cols)] - ref[np.ix_(cols, cols)]))
    assert diff < 1e-12


@pytest.mark.parametrize("t, n1, n2, n_out", [
    (0.7, 5, 0, 4),
    (math.sqrt(0.5), 6, 2, 5),
    (-0.4, 3, 2, 2),
    (math.sqrt(0.2), 2, 0, 3),
])
def test_beam_splitter_amplitudes_against_expm(t, n1, n2, n_out):
    # <p, q| U |s, b> for s <= n1, b <= n2 and p, q < n_out, read from the
    # whole matrix at a cut that holds all four counts
    n_max = max(n1, n2, n_out - 1)
    d = n_max + 1
    amps = beam_splitter_matrix(t, FockDim(n_max)).reshape((d,) * 4)
    # every input total is at most n1 + n2, so this truncation is exact there
    size = n1 + n2 + 1
    ref = oracles.bs2(t, size).reshape((size,) * 4)
    assert np.max(np.abs(amps[:n_out, :n_out, :n1 + 1, :n2 + 1]
                         - ref[:n_out, :n_out, :n1 + 1, :n2 + 1])) < 1e-12


SPLITTER_AMPLITUDES = pytest.mark.parametrize("t", [
    math.sqrt(0.5), math.sqrt(0.9), math.sqrt(0.2), -math.sqrt(0.5), 0.0, 1.0, -1.0,
], ids=["t2_half", "t2_0.9", "t2_0.2", "negative", "zero", "one", "minus_one"])


@SPLITTER_AMPLITUDES
@pytest.mark.parametrize("totals", [range(67), range(140, 151)], ids=["to_66", "to_150"])
def test_beam_splitter_columns_match_exact_amplitudes(t, totals):
    cols = beam_splitter_columns(t, totals.stop, 3)[totals.start:]
    exact = oracles.splitter_columns_exact(t, totals, 3)
    # no amplitude where p or b exceeds the total
    n, p, b = np.ogrid[totals.start:totals.stop, :totals.stop, :3]
    assert not cols[(p > n) | (b > n)].any()
    # the exact eigh blocks of the whole matrices read these columns no closer
    eigh = max(np.max(np.abs(beam_splitter_block(t, tot)[:, tot - np.arange(k)]
                             - exact[i, :tot + 1, :k]))
               for i, tot in enumerate(totals) for k in [min(3, tot + 1)])
    err = np.max(np.abs(cols - exact))
    assert err <= min(eigh, 4e-15), (err, eigh)


@SPLITTER_AMPLITUDES
def test_beam_splitter_columns_are_orthonormal(t):
    cols = beam_splitter_columns(t, 151, 3)
    for tot in range(151):
        c = cols[tot, :tot + 1, :min(3, tot + 1)]
        assert np.max(np.abs(c.T @ c - np.eye(c.shape[1]))) <= 4e-15, tot


def test_beam_splitter_columns_refuse_bad_arguments():
    for count in (0, 4):
        with pytest.raises(ValueError, match="count"):
            beam_splitter_columns(0.5, 5, count)
    with pytest.raises(ValueError, match="amplitude"):
        beam_splitter_columns(1.5, 5, 1)


@pytest.mark.parametrize("zeta, n1, n_out", [
    (0.105, 5, 4),
    (-0.3, 3, 6),
])
def test_two_mode_squeeze_amplitudes_against_expm(zeta, n1, n_out):
    amps = two_mode_squeeze_amplitudes(zeta, n1, n_out)
    assert amps.shape == (n_out, n_out, n1 + 1)
    # more output room adds rows and columns but changes no entry
    wider = two_mode_squeeze_amplitudes(zeta, n1, n_out + 7)
    assert np.array_equal(amps, wider[:n_out, :n_out])
    # the truncated expm is converged on the low block of a buffered space
    size = max(n_out, n1 + 1) + 22
    ref = oracles.tms2(zeta, size).reshape((size,) * 4)
    assert np.max(np.abs(amps - ref[:n_out, :n_out, :n1 + 1, 0])) < 1e-12


@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(g=st.floats(1.0, 5.0), seed=st.integers(0, 2 ** 32 - 1))
def test_two_mode_squeezer_matches_the_decimal_sum_property(g, seed):
    # entries with both inputs at least half full, where the alternating
    # k-sum it replaces cancels: 0.94 at n_max 63
    rng = np.random.default_rng(seed)
    zeta = math.acosh(math.sqrt(g))
    for n_max in (20, 40, 63):
        d = n_max + 1
        u = two_mode_squeeze_matrix(g, FockDim(n_max)).reshape((d,) * 4)
        s, b = rng.integers((n_max + 1) // 2, d, size=(2, 100))
        p = rng.integers(np.maximum(0, s - b), np.minimum(d, d + s - b))
        errors = [abs(u[i, i + k - j, j, k] - oracles.two_mode_squeeze_reference(
            zeta, i, i + k - j, j, k)) for i, j, k in zip(p, s, b)]
        assert max(errors) <= 1e-14, (n_max, max(errors))


BLOCKER = """
import sys


class Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "jsonschema"):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, Block())
"""
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _files(root):
    return {path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*"))
            if path.is_file()}


def test_import_leaves_scipy_linalg_unloaded(tmp_path):
    # the runtime is numpy alone: importing the CLI loads no scipy or
    # jsonschema module, and tensor, kernel and apply run on every shipped
    # config where neither can be imported, writing what an unblocked run writes
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, cvmaps.cli; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] in ('scipy', 'jsonschema')))"],
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
    configs = []
    for shipped in sorted(CONFIGS.glob("*.json")):
        config = tmp_path / "configs" / shipped.name
        config.parent.mkdir(exist_ok=True)
        config.write_text(json.dumps({**json.loads(shipped.read_text()), "input_state": {
            "kind": "coherent", "alpha_re": 0.7, "alpha_im": 0.2}}))
        configs.append(str(config))
    script = BLOCKER + (
        "from pathlib import Path\n"
        "from cvmaps import cli\n"
        "for config in sys.argv[2:]:\n"
        "    for command in ('tensor', 'kernel', 'apply'):\n"
        "        out = f'{sys.argv[1]}/{command}_{Path(config).stem}'\n"
        "        code = cli.main([command, '--config', config, '--out', out])\n"
        "        assert code == 0, (command, config, code)\n"
        "for name in ('scipy', 'jsonschema'):\n"
        "    try:\n"
        "        __import__(name)\n"
        "    except ImportError:\n"
        "        print('blocked', name)\n")
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "blocked"), *configs],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-2:] == ["blocked scipy", "blocked jsonschema"]
    for config in configs:
        for command in ("tensor", "kernel", "apply"):
            out = tmp_path / "free" / f"{command}_{Path(config).stem}"
            assert cli.main([command, "--config", config, "--out", str(out)]) == 0
    blocked, free = _files(tmp_path / "blocked"), _files(tmp_path / "free")
    assert len(blocked) == 4 * (2 + 4 + 2)  # tensor, kernel and apply files per config
    assert blocked == free


FINITE = "must be finite"  # the GaussianKernel refusal


@pytest.mark.parametrize("build, match", [
    (lambda: GaussianKernel(np.diag([1.0, math.nan]), np.zeros((2, 2)), np.zeros(2)), FINITE),
    (lambda: GaussianKernel(np.diag([1.0, math.inf]), np.eye(2), np.zeros(2)), FINITE),
    (lambda: GaussianKernel(np.eye(2), np.diag([1.0, math.nan]), np.zeros(2)), FINITE),
    (lambda: GaussianKernel(np.eye(2), math.inf * np.eye(2), np.zeros(2)), FINITE),
    (lambda: GaussianKernel(np.eye(2), np.zeros((2, 2)), [math.nan, 0.0]), FINITE),
    (lambda: GaussianKernel(np.eye(2), np.zeros((2, 2)), [0.0, -math.inf]), FINITE),
    (lambda: GaussianKernel(np.eye(2), np.eye(2), np.zeros(2), weight=math.nan), FINITE),
    (lambda: phase_rotation(math.nan, FockDim(3)), FINITE),
    (lambda: squeezing(math.nan, FockDim(3)), FINITE),
    (lambda: parametric_amplification(math.nan, FockDim(3)), "g >= 1"),
    (lambda: parametric_down_conversion(math.nan, FockDim(3)), "g >= 1"),
    (lambda: thermal_state(math.nan, FockDim(3)), ">= 0"),
], ids=["X_nan", "X_inf", "Y_nan", "Y_inf", "d_nan", "d_minus_inf", "weight_nan",
        "phase_rotation", "squeezing", "parametric_amplification",
        "parametric_down_conversion", "thermal_state"])
def test_non_finite_parameters_are_refused(build, match):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=match):
        build()


def test_beam_splitter_element_structure():
    el = beam_splitter(math.sqrt(0.5), FockDim(3))
    assert el.kraus.input_modes == 2 and el.kraus.output_modes == 2
    with pytest.raises(ValueError):
        el.tensor()  # process tensors are single-mode
    assert el.kernel.modes == 2 and el.kernel.is_delta
    assert abs(np.linalg.det(el.kernel.X) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        beam_splitter_matrix(1.5, FockDim(3))


def test_two_mode_squeezer_against_expm():
    g = 1.3
    dim = FockDim(24)
    d = dim.size
    u = two_mode_squeeze_matrix(g, dim)
    ref = oracles.tms2(math.acosh(math.sqrt(g)), d)
    # low block: the truncated expm is converged there, the factorized
    # matrix is exact everywhere
    low = [n1 * d + n2 for n1 in range(6) for n2 in range(6)]
    assert np.max(np.abs(u[np.ix_(low, low)] - ref[np.ix_(low, low)])) < 1e-12


def test_two_mode_squeezer_closed_form_column():
    g = 1.44
    dim = FockDim(12)
    d = dim.size
    u = two_mode_squeeze_matrix(g, dim)
    zeta = math.acosh(math.sqrt(g))
    lam = math.tanh(zeta)
    sech = 1.0 / math.cosh(zeta)
    for n in (0, 1, 4):
        for j in range(d - n):
            expect = lam ** j * math.sqrt(math.comb(n + j, j)) * sech ** (n + 1)
            assert abs(u[(n + j) * d + j, n * d] - expect) < 1e-14, (n, j)


def test_pdc_vacuum_herald_mean():
    g = 1.2
    dim = FockDim(20)
    el = parametric_down_conversion(g, dim)
    vac = fock_state(0, dim).matrix
    vac2 = DensityOperator(dim, np.kron(vac, vac), 2)
    out = apply_kraus(el.kraus, vac2)
    idler = partial_trace_first(out, dim)
    mean = float(np.sum(np.arange(dim.size) * idler.diagonal()))
    assert abs(mean - oracles.PDC_G12_HERALD_MEAN) < 1e-6
    assert abs(idler.trace - 1.0) < 1e-12


def mean_amplitudes(rho2: DensityOperator, dim: FockDim) -> np.ndarray:
    """sqrt(2) (Re, Im) of <a_1> and <a_2>: the mean (x_1, p_1, x_2, p_2)."""
    a = np.diag(np.sqrt(np.arange(1.0, dim.size)), 1)
    eye = np.eye(dim.size)
    means = [np.trace(rho2.matrix @ op) / rho2.trace
             for op in (np.kron(a, eye), np.kron(eye, a))]
    return math.sqrt(2.0) * np.array([[m.real, m.imag] for m in means]).ravel()


@pytest.mark.parametrize("element", [
    pytest.param(lambda dim: beam_splitter(math.sqrt(0.6), dim), id="beam_splitter"),
    pytest.param(lambda dim: parametric_down_conversion(1.2, dim),
                 id="parametric_down_conversion"),
])
def test_two_mode_kernel_transports_mean_amplitudes(element):
    # the kernel's X sends the input means to the means the Kraus operator
    # produces, e.g. (t a1 + r a2, -r a1 + t a2) for the beam splitter
    dim = FockDim(20)
    el = element(dim)
    a1, a2 = 0.3 - 0.2j, -0.1 + 0.25j
    psi = np.kron(coherent_state(a1, dim).matrix, coherent_state(a2, dim).matrix)
    out = apply_kraus(el.kraus, DensityOperator(dim, psi, 2))
    r_in = math.sqrt(2.0) * np.array([a1.real, a1.imag, a2.real, a2.imag])
    assert np.max(np.abs(mean_amplitudes(out, dim) - el.kernel.X @ r_in)) < 1e-10


def test_attenuation_kraus_complete():
    dim = FockDim(10)
    for eta in (0.2, 0.64, 1.0):
        ops = attenuation_kraus(eta, dim)
        s = sum(op.conj().T @ op for op in ops)
        assert np.max(np.abs(s - np.eye(dim.size))) < 1e-13, eta
    assert len(attenuation_kraus(1.0, dim)) == 1
    with pytest.raises(ValueError):
        attenuation_kraus(1.2, dim)


def test_attenuation_single_photon_loss_element():
    t = tensor_from_kraus(attenuation(0.4, FockDim(5)).kraus)
    assert abs(oracles.entries(t)[0, 0, 1, 1].real - oracles.ATTENUATION_DROP_04) < 1e-15


def test_attenuation_kernel_closed_form(rng):
    el = attenuation(0.37, FockDim(5))
    pts = rng.uniform(-2.0, 2.0, size=(30, 4))
    ours = el.kernel.evaluate(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    ref = oracles.attenuation_kernel_reference(
        0.37, pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    assert np.max(np.abs(ours - ref)) < 1e-14
    assert attenuation(1.0, FockDim(5)).kernel.is_delta


def test_amplification_kernel_closed_form(rng):
    el = parametric_amplification(1.7, FockDim(5))
    pts = rng.uniform(-2.0, 2.0, size=(30, 4))
    ours = el.kernel.evaluate(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    ref = oracles.amplification_kernel_reference(
        1.7, pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    assert np.max(np.abs(ours - ref)) < 1e-14
    assert parametric_amplification(1.0, FockDim(5)).kernel.is_delta


def test_amplification_kraus_structure():
    g = 1.2
    dim = FockDim(15)
    el = parametric_amplification(g, dim)
    gam2 = (g - 1.0) / g
    k1 = el.kraus.operators[1]
    for n in range(5):
        expect = math.sqrt(gam2 * (n + 1)) * g ** (-(n + 1) / 2.0)
        assert abs(k1[n + 1, n] - expect) < 1e-15
    # the largest eigenvalue of sum E_i^dag E_i - I is 0 up to truncation
    completeness = sum(op.conj().T @ op for op in el.kraus.operators)
    defect = np.linalg.eigvalsh(completeness).max() - 1.0
    assert -1e-10 < defect <= 1e-14


def test_attenuation_amplification_commutation_params():
    # att(eta) after amp(G) equals amp(G') after att(eta') with
    # G' = eta G + 1 - eta and eta' = eta G / G'
    g, eta = 2.0, 0.5
    gp = eta * g + 1.0 - eta
    etap = eta * g / gp
    dim = FockDim(5)
    left = compose_kernels(attenuation(eta, dim).kernel,
                           parametric_amplification(g, dim).kernel)
    right = compose_kernels(parametric_amplification(gp, dim).kernel,
                            attenuation(etap, dim).kernel)
    for field in ("X", "Y", "d", "weight"):
        assert np.max(np.abs(getattr(left, field) - getattr(right, field))) < 1e-14, field


def test_attenuation_amplification_commutation_states():
    g, eta = 2.0, 0.5
    gp, etap = 1.5, 2.0 / 3.0
    dim = FockDim(30)
    rho = coherent_state(0.4 + 0.1j, dim)
    left = apply_kraus(attenuation(eta, dim).kraus,
                       apply_kraus(parametric_amplification(g, dim).kraus, rho))
    right = apply_kraus(parametric_amplification(gp, dim).kraus,
                        apply_kraus(attenuation(etap, dim).kraus, rho))
    assert np.max(np.abs(left.matrix - right.matrix)) < 1e-8


def test_gaussian_channel_spec_validation():
    # a 0.8 splitter with vacuum in the spare port: X = sqrt(0.8) I, Y = 0.1 I
    k = attenuation(0.8, FockDim(3)).kernel
    assert isinstance(k, GaussianKernel) and not k.is_delta
    assert np.allclose(k.X, math.sqrt(0.8) * np.eye(2))
    assert np.allclose(k.Y, 0.1 * np.eye(2))
    assert abs(k.evaluate(0.0, 0.0, 0.0, 0.0) - 1.0 / (math.pi * 0.2)) < 1e-12
    with pytest.raises(ValueError):
        GaussianKernel(np.eye(3), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        GaussianKernel(2.0 * np.eye(2), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        GaussianKernel(np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    # the noiseless identity channel is a delta, with no sampled values
    ident = identity(FockDim(3)).kernel
    assert ident.is_delta
    with pytest.raises(TypeError):
        ident.evaluate(0.0, 0.0, 0.0, 0.0)


def test_detector_matrices_and_completeness():
    dim = FockDim(6)
    apd = apd_click(0.11)
    m = apd.matrix(dim)
    assert abs(m[2, 2].real - oracles.APD_TWO_PHOTON_011) < 1e-15
    assert m[0, 0] == 0.0
    # 0 <= Pi <= I, so the no-click element I - Pi is a POVM element too
    assert np.all((0.0 <= np.diag(m)) & (np.diag(m) <= 1.0))
    pc = photon_counter(3)
    assert pc.matrix(dim)[3, 3] == 1.0
    assert np.sum(pc.matrix(dim)) == 1.0
    vp = vacuum_projector()
    assert vp.matrix(dim)[0, 0] == 1.0
    # a count above the truncation never fires
    assert not np.any(pc.diagonal(3))
    with pytest.raises(ValueError):
        DetectorElement("bolometer")
    with pytest.raises(ValueError):
        photon_counter(-2)
    with pytest.raises(ValueError):
        DetectorElement("apd_click", mu=0.0)


def test_detector_weyl_overlap():
    # Tr(Pi rho) equals the phase-space overlap of the Weyl symbol with W
    dim = FockDim(12)
    grid = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 97, 97)
    rho = thermal_state(0.8, dim)
    apd = apd_click(0.3)
    direct = float(np.real(np.trace(apd.matrix(dim) @ rho.matrix)))
    sym = weyl_symbol(apd.matrix(dim), dim, grid).real
    indirect = grid_integral(sym * wigner_of(rho, grid).values, grid)
    assert abs(direct - indirect) < 1e-8


def test_experimental_single_photon_structure():
    dim = FockDim(4)
    pure = experimental_single_photon(2.0, dim)
    assert np.array_equal(pure.diagonal(), np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    vac = experimental_single_photon(0.0, dim)
    assert vac.diagonal()[0] == 1.0
    mixed = experimental_single_photon(1.0, dim)
    w1 = 0.5
    w2 = 0.25 * w1 * (1.0 - w1)
    assert abs(mixed.diagonal()[1] - w1) < 1e-15
    assert abs(mixed.diagonal()[2] - w2) < 1e-15
    assert abs(mixed.trace - 1.0) < 1e-15
    with pytest.raises(ValueError):
        experimental_single_photon(2.5, dim)
    with pytest.raises(ValueError):
        experimental_single_photon(1.0, FockDim(1))
    # delta = 2 needs only two levels: no two-photon admixture survives
    assert experimental_single_photon(2.0, FockDim(1)).diagonal()[1] == 1.0


def test_experimental_single_photon_origin_value():
    delta = 0.7
    dim = FockDim(6)
    grid = QuadratureGrid(-2.0, 2.0, -2.0, 2.0, 5, 5)
    w = wigner_of(experimental_single_photon(delta, dim), grid)
    # center node of the odd grid is the origin
    assert abs(w.values[2, 2] - (1.0 - delta) / math.pi) < 1e-14


def test_element_tensor_round_trip():
    el = attenuation(0.5, FockDim(6))
    t = el.tensor()
    assert t.dim == el.dim
    rho = fock_state(2, FockDim(6))
    via_kraus = normalize(apply_kraus(el.kraus, rho))
    via_tensor = normalize(apply_tensor(t, rho))
    assert np.max(np.abs(via_kraus.matrix - via_tensor.matrix)) < 1e-13
