"""Command-line front end: tensor and kernel exports, state transport, checks.

Configs are JSON documents validated against the schema shipped next to this
module (config_schema.json); unknown keys are rejected. Tables are rendered
column by column: each distinct float of a column is formatted once, as the
shortest round-trip decimal with negative zero folded to zero, and each JSON
record is written from one template in the layout of
json.dumps(records, indent=2, sort_keys=True). Identical configs produce
byte-identical files.

Exit codes: 0 success, 1 check or cross-check failure, 2 config or state
violation (a radial kernel above the size cap included), 3 physicality gate
(PhysicalityError: CP for every command, and trace non-increase for apply),
4 kernel export requested for a model without phase symmetry
(PhaseSymmetryError from the tensors gate). CVMAPS_FAULT injects a named
defect into the verify battery (test hook).
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
from jsonschema import Draft7Validator, validators

from .fock import (DensityOperator, FockDim, coherent_state, fock_state, normalize,
                   thermal_state)
from .wigner import QuadratureGrid, grid_integral, wigner_basis, wigner_of
from .tensors import (PhaseSymmetryError, PhysicalityError, ProcessTensor, apply_tensor,
                      require_cp, require_tni, tensor_diagonal)
from .kernels import _require_radial_size, apply_kernel, kernel_from_tensor, radial_form
from . import elements as el
from . import models as md

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_CP = 3
EXIT_PHASE = 4

_SCHEMA_PATH = Path(__file__).with_name("config_schema.json")
_PROFILE_SUMS = (2.0, 20.0)
_PROFILE_HALF_RANGE = 3.0
_PROFILE_POINTS = 121
_CROSS_CHECK_TOL = 1e-6
# apply's default box: half-widths on this ladder, at most this spacing
_APPLY_HALF_STEP = 0.5
_APPLY_HALF_MAX = 30.0
_APPLY_SPACING = 0.2
_APPLY_MIN_POINTS = 81
_APPLY_MASS_TOL = 1e-9


# Draft 7's "integer" admits 6.0: config integers are JSON integers, never booleans
_ConfigValidator = validators.extend(Draft7Validator, type_checker=Draft7Validator.TYPE_CHECKER
                                     .redefine("integer", lambda _, v: type(v) is int))


def format_float(v: float) -> str:
    """Shortest decimal that round-trips; adding 0.0 folds -0.0 to 0.0 alone."""
    return repr(float(v) + 0.0)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _column_texts(column, json_table: bool) -> list:
    """The text of each entry of an array, or a list, of floats, ints or strings.

    Floats are written as format_float writes them, each distinct value
    formatted once (in JSON, non-finite values as json writes them); other
    entries go through json.dumps in JSON and str in CSV.
    """
    if not isinstance(column, np.ndarray):  # a str array would drop trailing NULs
        floats = all(isinstance(v, float) for v in column)
        column = np.array(column, dtype=float if floats else object)
    if column.dtype.kind != "f":
        return list(map(json.dumps if json_table else str, column.tolist()))
    distinct, index = np.unique(column.astype(float) + 0.0, return_inverse=True)
    texts = list(map(float.__repr__, distinct.tolist()))
    if json_table and not np.isfinite(distinct).all():
        texts = [_JSON_NONFINITE.get(text, text) for text in texts]
    return list(map(texts.__getitem__, index.tolist()))


def render_csv(header, columns) -> str:
    """CSV of equal-length columns, one per header name."""
    texts = [_column_texts(column, False) for column in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*texts))]) + "\n"


def render_json_table(header, columns) -> str:
    """JSON records of the rows of equal-length columns, as
    json.dumps(records, indent=2, sort_keys=True) writes them, with -0.0
    folded to 0.0 as format_float does."""
    by_key = dict(zip(header, columns))
    keys = sorted(by_key)
    texts = [_column_texts(by_key[key], True) for key in keys]
    if not texts or not texts[0]:
        return "[]\n"
    fields = ",\n".join("    " + json.dumps(key).replace("{", "{{").replace("}", "}}") + ": {}"
                        for key in keys)
    record = "  {{\n" + fields + "\n  }}"
    return "[\n" + ",\n".join(map(record.format, *texts)) + "\n]\n"


def _diagonal_columns(t: ProcessTensor):
    """(m, k, value) columns of the diagonal slice, m slowest."""
    diagonal = tensor_diagonal(t).real.T  # [m, k]
    m, k = np.indices(diagonal.shape)
    return m.ravel(), k.ravel(), diagonal.ravel()


def render_tensor_csv(t: ProcessTensor) -> str:
    return render_csv(("m", "k", "value"), _diagonal_columns(t))


_TENSOR_PLOT = """\
import csv

import matplotlib.pyplot as plt
import numpy as np

rows = list(csv.DictReader(open("tensor_diagonal.csv")))
m = np.array([int(r["m"]) for r in rows])
k = np.array([int(r["k"]) for r in rows])
v = np.array([float(r["value"]) for r in rows])
side = m.max() + 1
grid = np.zeros((side, side))
grid[k, m] = v
fig, ax = plt.subplots(figsize=(5, 4))
im = ax.imshow(grid, origin="lower", aspect="equal", cmap="viridis")
ax.set_xlabel("input photon number m")
ax.set_ylabel("output photon number k")
fig.colorbar(im, ax=ax, label="diagonal element")
fig.tight_layout()
fig.savefig("tensor_diagonal.png", dpi=160)
"""

_KERNEL_PLOT = """\
import csv
import glob

import matplotlib.pyplot as plt
import numpy as np

for name in sorted(glob.glob("kernel_theta_*.csv")):
    rows = list(csv.DictReader(open(name)))
    rp = np.array([float(r["r_prime"]) for r in rows])
    rr = np.array([float(r["r"]) for r in rows])
    v = np.array([float(r["value"]) for r in rows])
    nrp = len(np.unique(rp))
    nr = len(np.unique(rr))
    grid = v.reshape(nrp, nr)
    fig, ax = plt.subplots(figsize=(5, 4))
    lim = np.abs(grid).max()
    im = ax.pcolormesh(np.unique(rr), np.unique(rp), grid, cmap="RdBu_r",
                       vmin=-lim, vmax=lim)
    ax.set_xlabel("input radius r")
    ax.set_ylabel("output radius r'")
    fig.colorbar(im, ax=ax, label="kernel value")
    fig.tight_layout()
    fig.savefig(name.replace(".csv", ".png"), dpi=160)
for name in sorted(glob.glob("profile_sum*.csv")):
    rows = list(csv.DictReader(open(name)))
    u = np.array([float(r["r_prime_minus_r"]) for r in rows])
    v = np.array([float(r["value"]) for r in rows])
    fig, ax = plt.subplots(figsize=(5, 3))
    ax.plot(u, v)
    ax.set_xlabel("r' - r")
    ax.set_ylabel("kernel value")
    fig.tight_layout()
    fig.savefig(name.replace(".csv", ".png"), dpi=160)
"""


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def load_config(path: str):
    """Parse and schema-validate a config; raises ValueError on any problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_finite, parse_float=_finite)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    with open(_SCHEMA_PATH, "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    errors = sorted(_ConfigValidator(schema).iter_errors(data),
                    key=lambda e: list(e.path))
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.path) or "<root>"
        raise ValueError(f"config violates schema at {where}: {first.message}")
    return data


_FIELD_NAMES = {"R": "reflectivity", "g": "gain"}


def _fields_set(cfg, config_class) -> dict:
    """The model fields a config sets, under the dataclass's own names."""
    fields = {f.name for f in dataclasses.fields(config_class)}
    named = {_FIELD_NAMES.get(key, key): value for key, value in cfg.items()}
    return {key: value for key, value in named.items() if key in fields}


def build_model(cfg) -> ProcessTensor:
    """Single-mode process tensor for a validated config."""
    name = cfg["model"]
    dim = FockDim(cfg.get("n_max", 15))
    if name == "amplifier":
        kwargs = _fields_set(cfg, md.AmplifierConfig)
        if "reflectivity" not in kwargs:
            kwargs.setdefault("gain", 2.0)
        return md.amplifier_model(md.AmplifierConfig(dim=dim, **kwargs))
    if name == "addition":
        return md.addition_model(
            md.AdditionConfig(dim=dim, **_fields_set(cfg, md.AdditionConfig)))
    if name == "ideal_amplifier":
        return md.ideal_truncated_amplifier(cfg.get("g", 2.0), dim)
    if name == "ideal_addition":
        return md.ideal_photon_addition(dim)
    if name == "identity":
        return el.identity(dim).tensor()
    if name == "phase_rotation":
        return el.phase_rotation(cfg.get("theta", 0.0), dim).tensor()
    if name == "displacement":
        alpha = complex(cfg.get("alpha_re", 0.0), cfg.get("alpha_im", 0.0))
        return el.displacement(alpha, dim).tensor()
    if name == "squeezing":
        return el.squeezing(cfg.get("r", 0.0), dim).tensor()
    if name == "attenuation":
        return el.attenuation(cfg.get("eta", 0.5), dim).tensor()
    if name == "parametric_amplification":
        return el.parametric_amplification(cfg.get("g", 1.2), dim).tensor()
    raise ValueError(f"unhandled model {name}")


def build_input_state(cfg, dim: FockDim) -> DensityOperator:
    spec = cfg.get("input_state")
    if spec is None:
        raise ValueError("apply needs an input_state block in the config")
    kind = spec["kind"]
    if kind == "coherent":
        alpha = complex(spec.get("alpha_re", 0.0), spec.get("alpha_im", 0.0))
        if math.hypot(alpha.real, alpha.imag) > math.sqrt(dim.n_max) / 2:  # abs() may overflow
            raise ValueError(f"coherent amplitude {alpha} too large for n_max={dim.n_max}")
        return coherent_state(alpha, dim)
    if kind == "fock":
        n = spec.get("n", 0)
        if n > dim.n_max:
            raise ValueError(f"fock level {n} exceeds n_max={dim.n_max}")
        return fock_state(n, dim)
    if kind == "thermal":
        return thermal_state(spec.get("mean_n", 0.0), dim)
    raise ValueError(f"unhandled input_state kind {kind}")


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError('grid must be "min,max,n"')
    lo, hi = _finite(parts[0]), _finite(parts[1])
    n = int(parts[2])
    if not (hi > lo and n >= 2):
        raise ValueError("grid needs max > min and n >= 2")
    return lo, hi, n


def _default_apply_grid(dim: FockDim) -> QuadratureGrid:
    """One input and output box that holds the truncated space.

    The half-width L is the smallest multiple of 0.5 for which the trapezoid
    integral of W_{n_max,n_max}, the widest Fock state, is within 1e-9 of 1
    on the box; the box has max(81, 2L/0.2 + 1) points per axis.
    """
    n = dim.n_max
    steps = int(_APPLY_HALF_MAX / _APPLY_HALF_STEP)
    for half in _APPLY_HALF_STEP * np.arange(1, steps + 1):
        points = max(_APPLY_MIN_POINTS, int(round(2.0 * half / _APPLY_SPACING)) + 1)
        grid = QuadratureGrid(-half, half, -half, half, points, points)
        w = wigner_basis(n, n, grid.xs[:, None], grid.ps[None, :]).real
        if abs(grid_integral(w, grid) - 1.0) <= _APPLY_MASS_TOL:
            return grid
    raise ValueError(f"no box up to +-{_APPLY_HALF_MAX} holds n_max={n}")


def _parse_theta(text: str):
    """The angles of a comma-separated list, each of which names its own file."""
    vals = [_finite(tok) for tok in text.split(",") if tok.strip() != ""]
    if not vals:
        raise ValueError("theta list is empty")
    if len({_theta_tag(v) for v in vals}) < len(vals):
        raise ValueError(f"theta list {text!r} repeats an angle")
    return vals


def _theta_tag(theta: float) -> str:
    return format_float(theta).replace("-", "m").replace(".", "p")


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return target


def _write_table(out_dir: Path, stem: str, header, columns, fmt: str) -> Path:
    """The table as <stem>.json when fmt is "json", else as <stem>.csv."""
    if fmt == "json":
        return _write(out_dir, stem + ".json", render_json_table(header, columns))
    return _write(out_dir, stem + ".csv", render_csv(header, columns))


def cmd_tensor(args) -> int:
    cfg = load_config(args.config)
    t = build_model(cfg)
    require_cp(t)
    out = Path(args.out)
    _write_table(out, "tensor_diagonal", ("m", "k", "value"), _diagonal_columns(t),
                 args.format)
    if args.format != "json":
        _write(out, "plot_tensor.py", _TENSOR_PLOT)
    print(f"tensor: wrote diagonal slice for {cfg['model']} "
          f"(n_max={t.dim.n_max}) to {out}")
    return EXIT_OK


def cmd_kernel(args) -> int:
    cfg = load_config(args.config)
    lo, hi, n = _parse_grid(args.grid) if args.grid else (0.0, 5.0, 101)
    if hi <= 0.0:
        raise ValueError("a radial grid needs max > 0: radii are non-negative")
    thetas = _parse_theta(args.theta) if args.theta else [0.0]
    t = build_model(cfg)
    require_cp(t)
    _require_radial_size(t.dim.size, n, n, len(thetas))  # before the axis is built
    r_axis = np.linspace(max(lo, 0.0), hi, n)
    rk = radial_form(t, r_axis, r_axis, np.asarray(thetas, float))
    out = Path(args.out)
    header = ("r_prime", "r", "theta", "value")
    axes = (np.repeat(r_axis, n), np.tile(r_axis, n))  # r' slowest
    for i, theta in enumerate(thetas):
        columns = (*axes, np.full(n * n, theta), rk.values[:, :, i].ravel())
        _write_table(out, f"kernel_theta_{_theta_tag(theta)}", header, columns, args.format)
    for total in _PROFILE_SUMS:
        u = np.linspace(-_PROFILE_HALF_RANGE, _PROFILE_HALF_RANGE,
                        _PROFILE_POINTS)
        u = u[np.abs(u) <= total]  # radii must stay non-negative
        rp = (total + u) / 2.0
        r = (total - u) / 2.0
        prof = radial_form(t, rp, r, np.zeros(1))
        vals = np.diagonal(prof.values[:, :, 0])
        _write_table(out, f"profile_sum{int(total)}", ("r_prime_minus_r", "r_sum", "value"),
                     (u, np.full(u.size, total), vals), args.format)
    if args.format != "json":
        _write(out, "plot_kernel.py", _KERNEL_PLOT)
    print(f"kernel: wrote {len(thetas)} radial slice(s) and "
          f"{len(_PROFILE_SUMS)} profiles for {cfg['model']} to {out}")
    return EXIT_OK


def cmd_apply(args) -> int:
    cfg = load_config(args.config)
    t = build_model(cfg)
    require_tni(require_cp(t))
    rho_in = build_input_state(cfg, t.dim)
    path = cfg.get("path", "both")
    if args.grid:
        lo, hi, n = _parse_grid(args.grid)
        grid = QuadratureGrid(lo, hi, lo, hi, n, n)
    else:
        grid = _default_apply_grid(t.dim)

    raw = apply_tensor(t, rho_in)
    prob = raw.trace
    if prob <= 0.0:
        print("apply: success probability vanished; nothing to normalize",
              file=sys.stderr)
        return EXIT_CHECK
    rho_out = normalize(raw)

    cross = None
    if path in ("kernel", "both"):
        fk = kernel_from_tensor(t, grid, grid)
        w_kernel = apply_kernel(fk, wigner_of(rho_in, grid))
        w_tensor = wigner_of(raw, grid)
        cross = float(np.abs(w_kernel.values - w_tensor.values).max())
        if cross > _CROSS_CHECK_TOL:
            print(f"apply: tensor and kernel paths disagree "
                  f"(max |diff| {cross:.3e} > {_CROSS_CHECK_TOL})",
                  file=sys.stderr)
            return EXIT_CHECK
        w_out = w_kernel.values / prob
    else:
        w_out = wigner_of(rho_out, grid).values

    out = Path(args.out)
    state = {
        "model": cfg["model"],
        "n_max": t.dim.n_max,
        "path": path,
        "success_probability": prob,
        "rho_re": np.real(rho_out.matrix).tolist(),
        "rho_im": np.imag(rho_out.matrix).tolist(),
    }
    if cross is not None:
        state["cross_check_max_diff"] = cross
    _write(out, "output_state.json",
           json.dumps(state, indent=2, sort_keys=True) + "\n")
    columns = (np.repeat(grid.xs, grid.n_p), np.tile(grid.ps, grid.n_x), w_out.ravel())
    _write_table(out, "output_wigner", ("x", "p", "value"), columns, "csv")
    print(f"apply: P = {prob:.6g}, output written to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_checks

    fault = os.environ.get("CVMAPS_FAULT") or None
    summary = run_checks(fault)
    out = Path(args.out)
    _write(out, "verify_summary.json",
           json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for check in summary["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: measured {check['measured']:.3e} "
              f"vs tolerance {check['tolerance']:.3e}")
    n_fail = sum(not c["passed"] for c in summary["checks"])
    print(f"verify: {len(summary['checks']) - n_fail}/"
          f"{len(summary['checks'])} checks passed "
          f"in {summary['runtime_seconds']}s")
    return EXIT_OK if summary["all_passed"] else EXIT_CHECK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvmaps",
        description="Heralded-process tensors and Wigner transfer kernels.",
        epilog="Environment: CVMAPS_FAULT injects a named defect into the "
               "verify battery (test hook).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True,
                           help="path to a JSON model config")
        p.add_argument("--out", default=".", help="output directory")

    def exporter(p):
        common(p)
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="table format for exported slices")

    p_tensor = sub.add_parser("tensor",
                              help="export the diagonal tensor slice")
    exporter(p_tensor)
    p_tensor.set_defaults(func=cmd_tensor)

    p_kernel = sub.add_parser("kernel", help="export radial kernel slices")
    exporter(p_kernel)
    p_kernel.add_argument("--theta", default=None,
                          help="comma-separated relative angles (radians)")
    p_kernel.add_argument("--grid", default=None,
                          help='radial axis as "min,max,n" (default 0,5,101)')
    p_kernel.set_defaults(func=cmd_kernel)

    p_apply = sub.add_parser("apply", help="run a state through the model")
    common(p_apply)
    p_apply.add_argument("--grid", default=None,
                         help='quadrature box as "min,max,n" (default: '
                              "the smallest box that holds the truncated "
                              "space, at least 81 points per axis)")
    p_apply.set_defaults(func=cmd_apply)

    p_verify = sub.add_parser("verify", help="run the self-check battery")
    common(p_verify, needs_config=False)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PhaseSymmetryError as exc:  # a ValueError, so caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHASE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CP


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
