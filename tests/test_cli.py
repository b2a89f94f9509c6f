import collections
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cvmaps import cli, fock, models, tensors, verify, wigner
from cvmaps.fock import FockDim, coherent_state
from cvmaps.tensors import require_cp
from cvmaps.wigner import QuadratureGrid, grid_integral, wigner_basis

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_exit_code_constants():
    assert (cli.EXIT_OK, cli.EXIT_CHECK, cli.EXIT_CONFIG, cli.EXIT_CP,
            cli.EXIT_PHASE) == (0, 1, 2, 3, 4)


def test_format_float_round_trip():
    assert cli.format_float(0.1) == "0.1"
    assert cli.format_float(-0.0) == "0.0"
    assert cli.format_float(1.0 / 3.0) == repr(1.0 / 3.0)
    assert float(cli.format_float(2.0 / 7.0)) == 2.0 / 7.0


def test_tensor_export_identity_structure(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"model": "identity", "n_max": 5})
    code = cli.main(["tensor", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    rows = read_rows(tmp_path / "o" / "tensor_diagonal.csv")
    assert len(rows) == 36
    for row in rows:
        expect = 1.0 if row["m"] == row["k"] else 0.0
        assert float(row["value"]) == expect
    assert (tmp_path / "o" / "plot_tensor.py").exists()


def test_tensor_export_ideal_amplifier_truncation(tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"model": "ideal_amplifier", "g": 2.0, "n_max": 6})
    out = tmp_path / "o"
    assert cli.main(["tensor", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "tensor_diagonal.csv")
    vals = {(int(r["m"]), int(r["k"])): float(r["value"]) for r in rows}
    assert vals[(0, 0)] == 1.0
    assert vals[(1, 1)] == 4.0
    for (m, k), v in vals.items():
        if k >= 2:
            assert v == 0.0, (m, k)


def test_tensor_json_format_matches_csv(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"model": "attenuation",
                                            "eta": 0.6, "n_max": 4})
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["tensor", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["tensor", "--config", cfg, "--out", str(b),
                     "--format", "json"]) == 0
    csv_rows = read_rows(a / "tensor_diagonal.csv")
    json_rows = json.loads((b / "tensor_diagonal.json").read_text())
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        assert int(c["m"]) == j["m"] and int(c["k"]) == j["k"]
        assert float(c["value"]) == j["value"]


def test_format_is_an_option_only_of_the_exporters(tmp_path, capsys):
    # apply writes a fixed csv table and verify a JSON summary, so --format
    # would be ignored there: the parser refuses it with a usage error
    cfg = write_config(tmp_path, "c.json", {"model": "attenuation", "eta": 0.6,
                                            "n_max": 4})
    for argv in (["apply", "--config", cfg], ["verify"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path / "o"), "--format", "json"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    parser = cli.make_parser()
    for command in ("tensor", "kernel"):
        args = parser.parse_args([command, "--config", cfg, "--format", "json"])
        assert args.format == "json"


def test_kernel_export_files_and_profiles(tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"model": "ideal_addition", "n_max": 5})
    out = tmp_path / "o"
    code = cli.main(["kernel", "--config", cfg, "--out", str(out),
                     "--grid", "0,3,31", "--theta", "0.0,-0.5"])
    assert code == 0
    assert (out / "kernel_theta_0p0.csv").exists()
    assert (out / "kernel_theta_m0p5.csv").exists()
    assert (out / "plot_kernel.py").exists()
    slice_rows = read_rows(out / "kernel_theta_0p0.csv")
    assert len(slice_rows) == 31 * 31
    assert all(float(r["theta"]) == 0.0 for r in slice_rows)
    prof = read_rows(out / "profile_sum2.csv")
    assert len(prof) == 81  # |r' - r| <= 2 of the 121-point offset axis
    assert all(float(r["r_sum"]) == 2.0 for r in prof)
    assert (out / "profile_sum20.csv").exists()


def test_kernel_rejects_displacement(tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"model": "displacement", "alpha_re": 0.4, "n_max": 5})
    code = cli.main(["kernel", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_PHASE


def test_kernel_size_cap_exits_config_and_only_asymmetry_exits_phase(tmp_path):
    # a 10^8-point radial axis would be 800 MB and its form 10^16 values;
    # both are refused before anything of that size is built
    invariant = write_config(tmp_path, "a.json", {"model": "ideal_addition", "n_max": 3})
    asymmetric = write_config(tmp_path, "d.json",
                              {"model": "displacement", "alpha_re": 0.4, "n_max": 3})
    tracemalloc.start()
    try:
        for cfg, grid in ((invariant, "0,5,100000000"), (invariant, "0,5,9000")):
            out = tmp_path / grid
            code = cli.main(["kernel", "--config", cfg, "--out", str(out), f"--grid={grid}"])
            assert code == cli.EXIT_CONFIG and not out.exists()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    out = tmp_path / "asymmetric"
    code = cli.main(["kernel", "--config", asymmetric, "--out", str(out), "--grid=0,5,11"])
    assert code == cli.EXIT_PHASE and not out.exists()


def test_kernel_refuses_repeated_angles_before_building_the_model(tmp_path, monkeypatch):
    # 0 and -0.0, and 0.5 and 0.50, would be written to the same file
    cfg = write_config(tmp_path, "c.json", {"model": "ideal_addition", "n_max": 3})
    built = []
    build = cli.build_model
    monkeypatch.setattr(cli, "build_model", lambda c: built.append(c) or build(c))
    for theta in ("0,-0.0", "0,0.5,0.50", "0.0,0"):
        out = tmp_path / theta
        code = cli.main(["kernel", "--config", cfg, "--out", str(out), f"--theta={theta}"])
        assert code == cli.EXIT_CONFIG and not out.exists()
    assert built == []
    out = tmp_path / "distinct"
    assert cli.main(["kernel", "--config", cfg, "--out", str(out), "--grid=0,2,5",
                     "--theta=0,-0.5,0.5"]) == cli.EXIT_OK
    assert len(list(out.glob("kernel_theta_*.csv"))) == 3


def test_kernel_refuses_negative_radii(tmp_path):
    # an axis with max <= 0 would export negative radii r = 0, -0.25, ...
    cfg = write_config(tmp_path, "c.json",
                       {"model": "ideal_addition", "n_max": 3})
    for grid in ("-5,-1,5", "-5,0,5"):
        out = tmp_path / grid
        code = cli.main(["kernel", "--config", cfg, "--out", str(out),
                         f"--grid={grid}"])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()
    # a negative min is clipped to r = 0 as before
    out = tmp_path / "clipped"
    assert cli.main(["kernel", "--config", cfg, "--out", str(out),
                     "--grid=-1,2,5"]) == cli.EXIT_OK
    radii = {float(r["r"]) for r in read_rows(out / "kernel_theta_0p0.csv")}
    assert radii == {0.0, 0.5, 1.0, 1.5, 2.0}


def test_model_defaults_come_from_the_config_classes():
    amp = cli.build_model({"model": "amplifier"})
    assert np.array_equal(
        oracles.entries(amp),
        oracles.entries(models.amplifier_model(models.AmplifierConfig(gain=2.0))))
    add = cli.build_model({"model": "addition"})
    assert np.array_equal(
        oracles.entries(add),
        oracles.entries(models.addition_model(models.AdditionConfig())))


def test_config_rejection(tmp_path):
    bad_key = write_config(tmp_path, "a.json", {"model": "identity", "bogus": 1})
    assert cli.main(["tensor", "--config", bad_key,
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    bad_enum = write_config(tmp_path, "b.json", {"model": "warp_drive"})
    assert cli.main(["tensor", "--config", bad_enum,
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    missing = str(tmp_path / "nope.json")
    assert cli.main(["tensor", "--config", missing,
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    garbled = tmp_path / "g.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert cli.main(["tensor", "--config", str(garbled),
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_integral_floats_are_not_config_integers(tmp_path, capsys):
    # Draft 7 alone admits 6.0 as an integer; FockDim and fock_state would then
    # fail with a traceback instead of the schema message
    cases = [({"model": "identity", "n_max": 6.0}, ("tensor", "kernel", "apply"), "n_max: 6.0"),
             ({"model": "identity", "n_max": 6, "input_state": {"kind": "fock", "n": 2.0}},
              ("apply",), "input_state/n: 2.0")]
    for i, (payload, commands, where) in enumerate(cases):
        cfg = write_config(tmp_path, f"c{i}.json", payload)
        for command in commands:
            out = tmp_path / f"{command}{i}"
            assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
            assert not out.exists()
            assert (f"config violates schema at {where} is not of type 'integer'"
                    in capsys.readouterr().err)


def test_json_tables_fold_negative_zero():
    text = cli.render_json_table(("v", "m", "name"), ([-0.0, 0.5], [0, 1], ["x", "y"]))
    assert json.loads(text) == [{"m": 0, "name": "x", "v": 0.0}, {"m": 1, "name": "y", "v": 0.5}]
    assert "-0.0" not in text and '"v": 0.0' in text


_EDGE_FLOATS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
                2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e16, -2.5)
_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)


@st.composite
def _tables(draw):
    """(header, columns, rows): columns as the CLI passes them, rows as the
    row renderers took them (Python floats, ints and strings)."""
    header = draw(st.lists(st.text('ab_{}"%,\\\u00e9', min_size=1, max_size=3),
                           max_size=4, unique=True))
    n_rows = draw(st.integers(0, 12))
    columns, values = [], []
    for _ in header:
        kind = draw(st.sampled_from(("float", "axis", "int", "str")))
        if kind == "float":
            column = draw(st.lists(_FLOATS, min_size=n_rows, max_size=n_rows))
        elif kind == "axis":  # few distinct values, repeated as in a meshgrid column
            pool = draw(st.lists(_FLOATS, min_size=1, max_size=3))
            picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_rows,
                                  max_size=n_rows))
            column = [pool[i] for i in picks]
        elif kind == "int":
            column = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n_rows,
                                   max_size=n_rows))
        else:
            column = draw(st.lists(st.text(max_size=4), min_size=n_rows, max_size=n_rows))
        values.append(column)
        columns.append(column if kind == "str" else np.array(column))
    return header, columns, list(zip(*values)) if header else []


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_tables())
@example((("v", "m", "name"), [np.array([-0.0, math.nan]), np.array([0, 1]), ["x", "y"]],
          [(-0.0, 0, "x"), (math.nan, 1, "y")]))
@example((("value", "r", "theta"), [np.zeros(0), np.zeros(0), np.zeros(0)], []))
def test_column_renderers_match_the_row_renderers(table):
    header, columns, rows = table
    assert cli.render_csv(header, columns) == oracles.render_csv_rows(header, rows)
    assert cli.render_json_table(header, columns) == oracles.render_json_rows(header, rows)


def _spy(monkeypatch, seen, name):
    """Record every (arguments, result) of the cli's reference to name."""
    fn = getattr(cli, name)

    def recorded(*args):
        result = fn(*args)
        seen[name].append((args, result))
        return result
    monkeypatch.setattr(cli, name, recorded)


@pytest.mark.parametrize("name", ["amplifier_experimental", "addition_counter"])
def test_exports_equal_the_row_tables_of_the_same_arrays(tmp_path, monkeypatch, name):
    # each file equals what the former row renderers write for the rows
    # built, as the commands once built them, from the arrays the command
    # computed
    seen = collections.defaultdict(list)
    for fn in ("tensor_diagonal", "radial_form", "apply_tensor", "normalize",
               "kernel_from_tensor", "apply_kernel", "wigner_of"):
        _spy(monkeypatch, seen, fn)
    payload = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    payload["input_state"] = {"kind": "coherent", "alpha_re": 0.6, "alpha_im": -0.3}
    cfg = write_config(tmp_path, "c.json", payload)
    thetas = (0.0, -0.7)
    for fmt, render in (("csv", oracles.render_csv_rows), ("json", oracles.render_json_rows)):
        out = tmp_path / fmt
        seen.clear()
        assert cli.main(["tensor", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
        (_, diagonal), = seen["tensor_diagonal"]
        rows = [(m, k, float(v))
                for m, column in enumerate(diagonal.real.T) for k, v in enumerate(column)]
        assert (out / f"tensor_diagonal.{fmt}").read_text(encoding="utf-8") == render(
            ("m", "k", "value"), rows)

        assert cli.main(["kernel", "--config", cfg, "--out", str(out), "--format", fmt,
                         "--theta", "0,-0.7", "--grid", "0,4.7,61"]) == 0
        ((_, r_axis, _, _), rk), *profiles = seen["radial_form"]
        assert r_axis.size == 61
        for i, (theta, tag) in enumerate(zip(thetas, ("0p0", "m0p7"))):
            rows = [(float(rp), float(r), float(theta), float(rk.values[a, b, i]))
                    for a, rp in enumerate(r_axis) for b, r in enumerate(r_axis)]
            assert (out / f"kernel_theta_{tag}.{fmt}").read_text(encoding="utf-8") == render(
                ("r_prime", "r", "theta", "value"), rows)
        assert len(profiles) == len(cli._PROFILE_SUMS)
        for total, (_, prof) in zip(cli._PROFILE_SUMS, profiles):
            u = np.linspace(-cli._PROFILE_HALF_RANGE, cli._PROFILE_HALF_RANGE,
                            cli._PROFILE_POINTS)
            u = u[np.abs(u) <= total]
            vals = np.diagonal(prof.values[:, :, 0])
            rows = [(float(ui), float(total), float(v)) for ui, v in zip(u, vals)]
            assert (out / f"profile_sum{int(total)}.{fmt}").read_text(
                encoding="utf-8") == render(("r_prime_minus_r", "r_sum", "value"), rows)

    out = tmp_path / "apply"
    seen.clear()
    assert cli.main(["apply", "--config", cfg, "--out", str(out)]) == 0
    (_, raw), = seen["apply_tensor"]
    (_, rho_out), = seen["normalize"]
    ((_, grid, _), _), = seen["kernel_from_tensor"]
    (_, w_kernel), = seen["apply_kernel"]
    (_, _), (_, w_tensor) = seen["wigner_of"]
    prob = raw.trace
    state = {
        "model": payload["model"], "n_max": payload["n_max"], "path": "both",
        "success_probability": prob,
        "rho_re": [[float(v) for v in row] for row in np.real(rho_out.matrix)],
        "rho_im": [[float(v) for v in row] for row in np.imag(rho_out.matrix)],
        "cross_check_max_diff": float(np.abs(w_kernel.values - w_tensor.values).max()),
    }
    assert (out / "output_state.json").read_text(encoding="utf-8") == json.dumps(
        state, indent=2, sort_keys=True) + "\n"
    w_out = w_kernel.values / prob
    rows = [(float(x), float(p), float(w_out[i, j]))
            for i, x in enumerate(grid.xs) for j, p in enumerate(grid.ps)]
    assert (out / "output_wigner.csv").read_text(encoding="utf-8") == oracles.render_csv_rows(
        ("x", "p", "value"), rows)


def test_apply_identity_coherent(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": "identity", "n_max": 8,
        "input_state": {"kind": "coherent", "alpha_re": 0.3},
    })
    out = tmp_path / "o"
    assert cli.main(["apply", "--config", cfg, "--out", str(out)]) == 0
    state = json.loads((out / "output_state.json").read_text())
    assert abs(state["success_probability"] - 1.0) < 1e-12
    assert state["path"] == "both"
    assert state["cross_check_max_diff"] < 1e-6
    rho = np.array(state["rho_re"]) + 1j * np.array(state["rho_im"])
    ref = coherent_state(0.3, FockDim(8)).matrix
    assert np.max(np.abs(rho - ref)) < 1e-10
    wigner_rows = read_rows(out / "output_wigner.csv")
    assert len(wigner_rows) == 81 * 81


@pytest.mark.parametrize("model, state", [
    ({"model": "ideal_addition", "n_max": 8}, {"kind": "fock", "n": 2}),
    ({"model": "ideal_amplifier", "g": 2.0}, {"kind": "coherent", "alpha_re": 0.5}),
])
def test_apply_refuses_trace_increasing_maps(tmp_path, model, state):
    cfg = write_config(tmp_path, "c.json", {**model, "input_state": state})
    out = tmp_path / "o"
    assert cli.main(["apply", "--config", cfg, "--out", str(out)]) == cli.EXIT_CP
    assert not out.exists()
    # the exporters still serve the ideal reference maps
    assert cli.main(["tensor", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    identity = write_config(tmp_path, "i.json", {"model": "identity", "n_max": 8,
                                                 "input_state": {"kind": "fock", "n": 2}})
    assert cli.main(["apply", "--config", identity, "--out", str(tmp_path / "i"),
                     "--grid=-6,6,49"]) == cli.EXIT_OK
    p = json.loads((tmp_path / "i" / "output_state.json").read_text())["success_probability"]
    assert abs(p - 1.0) < 1e-12


def test_apply_refuses_an_oversized_grid_with_exit_config(tmp_path):
    # one order of its basis stream would hold 16 * 20001^2 values, 51 GB
    tracemalloc.start()
    try:
        for path in ("both", "tensor"):
            out = tmp_path / path
            cfg = write_config(tmp_path, f"{path}.json", {
                "model": "identity", "n_max": 15, "path": path,
                "input_state": {"kind": "coherent", "alpha_re": 0.3},
            })
            code = cli.main(["apply", "--config", cfg, "--out", str(out), "--grid=-5,5,20001"])
            assert code == cli.EXIT_CONFIG and not out.exists()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000  # the 1 MB identity tensor and small change


def test_every_default_apply_grid_fits_the_basis_table_cap():
    # the widest default box is the one at the largest n_max; apply streams
    # the basis on it, one order of D x N values at a time
    dim = FockDim(63)
    grid = cli._default_apply_grid(dim)
    assert (grid.n_x, grid.n_p) == (136, 136)
    assert dim.size * grid.n_x * grid.n_p <= wigner._MAX_GRID_VALUES
    wigner._require_streamable(dim, grid)


def test_default_apply_grid_holds_widest_fock_state():
    grid = cli._default_apply_grid(FockDim(15))
    assert grid == QuadratureGrid(-8.0, 8.0, -8.0, 8.0, 81, 81)
    assert cli._default_apply_grid(FockDim(1)).x_max == 5.0
    for n_max in (5, 24, 40):
        grid = cli._default_apply_grid(FockDim(n_max))
        assert grid.n_x == max(81, round(2 * grid.x_max / 0.2) + 1)
        # the box holds W_{n,n} to 1e-9, and the next smaller box does not
        for half, held in ((grid.x_max, True), (grid.x_max - 0.5, False)):
            n = max(81, round(2 * half / 0.2) + 1)
            box = QuadratureGrid(-half, half, -half, half, n, n)
            w = wigner_basis(n_max, n_max, box.xs[:, None], box.ps[None, :]).real
            assert (abs(grid_integral(w, box) - 1.0) <= 1e-9) == held, n_max


@pytest.mark.parametrize("state", [{"kind": "fock", "n": 15},
                                   {"kind": "thermal", "mean_n": 15.0}])
def test_apply_default_grid_cross_checks_wide_inputs(tmp_path, state):
    # a +-5 box clips these inputs at n_max 15 and the cross-check refused them
    cfg = json.loads((CONFIG_DIR / "amplifier_experimental.json").read_text())
    cfg.update(input_state=state, path="both")
    out = tmp_path / "o"
    assert cli.main(["apply", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 0
    result = json.loads((out / "output_state.json").read_text())
    assert result["cross_check_max_diff"] <= 1e-12
    rows = read_rows(out / "output_wigner.csv")
    assert len(rows) == 81 * 81 and float(rows[0]["x"]) == -8.0


def test_apply_tensor_path_skips_cross_check(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": "identity", "n_max": 6, "path": "tensor",
        "input_state": {"kind": "fock", "n": 1},
    })
    out = tmp_path / "o"
    assert cli.main(["apply", "--config", cfg, "--out", str(out),
                     "--grid=-4,4,41"]) == 0
    state = json.loads((out / "output_state.json").read_text())
    assert "cross_check_max_diff" not in state
    assert state["path"] == "tensor"


def test_apply_state_validation(tmp_path):
    too_big = write_config(tmp_path, "a.json", {
        "model": "identity", "n_max": 10,
        "input_state": {"kind": "coherent", "alpha_re": 2.0},
    })
    assert cli.main(["apply", "--config", too_big,
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    high_fock = write_config(tmp_path, "b.json", {
        "model": "identity", "n_max": 10,
        "input_state": {"kind": "fock", "n": 11},
    })
    assert cli.main(["apply", "--config", high_fock,
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    no_state = write_config(tmp_path, "c.json", {"model": "identity"})
    assert cli.main(["apply", "--config", no_state,
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_outputs_byte_stable_across_runs(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": "amplifier", "g": 2.0, "mu": 0.11, "delta": 1.089,
        "detector": "apd", "n_max": 8,
    })
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["tensor", "--config", cfg, "--out", str(out)]) == 0
        assert cli.main(["kernel", "--config", cfg, "--out", str(out),
                         "--grid", "0,3,31"]) == 0
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        assert first == second, name
        assert b"-0.0," not in first and not first.endswith(b"-0.0\n"), name


def test_subprocess_matches_in_process(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"model": "ideal_amplifier",
                                            "g": 1.5, "n_max": 6})
    inproc = tmp_path / "inproc"
    assert cli.main(["tensor", "--config", cfg, "--out", str(inproc)]) == 0
    sub = tmp_path / "sub"
    run = subprocess.run(
        [sys.executable, "-m", "cvmaps.cli", "tensor", "--config", cfg,
         "--out", str(sub)],
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert ((sub / "tensor_diagonal.csv").read_bytes()
            == (inproc / "tensor_diagonal.csv").read_bytes())


def test_verify_fault_injection(tmp_path, monkeypatch):
    monkeypatch.setenv("CVMAPS_FAULT", "attenuation_kernel_sign")
    code = cli.main(["verify", "--out", str(tmp_path)])
    assert code == cli.EXIT_CHECK
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert summary["fault"] == "attenuation_kernel_sign"
    assert not summary["all_passed"]
    by_name = {c["name"]: c for c in summary["checks"]}
    assert not by_name["cross_representation_attenuation"]["passed"]
    # the fault is scoped: everything else still passes
    others = [c["passed"] for n, c in by_name.items()
              if n != "cross_representation_attenuation"]
    assert all(others)


def test_cp_gate_rejects_transpose_map(tmp_path, monkeypatch):
    # the transpose map has Choi defect -1, so no CP gate may pass it
    dim = FockDim(3)
    d = dim.size
    arr = np.zeros((d, d, d, d), dtype=complex)
    for l in range(d):
        for k in range(d):
            arr[l, k, k, l] = 1.0
    transpose = oracles.tensor_of_elements(dim, arr)
    with pytest.raises(ArithmeticError, match="not completely positive"):
        require_cp(transpose)
    monkeypatch.setattr(cli, "build_model", lambda cfg: transpose)
    cfg = write_config(tmp_path, "c.json", {"model": "identity", "n_max": 3})
    code = cli.main(["tensor", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CP
    assert not (tmp_path / "o").exists()


def test_verify_refuses_an_unknown_fault(tmp_path, monkeypatch, capsys):
    # a misspelled fault must not pass the battery silently
    def refuse(fault):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_CHECKS", [refuse])
    monkeypatch.setenv("CVMAPS_FAULT", "typo")
    out = tmp_path / "o"
    assert cli.main(["verify", "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "'typo'" in err and all(name in err for name in verify.FAULTS)


def test_verify_summary_times_each_check(monkeypatch):
    from cvmaps import verify

    monkeypatch.setattr(verify, "_CHECKS", [verify.check_vacuum_peak,
                                            verify.check_cli_determinism])
    summary = verify.run_checks()
    assert [c["name"] for c in summary["checks"]] == ["wigner_vacuum_peak",
                                                      "cli_determinism"]
    for check in summary["checks"]:
        assert check["passed"]
        assert 0.0 <= check["seconds"] <= summary["runtime_seconds"] + 1e-3


def test_only_physicality_errors_exit_cp(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "c.json", {"model": "identity", "n_max": 3})
    argv = ["tensor", "--config", cfg, "--out", str(tmp_path / "o")]
    dim = FockDim(3)
    arr = np.zeros((dim.size,) * 4, dtype=complex)
    arr[0, 0, 0, 0] = 2.0  # CP but trace-increasing
    trace_increasing = oracles.tensor_of_elements(dim, arr)
    monkeypatch.setattr(cli, "build_model",
                        lambda c: models._gate_physical(trace_increasing, "map"))
    assert cli.main(argv) == cli.EXIT_CP

    def divide(c):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "build_model", divide)
    with pytest.raises(ZeroDivisionError):
        cli.main(argv)
    assert not (tmp_path / "o").exists()


def test_non_finite_numbers_exit_config(tmp_path, capsys):
    # NaN or infinity, in an argument or in the config JSON, is refused
    # before any model is built or file written
    kernel_cfg = write_config(tmp_path, "k.json", {"model": "ideal_addition", "n_max": 3})
    runs = [["kernel", "--config", kernel_cfg, flag]
            for flag in ("--theta=nan", "--theta=0,inf", "--grid=0,inf,5",
                         "--grid=-inf,2,5")]
    coherent = '"input_state": {"kind": "coherent", "alpha_re": %s}'
    for i, text in enumerate((
            '{"model": "identity", "n_max": 3, %s}' % (coherent % "NaN"),
            '{"model": "identity", "n_max": 3, %s}' % (coherent % "-Infinity"),
            '{"model": "phase_rotation", "n_max": 3, "theta": NaN}',
            '{"model": "phase_rotation", "n_max": 3, "theta": 1e999}')):
        path = tmp_path / f"c{i}.json"
        path.write_text(text, encoding="utf-8")
        runs += [["apply", "--config", str(path)], ["kernel", "--config", str(path)]]
    for i, argv in enumerate(runs):
        out = tmp_path / f"o{i}"
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG, argv
        assert "not a finite number" in capsys.readouterr().err, argv
        assert not out.exists()


def test_gates_exit_cp_on_non_finite_maps(tmp_path, monkeypatch):
    dim = FockDim(2)
    cfg = write_config(tmp_path, "c.json", {
        "model": "identity", "n_max": 2, "input_state": {"kind": "fock", "n": 1}})
    for i, op in enumerate((np.full((3, 3), np.nan), np.diag([np.nan, 1.0, 1.0]))):
        t = tensors.tensor_from_kraus(tensors.KrausSet(dim, [op]))
        monkeypatch.setattr(cli, "build_model", lambda c: t)
        for command in ("tensor", "apply"):
            out = tmp_path / f"{command}{i}"
            assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CP
            assert not out.exists()


def _numbers(path):
    """Every number in an exported CSV or JSON table."""
    if path.suffix == ".csv":
        return [float(v) for row in read_rows(path) for v in row.values()]
    found, todo = [], [json.loads(path.read_text(encoding="utf-8"))]
    while todo:
        item = todo.pop()
        if isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, list):
            todo.extend(item)
        elif isinstance(item, float):
            found.append(item)
    return found


@pytest.mark.parametrize("command", ["tensor", "kernel", "apply"])
def test_an_overflowing_gain_exports_finite_tables(tmp_path, command):
    # g^2 overflows past 1.3e154; R = 1 / (1 + g^2) is then g^-2 to rounding
    cfg = write_config(tmp_path, "c.json", {
        "model": "amplifier", "g": 1e160, "n_max": 4,
        "input_state": {"kind": "coherent", "alpha_re": 0.5}})
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    tables = [path for path in out.iterdir() if path.suffix in (".csv", ".json")]
    assert tables
    for path in tables:
        values = _numbers(path)
        assert values and np.isfinite(values).all(), path.name


@pytest.mark.parametrize("payload", [
    {"model": "displacement", "alpha_re": 1e300},
    {"model": "displacement", "alpha_re": 1.7e308, "alpha_im": 1.7e308},
    {"model": "identity", "input_state": {"kind": "coherent", "alpha_re": 1e300}},
    {"model": "identity", "input_state": {"kind": "coherent", "alpha_re": 1.7e308,
                                          "alpha_im": 1.7e308}},
])
def test_overflowing_amplitudes_exit_config(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, "c.json", {
        "input_state": {"kind": "fock", "n": 0}, **payload})
    commands = ["apply"] if payload["model"] == "identity" else ["tensor", "kernel", "apply"]
    for command in commands:
        out = tmp_path / command
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "amplitude" in capsys.readouterr().err
        assert not out.exists()


def test_apply_transports_a_displaced_coherent_state_at_the_fock_cap(tmp_path):
    # the nilpotent product behind the displacement erred by 6.0e-6 here, and
    # the TNI gate refused the unitary (exit 3, TNI defect 6.296e-06)
    cfg = write_config(tmp_path, "c.json", {
        "model": "displacement", "alpha_re": 2, "n_max": 63,
        "input_state": {"kind": "coherent", "alpha_re": 1}})
    out = tmp_path / "o"
    assert cli.main(["apply", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "output_state.json").read_text())
    assert result["cross_check_max_diff"] <= 1e-9
    assert abs(result["success_probability"] - 1.0) <= 1e-9


def test_the_schema_n_max_cap_is_the_fock_cap():
    # one limit held twice: raise both together
    schema = json.loads(cli._SCHEMA_PATH.read_text(encoding="utf-8"))
    assert schema["properties"]["n_max"]["maximum"] == fock._MAX_SIZE - 1


def test_apply_applies_the_map_once(tmp_path, monkeypatch):
    calls = []
    original = tensors.apply_tensor

    def counted(t, rho):
        calls.append(t)
        return original(t, rho)

    monkeypatch.setattr(tensors, "apply_tensor", counted)
    monkeypatch.setattr(cli, "apply_tensor", counted)
    cfg = dict(json.loads((CONFIG_DIR / "addition_counter.json").read_text()),
               input_state={"kind": "thermal", "mean_n": 0.6}, path="both")
    out = tmp_path / "o"
    code = cli.main(["apply", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert len(calls) == 1
    state = json.loads((out / "output_state.json").read_text())
    assert state["success_probability"] == original(calls[0], cli.build_input_state(
        cfg, calls[0].dim)).trace


@pytest.mark.parametrize("config, build", [
    ("amplifier_experimental", verify._experimental_amplifier),
    ("amplifier_pure_resource", verify._amplifier_delta2),
    ("addition_experimental", verify._experimental_addition),
])
def test_verify_parameters_are_the_shipped_configs(config, build):
    # verify's experimental maps and the shipped configs state the paper's
    # parameters twice; they must build the same tensor
    shipped = cli.build_model(cli.load_config(str(CONFIG_DIR / f"{config}.json")))
    assert np.array_equal(oracles.entries(build()), oracles.entries(shipped))
