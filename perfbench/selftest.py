"""Self-tests of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Checks that metric names follow the naming rule and match BENCHMARK.json,
that every timing carries a sample count, that traced span trees nest with
non-negative self time, and that the workload generators are pure functions
of the seed. Needs ``src`` on the path only for the span test, which traces a
small real call.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer
import workloads


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def test_generators_are_pure():
    for seed in (0, 1, 2, 987654321):
        check(workloads.cli_requests(seed) == workloads.cli_requests(seed),
              f"cli_requests({seed}) differs between calls")
        check(workloads.sweep_plan(seed) == workloads.sweep_plan(seed),
              f"sweep_plan({seed}) differs between calls")
    check(workloads.cli_requests(1) != workloads.cli_requests(2), "seed ignored")
    check(workloads.sweep_plan(1) != workloads.sweep_plan(2), "seed ignored")
    # a fresh interpreter (another hash seed) must generate the same plans
    code = ("import json, workloads; print(json.dumps([workloads.cli_requests(5), "
            "workloads.sweep_plan(5)]))")
    fresh = subprocess.run([sys.executable, "-c", code], cwd=run.BENCH, check=True,
                           capture_output=True, text=True, env={"PYTHONHASHSEED": "7"})
    here = json.loads(json.dumps([workloads.cli_requests(5), workloads.sweep_plan(5)]))
    check(json.loads(fresh.stdout) == here, "plans depend on the process")


def _synthetic_passes(workdir):
    spans = [["cli.main", -1, 0.0, 1.0], ["kernels.kernel_from_tensor", 0, 0.1, 0.6],
             ["wigner.wigner_basis_table", 1, 0.2, 0.3]]
    trace = workdir / "spans.json"
    trace.write_text(json.dumps({"spans": spans,
                                 "counts": {"kernels.grid_samples": 10}}))
    one = {"wall_s": 1.0, "peak_rss_mb": 10.0, "includes_start": True,
           "ops": [{"id": kind, "kind": kind, "seconds": 0.3}
                   for kind in ("tensor", "kernel", "apply")], "traces": []}
    return one, {**one, "wall_s": 1.2, "traces": [trace]}


def test_names_and_sample_counts():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    untraced, traced = _synthetic_passes(workdir)
    work = run.CliExports.__new__(run.CliExports)
    e2e, extra = run.end_to_end(work, [untraced], [0.5, 0.6])
    layer, _ = run.per_layer(untraced, traced)
    for produced, key in ((e2e, "end_to_end"), (layer, "per_layer")):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        check(listed == {k: v["unit"] for k, v in produced.items()},
              f"{key} in BENCHMARK.json differs from what run.py reports")
        for name, m in {**produced, **extra}.items():
            check(run.NAME_RE.match(name), f"bad metric name {name!r}")
            check(m["unit"] != "s" or m.get("samples", 0) >= 1,
                  f"timing {name} has no sample count")
    check(layer["kernels.kernel_from_tensor_s"]["value"] == 0.4, "self time wrong")


def test_only_known_refusals_leave_output_correct():
    workdir = run.WORK / "selftest" / "failures"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    work = run.CliExports.__new__(run.CliExports)
    work.failures = run.Failures()
    cases = [("apply", 1, "apply: tensor and kernel paths disagree (max |diff| 2e-05)",
              False),
             ("apply", 1, "apply: success probability vanished; nothing to normalize",
              False),
             ("apply", 2, "error: operands could not be broadcast together", True),
             ("apply", 3, "error: float division by zero", True),
             ("kernel", 4, "error: model has no phase symmetry", True),
             ("tensor", 1, "apply: tensor and kernel paths disagree", True),
             ("apply", 1, "Traceback (most recent call last):", True),
             ("apply", -9, "", True)]
    for i, (kind, code, err, wrong) in enumerate(cases):
        log_base = workdir / f"c{i}"
        Path(f"{log_base}.err").write_text(err + "\n")
        work.check({"kind": kind}, f"c{i}", workdir / "none", code, log_base, {})
        got = work.failures.items[-1]["wrong"]
        check(got == wrong, f"exit {code} of {kind} ({err!r}) counted wrong={got}")

    plan = {"models": [], "ladder": [], "states": [], "radial_axes": {}}
    sweep = run.NmaxSweep.__new__(run.NmaxSweep)
    sweep.workdir, sweep.env, sweep.plan_path = workdir, {}, workdir / "plan.json"
    sweep.plan_path.write_text(json.dumps(plan))
    refused = {"model": "amplifier", "n_max": 48, "seconds": 1.0, "cp_defect": -1e-6,
               "refused": "ArithmeticError: amplifier model failed the "
                          "complete-positivity gate"}

    def fake_spawn(code):
        def spawn(cmd, env, log_base):
            Path(cmd[cmd.index("--out") + 1]).write_text(
                json.dumps({"wall_s": 1.0, "rungs": [refused]}))
            Path(f"{log_base}.err").write_text("killed\n")
            return code, 1.0, 10.0
        return spawn

    saved = run.spawn
    try:
        for code in (0, 1):
            sweep.failures = run.Failures()
            run.spawn = fake_spawn(code)
            sweep.run_pass(code)
            items = sweep.failures.items
            check(items and all(f["wrong"] for f in items),
                  f"sweep exit {code} with a refused rung left the output correct")
            check(code or "CP defect -1.000e-06" in items[0]["reason"],
                  "the CP defect of a refused rung is not in its reason")
    finally:
        run.spawn = saved


def test_span_trees_nest():
    rec = tracer.Recorder()
    import cvmaps

    tracer.install(rec)
    dim = cvmaps.FockDim(6)
    t = cvmaps.addition_model(cvmaps.AdditionConfig(dim=dim))
    cvmaps.kernels.radial_form(t)
    cvmaps.verify.check_coherent_transport(None)
    check(len(rec.spans) > 5 and not rec.stack, "tracer recorded nothing")
    check({"models.addition_model", "tensors.cp_defect", "kernels.radial_form",
           "verify.check_coherent_transport"} <= {s[0] for s in rec.spans},
          "a public layer function escaped the tracer")
    tracer.check_nesting(rec.spans)
    check(min(tracer.self_times(rec.spans)) >= -1e-9, "negative self time")
    for broken in ([["a", -1, 0.0, 1.0], ["b", 0, 0.5, 1.5]],
                   [["a", -1, 0.0, None]], [["a", 1, 0.0, 1.0]]):
        try:
            tracer.check_nesting(broken)
        except ValueError:
            continue
        check(False, f"check_nesting accepted {broken}")


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    for test in (test_generators_are_pure, test_names_and_sample_counts,
                 test_only_known_refusals_leave_output_correct, test_span_trees_nest):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
