"""cvmaps benchmark: end-to-end runs, output checks and a traced per-layer run.

    python3 perfbench/run.py --workload cli_exports --seed 1 --seconds 30 --trace 0

Run from the root of a cvmaps checkout. ``--workload`` is one of
cli_exports, verify_battery, nmax_sweep, or ``all`` to run each in turn.
With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics and the tracing overhead. The program is driven only from
outside: CLI processes, or public cvmaps functions called by worker.py.

Human-readable results, the machine record and every failure with its reason
are printed first; the last line of standard output is the JSON result. The
full record (samples, SHA-256 of every export, the sweep's convergence table)
is written to .perfbench_work/<workload>/. Exit code 2 means there is no
cvmaps source tree to benchmark.
"""

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli_exports", "verify_battery", "nmax_sweep")
PY = sys.executable
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SETUP_SAMPLES = 5  # per slot: before each pass and after the last
CHILD_LIMIT_S = 170  # a child still running after this is killed
MAX_BLAS_THREADS = 2

# The only refusals the generated requests are known to meet: apply exits 1
# when its tensor/kernel cross-check fails or the success probability is zero.
# Every other non-zero exit counts as wrong output: the requests are
# schema-valid and inside the guards, and the CLI maps any ValueError
# (numpy shape errors too) to exit 2 and any ArithmeticError to exit 3.
APPLY_REFUSED_EXIT = 1
APPLY_REFUSALS = ("apply: tensor and kernel paths disagree",
                  "apply: success probability vanished")
CROSS_CHECK_TOL = 1e-6   # the CLI's own apply cross-check tolerance
VERIFY_CHECKS = 29
TNI_TOL = 1e-9
ADDITIVITY_TOL = 1e-14

# per-layer metric -> traced functions whose self time it sums
LAYER_TIMES = {
    "cli.load_config_s": ["cli.load_config"],
    "cli.render_s": ["cli.render_csv", "cli.render_json_table",
                     "cli.render_tensor_csv"],
    "wigner.basis_table_s": ["wigner.wigner_basis_table"],
    "wigner.wigner_of_s": ["wigner.wigner_of"],
    "wigner.weyl_symbol_s": ["wigner.weyl_symbol"],
    "kernels.kernel_from_tensor_s": ["kernels.kernel_from_tensor"],
    "kernels.apply_kernel_s": ["kernels.apply_kernel"],
    "kernels.compose_kernels_s": ["kernels.compose_kernels"],
    "kernels.sample_kernel_s": ["kernels.sample_kernel"],
    "kernels.marginal_s": ["kernels.input_marginal", "kernels.output_marginal"],
    "kernels.kernel_norm_s": ["kernels.kernel_norm"],
    "kernels.radial_form_s": ["kernels.radial_form"],
    "kernels.negativity_s": ["kernels.negativity"],
    "tensors.tensor_from_kraus_s": ["tensors.tensor_from_kraus"],
    "tensors.cp_defect_s": ["tensors.cp_defect"],
    "tensors.tni_defect_s": ["tensors.tni_defect"],
    "tensors.phase_invariance_defect_s": ["tensors.phase_invariance_defect"],
    "tensors.apply_tensor_s": ["tensors.apply_tensor"],
    "tensors.compose_serial_s": ["tensors.compose_serial"],
    "models.amplifier_branches_s": ["models.amplifier_branches"],
    "models.addition_branches_s": ["models.addition_branches"],
    "elements.beam_splitter_matrix_s": ["elements.beam_splitter_matrix"],
    "fock.state_s": ["fock.fock_vector", "fock.fock_state", "fock.coherent_vector",
                     "fock.coherent_state", "fock.thermal_state"],
    "fock.fidelity_s": ["fock.fidelity"],
    "bench.import_s": ["bench.import"],
}
# counts computed by tracer.Recorder from call arguments and results
LAYER_COUNTS = {
    "wigner.basis_table_misses": "count", "wigner.basis_table_hits": "count",
    "wigner.basis_table_bytes": "B", "kernels.grid_samples": "count",
    "kernels.radial_points": "count", "tensors.cp_defect_calls": "count",
    "tensors.choi_side_cubed": "count", "tensors.dense_bytes": "B",
}


class Failures:
    """Failed operations with their reasons.

    ``wrong`` marks a failure that makes the run incorrect: an export that is
    missing, does not parse or changes bytes between identical requests, a
    value that breaks an invariant, a crash, any other non-zero exit, a
    refused sweep rung, or a failed verify check. The others are the apply
    refusals in APPLY_REFUSALS.
    """

    def __init__(self):
        self.items = []

    def add(self, op, reason, wrong=False):
        self.items.append({"op": op, "reason": reason, "wrong": wrong})


def spawn(argv, env, log_base):
    """Run a child to completion; returns (exit code, wall s, peak RSS MB)."""
    start = time.perf_counter()
    with open(f"{log_base}.out", "wb") as out, open(f"{log_base}.err", "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def last_line(path):
    lines = Path(path).read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_parses(path):
    """Raise ValueError unless an exported file parses as its type."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text)
    elif path.suffix == ".csv":
        rows = list(csv.reader(text.splitlines()))
        if len(rows) < 2:
            raise ValueError("no data rows")
        for row in rows[1:]:
            if len(row) != len(rows[0]):
                raise ValueError(f"ragged row {row}")
            list(map(float, row))
    elif path.suffix == ".py":
        compile(text, str(path), "exec")
    else:
        raise ValueError(f"unexpected export {path.name}")


# --- workloads -------------------------------------------------------------

class Workload:
    """One workload: ``run_pass`` does one pass and returns its record."""

    def __init__(self, seed, env, workdir, failures):
        self.seed, self.env, self.workdir, self.failures = seed, env, workdir, failures

    def cli(self, argv, log_base, trace_path):
        if trace_path:
            cmd = [PY, str(BENCH / "worker.py"), "cli", "--trace", str(trace_path),
                   "--", *argv]
        else:
            cmd = [PY, "-m", "cvmaps.cli", *argv]
        return spawn(cmd, self.env, log_base)


class CliExports(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        self.requests = workloads.cli_requests(self.seed)
        self.first_digests = {}  # (request id, file) -> sha256 in the first pass
        cfg_dir = self.workdir / "configs"
        cfg_dir.mkdir(parents=True)
        for req in self.requests:
            req["config_path"] = f"configs/{req['config']}.json"
            if req["kind"] == "apply":
                cfg = json.loads((ROOT / req["config_path"]).read_text())
                cfg.update(path=req["path"], input_state=req["input_state"])
                path = cfg_dir / f"{req['id']}.json"
                path.write_text(json.dumps(cfg, indent=2) + "\n")
                req["config_path"] = str(path.relative_to(ROOT))

    def argv(self, req, out):
        argv = [req["kind"], "--config", req["config_path"], "--out", str(out)]
        if req["kind"] != "apply":
            argv += ["--format", req["format"]]
        if req["kind"] == "kernel":
            lo, hi, n = req["grid"]
            argv += ["--theta", ",".join(repr(t) for t in req["theta"]),
                     "--grid", f"{lo!r},{hi!r},{n}"]
        return argv

    @staticmethod
    def expected(req):
        ext = req["format"]
        if req["kind"] == "tensor":
            names = {f"tensor_diagonal.{ext}"}
        elif req["kind"] == "kernel":
            names = {f"profile_sum2.{ext}", f"profile_sum20.{ext}"}
        else:
            return {"output_state.json", "output_wigner.csv"}
        if ext == "csv":
            names.add(f"plot_{req['kind']}.py")
        return names

    def check(self, req, op, out, code, log_base, digests):
        """Record why a request failed and the SHA-256 of what it exported."""
        if code != 0:
            err = Path(f"{log_base}.err").read_text(errors="replace")
            reason = last_line(f"{log_base}.err")
            refused = (req["kind"] == "apply" and code == APPLY_REFUSED_EXIT
                       and "Traceback" not in err and reason.startswith(APPLY_REFUSALS))
            self.failures.add(op, f"exit {code}: {reason}", wrong=not refused)
            return
        files = sorted(out.iterdir()) if out.is_dir() else []
        names = {p.name for p in files}
        missing = self.expected(req) - names
        n_slices = sum(n.startswith("kernel_theta_") for n in names)
        if req["kind"] == "kernel" and n_slices != len(set(req["theta"])):
            missing.add(f"{len(set(req['theta']))} kernel_theta_* slices")
        if missing:
            self.failures.add(op, f"exit 0 without {sorted(missing)}", wrong=True)
        for path in files:
            try:
                check_parses(path)
            except (ValueError, SyntaxError, UnicodeDecodeError) as exc:
                self.failures.add(op, f"{path.name} does not parse: {exc}", wrong=True)
            digest = digests[f"{req['id']}/{path.name}"] = sha256(path)
            first = self.first_digests.setdefault((req["id"], path.name), digest)
            if digest != first:
                self.failures.add(op, f"{path.name} bytes differ from the first "
                                      "pass of the same request", wrong=True)
        if req["kind"] == "apply" and "output_state.json" in names:
            state = json.loads((out / "output_state.json").read_text())
            cross = state.get("cross_check_max_diff")
            prob = state.get("success_probability")
            if cross is None or not cross <= CROSS_CHECK_TOL:
                self.failures.add(op, f"cross-check {cross} above {CROSS_CHECK_TOL}",
                                  wrong=True)
            if prob is None or not 0.0 < prob <= 1.0:
                self.failures.add(op, f"success probability {prob} not in (0, 1]",
                                  wrong=True)

    def run_pass(self, index, trace_dir=None):
        pass_dir = self.workdir / f"pass{index}"
        ops, traces, rss, digests = [], [], 0.0, {}
        for req in self.requests:
            out = pass_dir / req["id"] / "out"
            out.parent.mkdir(parents=True)
            log_base = out.parent / "log"
            trace = trace_dir / f"{req['id']}.json" if trace_dir else None
            code, wall, peak = self.cli(self.argv(req, out), log_base, trace)
            op = f"pass{index}/{req['id']}"
            self.check(req, op, out, code, log_base, digests)
            ops.append({"id": req["id"], "kind": req["kind"], "seconds": wall})
            rss = max(rss, peak)
            traces += [trace] if trace else []
        return {"wall_s": sum(o["seconds"] for o in ops), "peak_rss_mb": rss,
                "ops": ops, "traces": traces, "includes_start": True,
                "bytes_written": sum(p.stat().st_size
                                     for p in pass_dir.glob("*/out/*")),
                "sha256": digests}


class VerifyBattery(Workload):
    def run_pass(self, index, trace_dir=None):
        out = self.workdir / f"pass{index}"
        out.mkdir()
        trace = trace_dir / "verify.json" if trace_dir else None
        code, wall, peak = self.cli(["verify", "--out", str(out)], out / "log", trace)
        op = f"pass{index}/verify"
        before = len(self.failures.items)
        summary_path = out / "verify_summary.json"
        checks = []
        if summary_path.is_file():
            checks = json.loads(summary_path.read_text())["checks"]
        for c in checks:
            if not c["passed"]:
                self.failures.add(f"{op}/{c['name']}", f"check failed: measured "
                                  f"{c['measured']:.3e} > tolerance {c['tolerance']:.3e}",
                                  wrong=True)
        if len(checks) < VERIFY_CHECKS:
            self.failures.add(op, f"{len(checks)} of {VERIFY_CHECKS} checks reported "
                              f"(exit {code}: {last_line(out / 'log.err')})", wrong=True)
        elif code != 0 and len(self.failures.items) == before:
            self.failures.add(op, f"exit {code} with every check passed", wrong=True)
        return {"wall_s": wall, "peak_rss_mb": peak, "attempted": max(len(checks), 1),
                "ops": [{"id": "verify", "kind": "verify", "seconds": wall}],
                "traces": [trace] if trace else [], "includes_start": True,
                "sha256": {p.name: sha256(p) for p in sorted(out.glob("*.json"))}}


class NmaxSweep(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        self.plan = workloads.sweep_plan(self.seed)
        self.plan_path = self.workdir / "plan.json"
        self.plan_path.write_text(json.dumps(self.plan, indent=2) + "\n")

    def run_pass(self, index, trace_dir=None):
        result_path = self.workdir / f"pass{index}.json"
        cmd = [PY, str(BENCH / "worker.py"), "sweep", "--plan", str(self.plan_path),
               "--out", str(result_path)]
        trace = trace_dir / "sweep.json" if trace_dir else None
        if trace:
            cmd += ["--trace", str(trace)]
        log_base = self.workdir / f"pass{index}"
        code, _, peak = spawn(cmd, self.env, log_base)
        if code != 0:
            self.failures.add(f"pass{index}", f"sweep exit {code}: "
                              f"{last_line(f'{log_base}.err')}", wrong=True)
            return {"wall_s": None, "peak_rss_mb": peak, "ops": [],
                    "traces": [], "rungs": []}
        result = json.loads(result_path.read_text())
        ops = []
        for rung in result["rungs"]:
            rung_id = f"{rung['model']}/n_max={rung['n_max']}"
            op = f"pass{index}/{rung_id}"
            if "refused" in rung:
                defect = rung.get("cp_defect")
                self.failures.add(op, rung["refused"] + (
                    "" if defect is None else f" (CP defect {defect:.3e})"),
                    wrong=True)
            else:
                if not rung["tni_defect"] <= TNI_TOL:
                    self.failures.add(op, f"TNI defect {rung['tni_defect']:.3e} > "
                                      f"{TNI_TOL}", wrong=True)
                if not rung["branch_additivity"] <= ADDITIVITY_TOL:
                    self.failures.add(op, f"branch additivity "
                                      f"{rung['branch_additivity']:.3e} > "
                                      f"{ADDITIVITY_TOL}", wrong=True)
            ops.append({"id": rung_id, "kind": rung["model"], "seconds": rung["seconds"]})
        return {"wall_s": result["wall_s"], "peak_rss_mb": peak, "ops": ops,
                "traces": [trace] if trace else [], "includes_start": False,
                "rungs": result["rungs"]}


CLASSES = {"cli_exports": CliExports, "verify_battery": VerifyBattery,
           "nmax_sweep": NmaxSweep}


# --- measurement -------------------------------------------------------------

def child_env(threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CVMAPS_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def setup_samples(env, count, warm=False):
    """Seconds from process start to the end of ``import cvmaps``, fresh each time."""
    code = ("import time, cvmaps; "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC), cvmaps.__file__)")
    samples = []
    for i in range(count + warm):  # a warm-up import compiles bytecode, untimed
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([PY, "-c", code], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True, timeout=CHILD_LIMIT_S)
        stamp, where = done.stdout.split(maxsplit=1)
        if not Path(where.strip()).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"cvmaps imported from {where.strip()}, not this checkout")
        if i >= warm:
            samples.append(float(stamp) - start)
    return samples


def machine_record(seed, threads):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas": blas, "blas_threads": threads,
            "commit": commit, "src_sha256": src.hexdigest(), "seed": seed}


def metric(value, unit, samples, **note):
    return {"value": value, "unit": unit, "samples": samples, **note}


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return None
    return metric(ordered[n - 11], "s", n, percentile=round(100.0 * (n - 10) / n, 1),
                  beyond=10)


def run_passes(work, seconds, env):
    """Passes until the budget is spent; one more starts only if it would
    end no later than half a pass past the budget.

    This machine's speed drifts over seconds, so set-up is sampled before
    every pass and after the last rather than all at once.
    """
    passes, setup = [], setup_samples(env, SETUP_SAMPLES, warm=True)
    start = time.perf_counter()
    while True:
        passes.append(work.run_pass(len(passes)))
        setup += setup_samples(env, SETUP_SAMPLES)
        walls = [p["wall_s"] for p in passes if p["wall_s"] is not None]
        spent = time.perf_counter() - start
        if not walls or spent > seconds - statistics.median(walls) / 2:
            return passes, setup


def end_to_end(work, passes, setup):
    """End-to-end metrics of the untraced passes.

    wall_s is one pass built from each operation's median latency over the
    passes. Every pass repeats the same operations, and this machine's speed
    drifts in phases of seconds, so a per-operation median drops a slow
    phase that a median of whole passes would keep.
    """
    by_id = {}
    for p in passes:
        for o in p["ops"]:
            by_id.setdefault(o["id"], []).append(o["seconds"])
    if not by_id:
        raise SystemExit("no pass completed; nothing to measure")
    metrics = {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "wall_s": metric(sum(statistics.median(v) for v in by_id.values()), "s",
                         min(len(v) for v in by_id.values())),
        "peak_rss_mb": metric(max(p["peak_rss_mb"] for p in passes), "MB",
                              sum(len(p["ops"]) for p in passes)
                              if isinstance(work, CliExports) else len(passes)),
    }
    extra = {}
    if isinstance(work, CliExports):
        # every request that ran counts, failed ones too: a failed apply
        # still does the whole cross-check, and failures count separately
        ops = [o for p in passes for o in p["ops"]]
        for kind in ("tensor", "kernel", "apply"):
            lat = [o["seconds"] for o in ops if o["kind"] == kind]
            extra[f"{kind}_p50_s"] = metric(statistics.median(lat), "s", len(lat))
        request_tail = tail([o["seconds"] for o in ops])
        if request_tail:
            extra["request_tail_s"] = request_tail
    return metrics, extra


def per_layer(untraced, traced):
    spans_by_name, counts, top = {}, {}, 0.0
    n_spans = 0
    for path in traced["traces"]:
        data = json.loads(Path(path).read_text())
        spans = data["spans"]
        tracer.check_nesting(spans)
        n_spans += len(spans)
        for (name, parent, start, end), self_s in zip(spans, tracer.self_times(spans)):
            spans_by_name[name] = spans_by_name.get(name, 0.0) + self_s
            if parent == tracer.ROOT and (traced["includes_start"]
                                          or name != "bench.import"):
                top += end - start
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0) + value
    out = {}
    for name, members in LAYER_TIMES.items():
        out[name] = metric(sum(spans_by_name.get(m, 0.0) for m in members), "s", 1)
    out["elements.catalog_s"] = metric(
        sum(v for k, v in spans_by_name.items()
            if k.startswith("elements.") and k != "elements.beam_splitter_matrix"),
        "s", 1)
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = metric(
            sum(v for k, v in spans_by_name.items() if k.startswith(layer + ".")),
            "s", 1)
    for name, unit in LAYER_COUNTS.items():
        out[name] = metric(counts.get(name, 0), unit, 1, computed=True)
    out["cli.bytes_written"] = metric(traced.get("bytes_written", 0), "B", 1,
                                      computed=True)
    out["trace.untraced_wall_s"] = metric(untraced["wall_s"], "s", 1)
    out["trace.traced_wall_s"] = metric(traced["wall_s"], "s", 1)
    out["trace.overhead_s"] = metric(traced["wall_s"] - untraced["wall_s"], "s", 1)
    out["trace.coverage"] = metric(top / traced["wall_s"], "ratio", 1)
    out["trace.spans"] = metric(n_spans, "count", 1)
    return out, {name: round(v, 6) for name, v in
                 sorted(spans_by_name.items(), key=lambda kv: -kv[1])}


def validate(metrics):
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            raise SystemExit(f"metric name {name!r} breaks the naming rule")
        if m["unit"] == "s" and not m.get("samples"):
            raise SystemExit(f"timing {name} has no sample count")


def run_workload(name, seed, seconds, trace, threads, machine):
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env(threads)
    failures = Failures()
    work = CLASSES[name](seed, env, workdir, failures)
    record = {"workload": name, "machine": machine, "seconds": seconds,
              "trace": trace}
    if trace:
        trace_dir = workdir / "spans"
        trace_dir.mkdir()
        untraced = work.run_pass(0)
        traced = work.run_pass(1, trace_dir)
        if untraced["wall_s"] is None or traced["wall_s"] is None:
            raise SystemExit("a pass did not complete; see the failures above")
        passes = [untraced, traced]
        metrics, self_by_span = per_layer(untraced, traced)
        extra = {}
        record["self_seconds_by_span"] = self_by_span
    else:
        passes, setup = run_passes(work, seconds, env)
        metrics, extra = end_to_end(work, passes, setup)
        record["setup_samples"] = setup
    attempted = sum(p.get("attempted", len(p["ops"])) for p in passes)
    failed = len({f["op"] for f in failures.items})
    extra["failed_ratio"] = metric(failed / attempted, "ratio", attempted)
    validate({**metrics, **extra})
    record.update(metrics=metrics, extra=extra, attempted=attempted, failed=failed,
                  failures=failures.items, passes=passes)
    return record, any(f["wrong"] for f in failures.items)


def report(record):
    m = record["machine"]
    print(f"== {record['workload']}  seed {m['seed']}  trace {record['trace']}  "
          f"nproc {m['nproc']}  python {m['python']}  numpy {m['numpy']}  "
          f"scipy {m['scipy']}  blas {m['blas']} x{m['blas_threads']} threads  "
          f"commit {m['commit']}")
    for name, v in {**record["metrics"], **record["extra"]}.items():
        notes = ", ".join(f"{k} {v[k]}" for k in v if k not in ("value", "unit"))
        print(f"{name} = {v['value']:.6g} {v['unit']}  ({notes})")
    print(f"failed {record['failed']} of {record['attempted']} attempted")
    for f in record["failures"]:
        print(f"  FAIL {f['op']}: {f['reason']}" + ("  [wrong output]" if f["wrong"] else ""))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cvmaps" / "cli.py").is_file():
        print(f"error: no cvmaps source tree at {ROOT / 'src' / 'cvmaps'}",
              file=sys.stderr)
        return 2
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    machine = machine_record(args.seed, threads)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record, wrong = run_workload(name, args.seed, args.seconds, args.trace,
                                     threads, machine)
        path = WORK / name / f"result_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, default=str) + "\n")
        report(record)
        print(f"full record: {path.relative_to(ROOT)}")
        print(json.dumps({
            "correct": not wrong, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in record["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
