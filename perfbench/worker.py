"""Child-process side of the benchmark.

    python3 perfbench/worker.py cli --trace SPANS.json -- CLI_ARGS...
        Run ``cvmaps.cli.main(CLI_ARGS)`` with every layer traced and write
        the spans to SPANS.json; exits with the CLI's exit code.
    python3 perfbench/worker.py sweep --plan PLAN.json --out RESULT.json
                                      [--trace SPANS.json]
        Run one pass of the n_max truncation-convergence study in this
        process and write per-rung results (and spans, when traced).

``src`` must be on PYTHONPATH; run.py sets it.
"""

import argparse
import json
import sys
import time

import tracer


def run_cli(trace_path, argv):
    rec = tracer.Recorder()
    rec.begin("bench.import")
    import cvmaps.cli
    rec.end()
    tracer.install(rec)
    code = None
    try:
        code = cvmaps.cli.main(argv)
    finally:
        rec.dump(trace_path, exit_code=code)
    return code


def _state(fock, spec, dim):
    if spec["kind"] == "coherent":
        return fock.coherent_state(complex(spec["alpha_re"], spec["alpha_im"]), dim)
    if spec["kind"] == "fock":
        return fock.fock_state(spec["n"], dim)
    return fock.thermal_state(spec["mean_n"], dim)


def _model_api(models, spec, dim):
    """(config, gated model builder, branch builder) of one sweep model."""
    params = {k: v for k, v in spec.items() if k != "model"}
    if spec["model"] == "amplifier":
        return (models.AmplifierConfig(dim=dim, **params), models.amplifier_model,
                models.amplifier_branches)
    return (models.AdditionConfig(dim=dim, **params), models.addition_model,
            models.addition_branches)


def _build(models, spec, dim):
    """The gated model and its two heralding branches at one truncation.

    amplifier_model and addition_model raise ArithmeticError unless the map
    passes the CP gate (Choi defect >= -1e-9) and the TNI gate, so a model
    that comes back has passed the CP check; a second Choi eigh would double
    the cost of the pass.
    """
    cfg, model, branches = _model_api(models, spec, dim)
    return model(cfg), branches(cfg)


def _ungated_cp_defect(spec, n_max):
    """Choi defect of the combined map, recorded when a gate refuses a rung."""
    from cvmaps import fock, models, tensors

    cfg, _, branches = _model_api(models, spec, fock.FockDim(n_max))
    correct, faulty = branches(cfg)
    total = tensors.combine_heralding(correct, faulty) if cfg.include_faulty else correct
    return tensors.cp_defect(total)


def _rung(spec, n_max, plan, previous):
    import numpy as np
    from cvmaps import fock, kernels, models, tensors

    dim = fock.FockDim(n_max)
    total, (correct, faulty) = _build(models, spec, dim)
    out = {"tni_defect": tensors.tni_defect(total),
           "phase_invariance_defect": tensors.phase_invariance_defect(total)}
    probs, additivity = [], 0.0
    for state in plan["states"]:
        rho = _state(fock, state, dim)
        p = tensors.success_probability(total, rho)
        split = (tensors.success_probability(correct, rho)
                 + tensors.success_probability(faulty, rho))
        additivity = max(additivity, abs(p - split))
        probs.append(p)
    out["branch_additivity"] = additivity
    out["success_probability"] = probs
    axes = {k: np.linspace(*v) for k, v in plan["radial_axes"].items()}
    radial = kernels.radial_form(total, axes["rp"], axes["r"], axes["theta"]).values
    if previous is not None:
        out["moved_probability"] = float(np.max(np.abs(np.subtract(probs, previous[0]))))
        out["moved_radial"] = float(np.max(np.abs(radial - previous[1])))
    return out, (probs, radial)


def run_sweep(plan):
    rungs = []
    start = time.perf_counter()
    for spec in plan["models"]:
        previous = None
        for n_max in plan["ladder"]:
            t0 = time.perf_counter()
            rung = {"model": spec["model"], "n_max": n_max}
            try:
                values, previous = _rung(spec, n_max, plan, previous)
                rung.update(values)
            except (ArithmeticError, ValueError) as exc:
                rung["refused"] = f"{type(exc).__name__}: {exc}"
                if isinstance(exc, ArithmeticError):
                    rung["cp_defect"] = _ungated_cp_defect(spec, n_max)
                previous = None
            rung["seconds"] = time.perf_counter() - t0
            rungs.append(rung)
    return {"wall_s": time.perf_counter() - start, "rungs": rungs}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--trace", required=True)
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("--plan", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--trace", default=None)
    args = parser.parse_args()

    if args.mode == "cli":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return run_cli(args.trace, argv)

    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    # the import stays outside the timed pass; setup_s measures it
    rec = tracer.Recorder() if args.trace else None
    if rec:
        rec.begin("bench.import")
    import cvmaps  # noqa: F401
    if rec:
        rec.end()
        tracer.install(rec)
    result = run_sweep(plan)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if rec:
        rec.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
