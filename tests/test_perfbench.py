"""The benchmark's own self-test, run as part of the suite.

The benchmark tracer wraps the public layer functions by name, so renaming
or removing one that it expects fails here rather than in a benchmark run.
The sweep worker's rungs and verify's Kraus checks are the benchmark's
tensor-heavy paths; each must peak below one D^4 array of entries, so it
builds none, by whatever route.
"""

import importlib
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

from cvmaps import verify

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name):
    """A module of perfbench/, imported when a test runs: one imported at
    collection adds its constants to what hypothesis draws from in every
    property of the suite."""
    if str(ROOT / "perfbench") not in sys.path:  # worker imports tracer by name
        sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module(name)


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _traced(run):
    """run()'s result, and tracemalloc's peak in bytes while it ran."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _dense_bytes(n_max):
    """The size of one dense (l, k, n, m) array of entries, 16 D^4 bytes."""
    return 16 * (n_max + 1) ** 4


def test_sweep_rung_builds_no_dense_tensor():
    plan = _bench_module("workloads").sweep_plan(3)
    rung = _bench_module("worker")._rung
    for spec in plan["models"]:
        (out, _), peak = _traced(lambda: rung(spec, 32, plan, None))
        assert out["phase_invariance_defect"] == 0.0
        assert peak < _dense_bytes(32), spec["model"]


def test_verify_kraus_checks_build_no_dense_tensor():
    # each check against the largest truncation it builds
    for check, n_max in ((verify.check_cross_representation_attenuation, 63),
                         (verify.check_cross_representation_amplification, 63),
                         (verify.check_coherent_transport, 20)):
        result, peak = _traced(lambda: check(None))
        assert result["passed"]
        assert peak < _dense_bytes(n_max), check.__name__


def test_tracer_still_counts_band_tensors():
    # in a child process, so that the wrappers installed by the tracer do
    # not outlive the test
    script = textwrap.dedent("""
        import numpy as np
        import tracer
        from cvmaps import fock, kernels, models, tensors, wigner

        rec = tracer.Recorder()
        tracer.install(rec)
        t = models.addition_model(models.AdditionConfig(dim=fock.FockDim(8)))
        assert isinstance(t, tensors._BandTensor)
        tensors.cp_defect(t)
        tensors.apply_tensor(t, fock.fock_state(1, t.dim))
        axis = np.linspace(0.0, 2.0, 5)
        kernels.radial_form(t, axis, axis, np.zeros(2))
        # the basis is streamed by order: no basis-table build to count
        grid = wigner.QuadratureGrid(-1.0, 1.0, -1.0, 1.0, 9, 9)
        fk = kernels.kernel_from_tensor(t, grid)
        wigner.wigner_of(fock.fock_state(1, t.dim), grid)
        assert not [key for key in rec.counts if key.startswith("wigner.basis_table")]
        tracer.check_nesting(rec.spans)
        names = {span[0] for span in rec.spans}
        assert {"tensors.cp_defect", "tensors.apply_tensor", "kernels.radial_form"} <= names
        assert rec.counts["tensors.dense_bytes"] == 0  # no call builds a D^4 array
        assert rec.counts["tensors.cp_defect_calls"] > 0
    """)
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'perfbench'}", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
