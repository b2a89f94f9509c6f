"""The benchmark's own self-test, run as part of the suite.

The benchmark tracer wraps the public layer functions by name, so renaming
or removing one that it expects fails here rather than in a benchmark run.
The sweep worker's rungs and verify's Kraus checks are the benchmark's
tensor-heavy paths; they must run on band tensors without building a D^4
array.
"""

import importlib
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cvmaps import tensors, verify

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


@pytest.fixture
def no_dense_tensors(monkeypatch):
    """Fail on any D^4 array: the elements of a tensor in either layout. No
    constructor in the package takes an array of entries, which the source
    layout scan enforces."""
    def refuse(self, *args):
        raise AssertionError("a D^4 array was built")

    for layout in (tensors.ProcessTensor, tensors._BandTensor):
        monkeypatch.setattr(layout, "elements", property(refuse))


def test_sweep_rung_builds_no_dense_tensor(no_dense_tensors):
    plan = _bench_module("workloads").sweep_plan(3)
    for spec in plan["models"]:
        out, _ = _bench_module("worker")._rung(spec, 32, plan, None)
        assert out["phase_invariance_defect"] == 0.0


def test_verify_kraus_checks_build_no_dense_tensor(no_dense_tensors):
    for check in (verify.check_cross_representation_attenuation,
                  verify.check_cross_representation_amplification,
                  verify.check_coherent_transport):
        assert check(None)["passed"]


def test_tracer_still_counts_band_tensors():
    # in a child process, so that the wrappers installed by the tracer do
    # not outlive the test
    script = textwrap.dedent("""
        import numpy as np
        import tracer
        from cvmaps import fock, kernels, models, tensors

        rec = tracer.Recorder()
        tracer.install(rec)
        t = models.addition_model(models.AdditionConfig(dim=fock.FockDim(8)))
        assert isinstance(t, tensors._BandTensor)
        tensors.cp_defect(t)
        tensors.apply_tensor(t, fock.fock_state(1, t.dim))
        axis = np.linspace(0.0, 2.0, 5)
        kernels.radial_form(t, axis, axis, np.zeros(2))
        tracer.check_nesting(rec.spans)
        names = {span[0] for span in rec.spans}
        assert {"tensors.cp_defect", "tensors.apply_tensor", "kernels.radial_form"} <= names
        assert rec.counts["tensors.dense_bytes"] > 0
        assert rec.counts["tensors.cp_defect_calls"] > 0
    """)
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'perfbench'}", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
