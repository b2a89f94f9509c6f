import os
from pathlib import Path

import numpy as np
import pytest

# pytest puts src/ on sys.path (pyproject.toml); the CLI subprocesses that
# the tests start need it on PYTHONPATH as well
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


def random_pure_state(rng, size: int) -> np.ndarray:
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)
