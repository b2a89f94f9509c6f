"""Seeded workload generators for the cvmaps benchmark.

Every generator is a pure function of its seed: the same seed gives the same
plan, and nothing here touches the file system, the clock or cvmaps itself.
cvmaps only ever receives the generated configs and arguments.

Why these workloads:

- cli_exports: users drive cvmaps through the CLI, one process per command,
  so every request pays interpreter start-up, ``import cvmaps`` and a cold
  ``wigner_basis_table`` cache. ``tensor`` and ``kernel`` requests are
  dominated by import; ``apply`` is dominated by the dense 81^4
  ``kernel_from_tensor`` behind its tensor/kernel cross-check. A change to
  import time and a change to the dense grid kernel each move one request
  kind and leave the other alone.
- verify_battery: the 29-check ``cvmaps verify`` run reaches the kernels
  layer through composition, marginals, ``kernel_norm`` and
  ``sample_kernel``, and builds tensors from Kraus sets at D = 41 and 64.
  It takes no inputs, so the seed changes nothing in it.
- nmax_sweep: an in-process truncation-convergence study. It is dominated by
  the tensors and models layers (the Choi ``eigh`` behind the CP gate grows
  as D^6) and uses no dense grid kernel, so band-sparse tensors would show
  here and nowhere else. Amplifier rungs must stay at n_max <= 60:
  ``amplifier_branches`` works on an interior space of n_max + 2 photons and
  ``FockDim`` caps that at 63, a limit the config schema does not express.
  The ladder has three rungs up to 48 so that two passes fit a run.
"""

import math
import random

SHIPPED_CONFIGS = (
    "addition_counter",
    "addition_experimental",
    "amplifier_experimental",
    "amplifier_pure_resource",
)
# n_max of every shipped config; the apply guards below are relative to it
SHIPPED_N_MAX = 15

# One pass of cli_exports sends each of these once. Kinds, formats, kernel
# slice counts and grid sizes are fixed so that the work per pass stays the
# same across seeds; the seed picks configs, angles, radii, inputs and order.
PASS_REQUESTS = (("tensor", "csv"), ("tensor", "json"), ("kernel", "csv"),
                 ("kernel", "json"), ("apply", "csv"))
KERNEL_THETAS = 2
KERNEL_GRID_POINTS = 101

NMAX_LADDER = (16, 32, 48)
RADIAL_AXES = {"rp": (0.0, 4.0, 21), "r": (0.0, 4.0, 21),
               "theta": (0.0, 2.0 * math.pi, 7)}


def _input_state(rng, n_max):
    """A schema-valid input state anywhere inside build_input_state's guards.

    Coherent amplitudes reach the guard |alpha|^2 <= n_max / 4 and Fock levels
    reach the guard n <= n_max. Thermal means have no guard: the schema only
    asks for mean_n >= 0. They are drawn up to n_max, the largest mean photon
    number the truncated space can hold, so a thermal input may be cut off far
    more than any coherent or Fock input is.
    Inputs near these limits are known to fail the 1e-6 cross-check; they stay
    in the range on purpose and count as failures.
    """
    kind = rng.choice(("coherent", "fock", "thermal"))
    if kind == "coherent":
        # the factor keeps cos^2 + sin^2 rounding from stepping past the guard
        radius = rng.uniform(0.0, math.sqrt(n_max / 4.0)) * (1.0 - 1e-12)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        return {"kind": "coherent", "alpha_re": radius * math.cos(phase),
                "alpha_im": radius * math.sin(phase)}
    if kind == "fock":
        return {"kind": "fock", "n": rng.randint(0, n_max)}
    return {"kind": "thermal", "mean_n": rng.uniform(0.0, float(n_max))}


def cli_requests(seed):
    """The requests of one cli_exports pass, in the order they are sent."""
    rng = random.Random(f"cli_exports:{seed}")
    requests = []
    for kind, fmt in PASS_REQUESTS:
        req = {"kind": kind, "config": rng.choice(SHIPPED_CONFIGS), "format": fmt}
        if kind == "kernel":
            req["theta"] = [rng.uniform(0.0, 2.0 * math.pi)
                            for _ in range(KERNEL_THETAS)]
            req["grid"] = [0.0, rng.uniform(3.0, 6.0), KERNEL_GRID_POINTS]
        if kind == "apply":
            req["path"] = "both"
            req["input_state"] = _input_state(rng, SHIPPED_N_MAX)
        requests.append(req)
    rng.shuffle(requests)
    for i, req in enumerate(requests):
        req["id"] = f"r{i:02d}_{req['kind']}"
    return requests


def sweep_plan(seed):
    """Models, ladder, probe states and axes of one nmax_sweep pass."""
    rng = random.Random(f"nmax_sweep:{seed}")
    amplifier = {
        "gain": rng.uniform(1.2, 3.0),
        "mu": rng.uniform(0.05, 1.0),
        "delta": rng.uniform(0.5, 2.0),
        "eta_m": rng.uniform(0.8, 1.0),
        "detector": rng.choice(("apd", "photon_counter")),
        "include_faulty": True,
    }
    addition = {
        "chi": rng.uniform(0.05, 0.3),
        "gamma": rng.uniform(0.0, 1.0),
        "mu": rng.uniform(0.05, 1.0),
        "detector": rng.choice(("apd", "photon_counter")),
        "include_faulty": True,
    }
    states = []
    for _ in range(3):
        radius, phase = rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0 * math.pi)
        states.append({"kind": "coherent", "alpha_re": radius * math.cos(phase),
                       "alpha_im": radius * math.sin(phase)})
    states += [{"kind": "fock", "n": rng.randint(0, 6)} for _ in range(2)]
    states.append({"kind": "thermal", "mean_n": rng.uniform(0.0, 1.0)})
    return {"models": [{"model": "amplifier", **amplifier},
                       {"model": "addition", **addition}],
            "ladder": list(NMAX_LADDER), "states": states, "radial_axes": RADIAL_AXES}
