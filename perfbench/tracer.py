"""In-memory span tracer for the cvmaps layers, installed from outside.

``install`` wraps every public function of every layer module and patches the
wrapper into each ``cvmaps`` module namespace (and module-level registry list)
that holds the original, so calls across modules are caught too: ``verify``
imports ``kernel_from_tensor`` by name, ``models`` imports
``beam_splitter_matrix`` by name, and so on. Nothing in ``src/`` changes.

A span is ``[name, parent_index, start, end]`` on ``time.perf_counter``;
spans stay in memory until ``Recorder.dump`` writes them. Counts that the
per-layer metrics need are computed from the call arguments or results at the
same boundary; they are marked ``computed`` wherever they are reported.
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "fock", "wigner", "tensors", "kernels", "elements", "models",
          "verify")
ROOT = -1  # parent index of a top-level span


def _tensor_bytes(args):
    return sum(a.elements.nbytes for a in args
               if hasattr(a, "elements") and hasattr(a, "dim"))


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)

    def begin(self, name):
        self.spans.append([name, self.stack[-1] if self.stack else ROOT,
                           time.perf_counter(), None])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][3] = time.perf_counter()

    def wrap(self, name, fn):
        count = self._counter(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = count(args, kwargs) if count else fn(*args, **kwargs)
            finally:
                self.end()
            return result
        return traced

    def _counter(self, name, fn):
        """A call that also updates the counts of this boundary, or None."""
        c = self.counts
        if name == "wigner.wigner_basis_table":
            def call(args, kwargs):
                misses = fn.cache_info().misses
                table = fn(*args, **kwargs)
                if fn.cache_info().misses > misses:
                    c["wigner.basis_table_misses"] += 1
                    c["wigner.basis_table_bytes"] += table.nbytes
                else:
                    c["wigner.basis_table_hits"] += 1
                return table
            return call
        if name in ("kernels.kernel_from_tensor", "kernels.radial_form"):
            key = ("kernels.grid_samples" if name.endswith("tensor")
                   else "kernels.radial_points")

            def call(args, kwargs):
                out = fn(*args, **kwargs)
                c[key] += out.values.size
                return out
            return call
        if name.startswith("tensors."):
            def call(args, kwargs):
                c["tensors.dense_bytes"] += _tensor_bytes(args)
                if name == "tensors.cp_defect":
                    t = args[0]
                    side = t.dim.size ** (t.input_modes + t.output_modes)
                    c["tensors.cp_defect_calls"] += 1
                    c["tensors.choi_side_cubed"] += side ** 3
                return fn(*args, **kwargs)
            return call
        return None

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       **extra}, fh)


def install(recorder):
    """Wrap each public layer function wherever cvmaps holds a reference."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"cvmaps.{layer}")
        for name, obj in vars(mod).items():
            if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            wrappers[id(obj)] = (obj, recorder.wrap(f"{layer}.{name}", obj))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "cvmaps" and not mod_name.startswith("cvmaps."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit and hit[0] is obj:
                setattr(mod, name, hit[1])
            elif isinstance(obj, list):  # registries such as verify's checks
                for i, item in enumerate(obj):
                    hit = wrappers.get(id(item))
                    if hit and hit[0] is item:
                        obj[i] = hit[1]


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    Children run strictly inside their parent on one thread, so their
    durations never overlap and simply subtract.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent != ROOT:
            child[parent] += end - start
    return [(end - start) - child[i]
            for i, (name, parent, start, end) in enumerate(spans)]


def check_nesting(spans, tol=1e-9):
    """Raise ValueError unless every span closes inside its parent."""
    for i, (name, parent, start, end) in enumerate(spans):
        if end is None or end < start:
            raise ValueError(f"span {i} ({name}) never closed or ends early")
        if parent != ROOT:
            if not 0 <= parent < i:
                raise ValueError(f"span {i} ({name}) has parent {parent}")
            _, _, p_start, p_end = spans[parent]
            if start < p_start or end > p_end:
                raise ValueError(f"span {i} ({name}) leaves its parent")
    for i, s in enumerate(self_times(spans)):
        if s < -tol:
            raise ValueError(f"span {i} has negative self time {s}")
