"""Per-layer spans and counts, recorded by wrapping qds from outside.

``qds`` binds names with ``from .x import f``, so a wrapper has to replace
the function in every ``qds`` module namespace that holds it, not only in
the defining module; lazy imports inside function bodies read the
defining module at call time and see the wrapper too.  Numerical kernels
are reached through attribute lookups (``np.linalg.eig``,
``scipy.linalg.expm``, ...), so patching the attribute reaches them.

Spans nest through a stack: each has a parent, and self time is its
duration minus the time covered by its children.  ``n2_calls`` counts the
calls whose operand has side d**2 for the op's model dimension d, the
size of a superoperator.
"""

import functools
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class Target:
    name: str           # metric prefix, "<layer>.<function>"
    module: str         # module defining the function
    attr: str
    n2: bool = False    # count calls on d**2-sized operands
    keyed: bool = False  # record (first argument, function) pairs


TARGETS = (
    Target("models.heisenberg_superoperator", "qds.models",
           "heisenberg_superoperator", keyed=True),
    Target("models.predual_superoperator", "qds.models",
           "predual_superoperator", keyed=True),
    Target("classical.compare_resolutions", "qds.classical", "compare_resolutions"),
    Target("resolution.resolve", "qds.resolution", "resolve"),
    Target("resolution.minimal_subharmonic", "qds.resolution", "minimal_subharmonic"),
    Target("resolution.classify_projection", "qds.resolution", "classify_projection"),
    Target("resolution.is_transient_complement", "qds.resolution",
           "is_transient_complement"),
    Target("linalg.invariant_closure", "qds._linalg", "invariant_closure"),
    Target("projections.is_subharmonic", "qds.projections", "is_subharmonic"),
    Target("spectral.spectral_split", "qds.spectral", "spectral_split"),
    Target("spectral.asymptotic_operator", "qds.spectral", "asymptotic_operator"),
    Target("spectral.evolve_heisenberg", "qds.spectral", "evolve_heisenberg"),
    Target("spectral.evolve_predual", "qds.spectral", "evolve_predual"),
    Target("ergodicity.invariant_states", "qds.ergodicity", "invariant_states"),
    Target("ergodicity.strong_ergodicity_check", "qds.ergodicity",
           "strong_ergodicity_check"),
    Target("ergodicity.ergodicity_reduction_equivalence", "qds.ergodicity",
           "ergodicity_reduction_equivalence"),
    Target("picard.picard_limit", "qds.picard", "picard_limit"),
    Target("picard.picard_iterate", "qds.picard", "picard_iterate"),
    Target("serialize.load_model", "qds.serialize", "load_model"),
    Target("serialize.report_to_json", "qds.serialize", "report_to_json"),
    Target("cli.main", "qds.cli", "main"),
    Target("kernel.spectral_norm", "qds._linalg", "spectral_norm", n2=True),
    Target("kernel.kron", "numpy", "kron"),
    Target("kernel.eig", "numpy.linalg", "eig", n2=True),
    Target("kernel.expm", "scipy.linalg", "expm", n2=True),
    Target("kernel.matrix_power", "numpy.linalg", "matrix_power"),
)

# Kernels live outside qds: patch the attribute on their own module only.
_KERNEL_MODULES = {"numpy": np, "numpy.linalg": np.linalg,
                   "scipy.linalg": scipy.linalg}


def _namespaces(target):
    if target.module in _KERNEL_MODULES:
        return [_KERNEL_MODULES[target.module]]
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qds" or name.startswith("qds."))]


class Tracer:
    """Installs wrappers, records spans of one op, and restores originals."""

    def __init__(self):
        self._patches = []
        self.spans = []     # [name, parent index, start, end, child_s, n2]
        self._stack = []
        self.keys = set()
        self.builds = 0
        self._keep = []     # keyed arguments stay alive so ids stay unique
        self.n2 = None
        self.op_id = None

    def begin_op(self, op_id, dim):
        self.op_id = op_id
        self.n2 = dim * dim

    def install(self):
        for target in TARGETS:
            original = getattr(importlib.import_module(target.module), target.attr)
            wrapper = self._wrap(target, original)
            for module in _namespaces(target):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))
        return self

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, target, fn):
        tracer = self
        name = target.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n2 = False
            if target.n2 and args:
                shape = getattr(args[0], "shape", ())
                n2 = len(shape) == 2 and shape[0] == tracer.n2
            if target.keyed and args:
                tracer.builds += 1
                tracer.keys.add((id(args[0]), name))
                tracer._keep.append(args[0])
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, parent, time.perf_counter(), None, 0.0, n2]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
                if parent >= 0:
                    tracer.spans[parent][4] += span[3] - span[2]

        return traced

    def summary(self):
        """Per-name calls, n2_calls and self seconds of the recorded spans."""
        out = {}
        for name, _, start, end, child_s, n2 in self.spans:
            row = out.setdefault(name, {"calls": 0, "n2_calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["n2_calls"] += int(n2)
            row["self_s"] += (end - start) - child_s
        return {"op_id": self.op_id, "layers": out,
                "superop_builds": self.builds,
                "superop_distinct": len(self.keys)}


def merge(summaries):
    """Sum op summaries into one table."""
    layers = {}
    builds = distinct = 0
    for s in summaries:
        builds += s["superop_builds"]
        distinct += s["superop_distinct"]
        for name, row in s["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "n2_calls": 0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
    return {"layers": layers, "superop_builds": builds,
            "superop_distinct": distinct}


def counts(summary):
    """The exact (name, calls, n2_calls) part of a summary, for comparison."""
    return {name: (row["calls"], row["n2_calls"])
            for name, row in summary["layers"].items()}


def _field(total, name, key):
    return total["layers"].get(name, {}).get(key, 0)


def _derived(total, n_ops, overhead):
    builds = total["superop_builds"]
    splits = _field(total, "spectral.spectral_split", "calls")
    eig_n2 = _field(total, "kernel.eig", "n2_calls")
    return {
        "models.superop_distinct_frac":
            total["superop_distinct"] / builds if builds else 1.0,
        "spectral.split_reuse_frac": 1.0 - eig_n2 / splits if splits else 1.0,
        "resolution.resolve.calls_per_op":
            _field(total, "resolution.resolve", "calls") / n_ops,
        "trace.overhead_frac": overhead,
    }


def layer_metrics(names, total, n_ops, overhead):
    """Values of the named per-layer metrics from a merged summary of
    ``n_ops`` ops; ``<layer>.<function>.<calls|n2_calls|self_s>`` read the
    table, the rest are the ratios in ``_derived``."""
    derived = _derived(total, n_ops, overhead)
    values = {}
    for metric in names:
        head, _, key = metric.rpartition(".")
        if metric in derived:
            values[metric] = derived[metric]
        elif key in ("calls", "n2_calls", "self_s") and any(
                t.name == head for t in TARGETS):
            values[metric] = _field(total, head, key)
        else:
            raise KeyError(f"no source for per-layer metric {metric!r}")
    return values
