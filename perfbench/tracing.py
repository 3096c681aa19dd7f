"""Spans and counters at the layer boundaries of graphfree.

The library itself carries no instrumentation. :meth:`Tracer.install`
replaces each boundary function listed in :data:`BOUNDARIES` by a
wrapper, in every ``graphfree`` namespace that holds it (``tau`` and
``enumerate_paths`` are imported by name into several modules). Each
call records one span: function, parent span, start and end. Spans
stay in memory until :meth:`Tracer.save`; per-layer metrics are derived
from them by :meth:`Tracer.metrics`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Boundary functions per layer, in the order the per-layer metrics are listed.
BOUNDARIES = {
    "graphs": ("enumerate_paths", "pf_weighting"),
    "noncross": ("enumerate_nc", "enumerate_tl", "kreweras", "mobius_nc"),
    "gralg": ("tau", "tau_path", "tau_pairing", "bullet_mul"),
    "falg": ("phi", "psi", "sharp_mul", "inner", "truncated_left_mult",
             "operator_norm"),
    "epitl": ("act", "enumerate_hom", "compose"),
    "cdelta": ("gen_act", "tpq_act", "zv_truncation"),
    "cumulants": ("moment_phi", "kappa_mobius", "kappa_starry",
                  "multiplicative_extension", "omega_matrix_moments"),
    "factors": ("m_gamma_report", "star_m1_pipeline"),
    "towers": ("mult", "theta", "gr0_mul", "gr0_mul_tangle", "cond_exp"),
}


def _cells(mat) -> int:
    """rows x cols, from the shape; not a measurement of the work done."""
    rows, cols = mat.shape
    return rows * cols


# Work counters read off a call's arguments and result: (counter suffix, fn).
COUNTERS = {
    "graphs.enumerate_paths": ("paths", lambda args, result: len(result)),
    "gralg.tau_pairing": ("nonzero", lambda args, result: result != 0),
    "epitl.act": ("nonzero", lambda args, result: not result.is_zero()),
    "falg.truncated_left_mult": ("cells", lambda args, result: _cells(result[0])),
    "falg.operator_norm": ("cells", lambda args, result: _cells(args[0])),
}


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for module, fns in BOUNDARIES.items():
        for fn in fns:
            qual = f"{module}.{fn}"
            names += [f"{qual}.calls", f"{qual}.self_s"]
            if qual in COUNTERS:
                kind = COUNTERS[qual][0]
                names.append(f"{qual}.nonzero_ratio" if kind == "nonzero"
                             else f"{qual}.{kind}")
        names.append(f"{module}.errors")
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    A child lies inside its parent's interval (spans nest on one stack),
    so this is the part of the interval no child covers. Recursive calls
    are children like any other, so no time is counted twice.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(covered, parent[nested], dur[nested])
    return dur - covered


class Tracer:
    """Records spans of wrapped functions; one instance per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.modules: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self._undo: list[tuple] = []

    def wrap(self, qualname: str, f, counter=None):
        """Return ``f`` wrapped so each call records a span named ``qualname``."""
        fid = len(self.names)
        module = qualname.split(".", 1)[0]
        self.names.append(qualname)
        self.modules.append(module)
        self.errors.setdefault(module, 0)
        if counter is not None:
            count_key = f"{qualname}.{counter[0]}"
            count_fn = counter[1]
            self.counts[count_key] = 0
        fns, parents = self.fn, self.parent
        starts, ends, stack, clock = self.start, self.end, self.stack, self.clock
        modules, counts, errors = self.modules, self.counts, self.errors

        @functools.wraps(f)
        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            fns.append(fid)
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = f(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                # Counted once, where the exception leaves the layer.
                if parent < 0 or modules[fns[parent]] != module:
                    errors[module] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if counter is not None:
                counts[count_key] += count_fn(args, result)
            return result

        return traced

    def install(self):
        """Wrap every boundary function in every loaded namespace of graphfree."""
        import graphfree  # noqa: F401 - loads every module of the package
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "graphfree" or name.startswith("graphfree.")]
        for module, fns in BOUNDARIES.items():
            home = sys.modules[f"graphfree.{module}"]
            for fn in fns:
                qual = f"{module}.{fn}"
                orig = getattr(home, fn)
                traced = self.wrap(qual, orig, COUNTERS.get(qual))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, attr, traced)
                            self._undo.append((ns, attr, orig))

    def uninstall(self):
        for ns, attr, orig in reversed(self._undo):
            setattr(ns, attr, orig)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls, self time and work counters per function."""
        n = len(self.names)
        fn = np.asarray(self.fn, dtype=np.int64)
        own = self_times(self.start, self.end, self.parent)
        calls = np.bincount(fn, minlength=n)
        own_s = np.bincount(fn, weights=own, minlength=n)
        out: dict[str, float] = {}
        for fid, qual in enumerate(self.names):
            out[f"{qual}.calls"] = int(calls[fid])
            out[f"{qual}.self_s"] = float(own_s[fid])
            if qual in COUNTERS:
                kind = COUNTERS[qual][0]
                value = self.counts[f"{qual}.{kind}"]
                if kind == "nonzero":
                    made = int(calls[fid])
                    out[f"{qual}.nonzero_ratio"] = value / made if made else 0.0
                else:
                    out[f"{qual}.{kind}"] = int(value)
        for module, count in self.errors.items():
            out[f"{module}.errors"] = count
        return out

    def save(self, path):
        """Write the spans as arrays (fn index, parent span, start, end)."""
        np.savez(path, names=np.array(self.names),
                 fn=np.asarray(self.fn), parent=np.asarray(self.parent),
                 start=np.asarray(self.start), end=np.asarray(self.end))
