"""Traced mode: spans around the library's public functions, from outside.

Tracer.install wraps each function listed in LAYERS and rebinds every
nevanlab module namespace that holds it, so calls between modules go
through the wrapper too; three methods are wrapped on their classes.
Tracer.uninstall puts every original back.  Spans (name, start, end, parent)
are kept for the current op only and folded into per-name totals when the
op ends, so memory stays bounded on ops that make tens of thousands of calls.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("expressions", "polynomials", "nevanlinna", "diffpoly",
           "inequalities", "normality", "cli")

# module -> {function or Class.method: span name}
LAYERS = {
    "expressions": {n: n for n in ("parse", "differentiate", "canonicalize", "divisors",
                                   "evaluate", "substitute_affine", "evaluate_on_grid")}
    | {"Canonical.log_abs": "log_abs"},
    "polynomials": {"poly_roots": "poly_roots"},
    "nevanlinna": {"FunctionData.__init__": "FunctionData",
                   "FunctionData.proximity": "proximity",
                   "counting_N": "counting_N", "spherical_derivative": "spherical_derivative",
                   "radial_report": "radial_report"},
    "diffpoly": {n: n for n in ("build_standard_monomial", "compose_monomial",
                                "diffpoly_expression")},
    "inequalities": {"check_fmt": "check", "check_smt": "check",
                     "check_log_derivative": "check", "check_hinchliffe": "check",
                     "check_hinchliffe_multi": "check",
                     "slack_verdict": "verdict", "fmt_boundedness_verdict": "verdict"},
    "normality": {n: n for n in ("marty_probe", "zalcman_rescale", "rescale_extras_check",
                                 "check_multiplicities", "chordal_distance")}
    | {"FamilySpec.instantiate": "instantiate"},
    "cli": {"main": "main"},
}

# Per-layer metrics: (name, unit).  Counts and times are per op.
CALLS = ("expressions.parse", "expressions.differentiate", "expressions.canonicalize",
         "expressions.divisors", "expressions.evaluate", "expressions.substitute_affine",
         "polynomials.poly_roots", "nevanlinna.FunctionData", "nevanlinna.proximity",
         "nevanlinna.counting_N", "nevanlinna.spherical_derivative",
         "diffpoly.compose_monomial", "normality.chordal_distance", "normality.instantiate")
SELF_MS = CALLS[:12] + (
    "expressions.log_abs", "nevanlinna.radial_report", "diffpoly.build_standard_monomial",
    "diffpoly.diffpoly_expression", "inequalities.check", "inequalities.verdict",
    "normality.marty_probe", "normality.zalcman_rescale", "normality.rescale_extras_check",
    "normality.check_multiplicities", "cli.main")
COUNTS = ("expressions.canonicalize.degree", "expressions.log_abs.points",
          "expressions.evaluate_on_grid.points", "polynomials.poly_roots.degree",
          "polynomials.poly_roots.failed", "polynomials.fp_warnings",
          "nevanlinna.proximity.points")
METRICS = ([(f"{n}.calls", "count") for n in CALLS]
           + [(f"{n}.self_ms", "ms") for n in SELF_MS]
           + [(n, "count") for n in COUNTS]
           + [(f"{m}.self_share", "ratio") for m in MODULES]
           + [("trace.overhead", "ratio")])


def _counters(lib):
    """Span name -> (counter, function(args, result) giving the amount)."""
    samples = lib.nevanlinna.DEFAULT_SAMPLES
    return {
        "expressions.canonicalize": ("expressions.canonicalize.degree",
                                     lambda a, r: r.num.degree + r.den.degree),
        "expressions.log_abs": ("expressions.log_abs.points", lambda a, r: np.size(a[1])),
        "expressions.evaluate_on_grid": ("expressions.evaluate_on_grid.points",
                                         lambda a, r: np.size(a[1])),
        "polynomials.poly_roots": ("polynomials.poly_roots.degree", lambda a, r: a[0].degree),
        "nevanlinna.proximity": ("nevanlinna.proximity.points",
                                 lambda a, r: len(a[1]) * (a[2] or samples)),
    }


class Tracer:
    """Wraps the library's layers and records the spans of one op at a time."""

    def __init__(self, lib):
        self.lib = lib
        self.counters = _counters(lib)
        self.restore = []
        self.stack = []
        self.spans = []  # (name, start, end, parent index) for the current op
        self.op_counts = defaultdict(int)

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        counter = self.counters.get(name)

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.op_counts[f"{name}.failed"] += 1
                raise
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                tracer.stack.pop()
            if counter is not None:
                key, amount = counter
                tracer.op_counts[key] += int(amount(args, result))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "nevanlab" or n.startswith("nevanlab.")]
        for module_name, functions in LAYERS.items():
            module = getattr(self.lib, module_name)
            for target, span in functions.items():
                name = f"{module_name}.{span}"
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self.restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(module, target)
                wrapped = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self.restore.append((m, attr, original))
                            setattr(m, attr, wrapped)

    def uninstall(self):
        for obj, attr, original in reversed(self.restore):
            setattr(obj, attr, original)
        self.restore = []

    # -- per op -----------------------------------------------------------
    def begin_op(self):
        self.spans = []
        self.stack = []
        self.op_counts = defaultdict(int)

    def end_op(self):
        """Self time per span name (seconds) and counts of the op just run."""
        child = [0.0] * len(self.spans)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        # a child span always has a higher index than its parent
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[i]
            duration = end - start
            self_time[name] += duration - child[i]
            calls[name] += 1
            if parent >= 0:
                child[parent] += duration
        return self_time, calls, dict(self.op_counts)
