"""Instrumentation that the benchmark wraps around algpot from outside.

Two recorders replace module attributes and class methods of algpot with
wrappers and put the originals back on ``restore``; no file of algpot
changes.

* ``WorkCounter`` counts the deterministic work of a timed run: Darboux
  Newton evaluations, split between starts that converged and starts that
  failed, and right-hand-side calls of the constrained flow.  It only adds
  to integers, so timed runs carry it.
* ``SpanRecorder`` is the traced run.  Every wrapped call becomes a span
  (name, start, end, parent span, problem id, whether it returned, and a
  tag such as a Newton start's outcome), kept in memory and written out at
  the end.  Per-layer metrics are computed from the spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

# (module, attribute owner, attribute, span name); owner None = the module.
SPAN_POINTS = (
    ("parsing", None, "parse_problem", "parsing.parse_problem"),
    ("nbody", None, "build", "nbody.build"),
    ("calculus", "PointCalculus", "__init__", "calculus.build"),
    ("pipeline", None, "analyze", "pipeline.analyze"),
    ("pipeline", None, "validate", "variety.validate"),
    ("pipeline", None, "detect_homogeneity", "calculus.homogeneity"),
    ("pipeline", None, "solve_darboux", "darboux.solve"),
    ("darboux", None, "_newton", "darboux.newton"),
    ("calculus", "PointCalculus", "darboux_system", "calculus.darboux_system"),
    ("calculus", "PointCalculus", "darboux_residual", "calculus.darboux_residual"),
    ("calculus", "PointCalculus", "_dg_blocks", "calculus.dg_blocks"),
    ("calculus", "PointCalculus", "hess", "calculus.hess"),
    ("calculus", "PointCalculus", "near_sigma", "calculus.near_sigma"),
    ("calculus", "PointCalculus", "grad", "calculus.grad"),
    ("calculus", "PointCalculus", "w_derivative", "calculus.w_derivative"),
    ("pipeline", None, "split_gauge_spectrum", "nbody.split_gauge"),
    ("pipeline", None, "eigen", "spectrum.eigen"),
    ("nbody", None, "eigen", "spectrum.eigen"),
    ("admissibility", "AdmissibilityTable", "check_pair_exact", "admissibility.check_exact"),
    ("admissibility", "AdmissibilityTable", "check_pair_numeric", "admissibility.check_numeric"),
    ("pipeline", None, "certify", "admissibility.certify"),
    ("varode", None, "build_ve", "varode.build_ve"),
    ("varode", None, "monodromy_report", "varode.monodromy_report"),
    ("varode", "HypergeomVE", "system_matrix", "varode.system_matrix"),
    ("dynamics", None, "integrate", "dynamics.integrate"),
    ("dynamics", "ConstrainedSystem", "rhs", "dynamics.rhs"),
    ("dynamics", None, "homothetic_orbit", "dynamics.homothetic_orbit"),
)

# Called too often and too cheaply for a span each: counted only.
COUNT_POINTS = (
    ("expr", "RatExpr", "diff", "expr.diff"),
    ("expr", "RatExpr", "compile", "expr.compile"),
)


def _resolve(algpot, module, owner):
    """The module or class holding a wrap point, or None if it is gone."""
    mod = getattr(algpot, module, None)
    return mod if owner is None else getattr(mod, owner, None)


def newton_accept_tol(algpot, fallback: float = 1e-9) -> float:
    """solve_darboux's acceptance bound on a Newton start's final residual."""
    solve = getattr(getattr(algpot, "darboux", None), "solve_darboux", None)
    param = inspect.signature(solve).parameters.get("accept_tol") if solve else None
    return fallback if param is None else float(param.default)


def newton_outcome(out, accept_tol: float) -> str:
    """'converged' or 'failed', exactly as solve_darboux classifies a start."""
    if out is None or out[1] > accept_tol:
        return "failed"
    return "converged"


class _Patcher:
    def __init__(self):
        self._saved = []
        self.missing = []  # wrap points this version of algpot does not have

    def _replace(self, target, attr, make):
        if target is None or attr not in vars(target):
            self.missing.append(f"{getattr(target, '__name__', '?')}.{attr}")
            return
        original = vars(target)[attr]
        wrapper = functools.wraps(original)(make(original))
        setattr(target, attr, wrapper)
        self._saved.append((target, attr, original))

    def restore(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()


class WorkCounter(_Patcher):
    """Deterministic work counts for the timed runs."""

    def __init__(self, algpot):
        super().__init__()
        self.evals = 0
        self.evals_converged = 0
        self.evals_failed = 0
        self.rhs_calls = 0
        accept_tol = newton_accept_tol(algpot)

        def count_evals(original):
            def wrapper(*args, **kwargs):
                self.evals += 1
                return original(*args, **kwargs)
            return wrapper

        def split_evals(original):
            def wrapper(*args, **kwargs):
                before = self.evals
                out = original(*args, **kwargs)
                used = self.evals - before
                if newton_outcome(out, accept_tol) == "converged":
                    self.evals_converged += used
                else:
                    self.evals_failed += used
                return out
            return wrapper

        def count_rhs(original):
            def wrapper(*args, **kwargs):
                self.rhs_calls += 1
                return original(*args, **kwargs)
            return wrapper

        self._replace(algpot.calculus.PointCalculus, "darboux_system", count_evals)
        self._replace(algpot.darboux, "_newton", split_evals)
        self._replace(algpot.dynamics.ConstrainedSystem, "rhs", count_rhs)

    def snapshot(self) -> dict:
        return {"darboux_system_calls": self.evals,
                "evals_converged": self.evals_converged,
                "evals_failed": self.evals_failed,
                "rhs_calls": self.rhs_calls}


class SpanRecorder(_Patcher):
    """Spans for every call through the points in SPAN_POINTS."""

    FIELDS = ("id", "name", "start", "end", "parent", "problem", "returned", "tag")

    def __init__(self, algpot):
        super().__init__()
        self.names = []
        self.problems = []
        self.problem = -1
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0
        accept_tol = newton_accept_tol(algpot)
        for module, owner, attr, name in SPAN_POINTS:
            tagger = None
            if name == "darboux.newton":
                tagger = functools.partial(newton_outcome, accept_tol=accept_tol)
            self._replace(_resolve(algpot, module, owner), attr,
                          self._span_maker(name, tagger))
        for module, owner, attr, name in COUNT_POINTS:
            self._replace(_resolve(algpot, module, owner), attr, self._count_maker(name))

    def set_problem(self, label: str):
        self.problems.append(label)
        self.problem = len(self.problems) - 1

    def _span_maker(self, name, tagger):
        if name in self.names:
            name_id = self.names.index(name)
        else:
            name_id = len(self.names)
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(original):
            def wrapper(*args, **kwargs):
                span_id = self._next_id
                self._next_id = span_id + 1
                parent = stack[-1] if stack else -1
                stack.append(span_id)
                returned, tag = False, None
                start = clock()
                try:
                    out = original(*args, **kwargs)
                    returned = True
                    if tagger is not None:
                        tag = tagger(out)
                    return out
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((span_id, name_id, start, end, parent,
                                  self.problem, returned, tag))
            return wrapper
        return make

    def _count_maker(self, name):
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def write(self, path):
        """One header line, then one JSON array per span in FIELDS order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": self.FIELDS, "names": self.names,
                                 "problems": self.problems,
                                 "counts": dict(self.counts)}) + "\n")
            for sp in sorted(self.spans):
                fh.write(json.dumps([sp[0], self.names[sp[1]], *sp[2:]]) + "\n")


class SpanStats:
    """Per-name totals, self times and Newton splits from recorded spans."""

    def __init__(self, recorder: SpanRecorder):
        names = recorder.names
        by_id = {sp[0]: sp for sp in recorder.spans}
        child_time = defaultdict(float)
        for sp in recorder.spans:
            if sp[4] >= 0:
                child_time[sp[4]] += sp[3] - sp[2]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = dict(recorder.counts)
        newton_tag = {}
        for sp in recorder.spans:
            name = names[sp[1]]
            dur = sp[3] - sp[2]
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child_time[sp[0]]
            if name == "darboux.newton":
                newton_tag[sp[0]] = sp[7] or "failed"
                self.total["darboux.newton." + newton_tag[sp[0]]] += dur
                self.calls["darboux.newton." + newton_tag[sp[0]]] += 1
        self.evals = defaultdict(int)
        for sp in recorder.spans:
            if names[sp[1]] == "calculus.darboux_system" and sp[4] in newton_tag:
                self.evals[newton_tag[sp[4]]] += 1
        # PointCalculus objects built inside each analyze call
        analyze_ids = {sp[0] for sp in recorder.spans if names[sp[1]] == "pipeline.analyze"}
        builds_in_analyze = 0
        for sp in recorder.spans:
            if names[sp[1]] != "calculus.build":
                continue
            parent = sp[4]
            while parent >= 0 and parent not in analyze_ids:
                parent = by_id[parent][4]
            builds_in_analyze += parent >= 0
        self.builds_per_analyze = (builds_in_analyze / len(analyze_ids)
                                   if analyze_ids else 0.0)

    def per_call_us(self, name) -> float:
        calls = self.calls.get(name, 0)
        return 1e6 * self.total[name] / calls if calls else 0.0
