"""In-memory span tracer that instruments duomech from the outside.

``instrument(tracer)`` rebinds the public functions of each pipeline layer to
timing wrappers -- in the module that defines them and in every duomech
module that imported them by name -- and rebinds ``numpy.linalg.eigvals``,
``det`` and ``solve`` to counters.  Every span records its name, start, end
and parent span; every counted linear-algebra call is charged to the
innermost open span.  Nothing is written out until the run ends, and the
original bindings are restored on exit.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> (module, attribute) of the function it times
SPAN_TARGETS = {
    "params.derive": ("duomech.params", "derive"),
    "dynamics.system_matrices": ("duomech.dynamics", "system_matrices"),
    "dynamics.check_stability": ("duomech.dynamics", "check_stability"),
    "dynamics.solve_lyapunov": ("duomech.dynamics", "solve_lyapunov"),
    "measures.correlation_report": ("duomech.measures", "correlation_report"),
    "measures.symplectic_eigenvalues": ("duomech.measures", "symplectic_eigenvalues"),
    "sweep.evaluate_point": ("duomech.sweep", "evaluate_point"),
    "sweep.run_sweep": ("duomech.sweep", "run_sweep"),
    "sweep.emit_csv": ("duomech.sweep", "emit_csv"),
    "sweep.find_critical_xi": ("duomech.sweep", "find_critical_xi"),
    "montecarlo.integrate": ("duomech.montecarlo", "integrate_steady_covariance"),
    "montecarlo.compare": ("duomech.montecarlo", "compare_to_lyapunov"),
    "cli.main": ("duomech.cli", "main"),
}
# classmethods are rebound on their class, which every importer shares
CLASSMETHOD_TARGETS = {
    "measures.from_matrix": ("duomech.measures", "TwoModeCovariance", "from_matrix"),
}
COUNTED_LINALG = ("eigvals", "det", "solve")


class Tracer:
    """Spans as ``[name, start, end, parent_index]`` lists (parent -1 at the
    root) plus, per span index, a Counter of linalg calls made while it was
    the innermost open span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.linalg: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def count(self, op: str, fn):
        linalg, stack = self.linalg, self._stack

        def counted(*args, **kwargs):
            linalg[stack[-1] if stack else -1][op] += 1
            return fn(*args, **kwargs)

        return counted


def _rebind_everywhere(original, replacement, saved: list) -> None:
    """Point every duomech module attribute bound to ``original`` at
    ``replacement``; remember each binding in ``saved`` for restoration."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "duomech" or mod_name.startswith("duomech.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                saved.append((module, attr, original))
                setattr(module, attr, replacement)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every call of the traced layers through ``tracer`` for the
    duration of the ``with`` block."""
    saved: list[tuple] = []
    try:
        for name, (mod_name, attr) in SPAN_TARGETS.items():
            original = getattr(sys.modules[mod_name], attr)
            _rebind_everywhere(original, tracer.wrap(name, original), saved)
        for name, (mod_name, cls_name, attr) in CLASSMETHOD_TARGETS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            original = vars(cls)[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, classmethod(tracer.wrap(name, original.__func__)))
        for op in COUNTED_LINALG:
            original = getattr(np.linalg, op)
            saved.append((np.linalg, op, original))
            setattr(np.linalg, op, tracer.count(op, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def summarize(tracer: Tracer) -> dict:
    """Per span name: number of calls, total and self seconds; per layer
    (the part of a span name before the first dot): linalg call counts."""
    child_time = defaultdict(float)
    for _, start, end, parent in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, _) in enumerate(tracer.spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    linalg: dict[str, Counter] = defaultdict(Counter)
    for index, counts in tracer.linalg.items():
        layer = tracer.spans[index][0].split(".", 1)[0] if index >= 0 else "outside"
        linalg[layer].update(counts)
    return {"spans": dict(stats), "linalg": dict(linalg)}


def descendants_of(tracer: Tracer, ancestor: str, name: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    spans = tracer.spans
    found = 0
    for record in spans:
        if record[0] != name:
            continue
        parent = record[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                found += 1
                break
            parent = spans[parent][3]
    return found
