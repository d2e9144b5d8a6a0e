"""Span recorder for the traced benchmark run.

Public functions are rebound at their import sites (the module
attribute the caller looks up at call time), so the program itself is
not edited. A site whose attribute no longer exists is skipped and its
metrics read as zero calls, which keeps a later change that removes a
call measurable instead of crashing the harness.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter


def _explored(tracer, args, result):
    tracer.counts["exact.nodes"] += getattr(result, "explored", 0) or 0


def _emitted_bytes(tracer, args, result):
    tracer.counts["graph.graph6_bytes"] += len(result)


def _parsed_bytes(tracer, args, result):
    tracer.counts["graph.graph6_bytes"] += len(args[0]) if args else 0


# (module, attribute, span name, optional hook on the call's result);
# each entry is the attribute a caller resolves when it makes the call
SITES = (
    ("isobound.cli", "main", "cli.main", None),
    ("isobound.cli", "emit_graph6", "graph.emit_graph6", _emitted_bytes),
    ("isobound.cli", "parse_graph6", "graph.parse_graph6", _parsed_bytes),
    ("isobound.cli", "parse_edge_list", "graph.parse_edge_list", None),
    ("isobound.cli", "structural_profile", "graph.profile", None),
    ("isobound.cli", "random_min_degree_graph", "graph.generate", None),
    ("isobound.cli", "random_regular_graph", "graph.generate", None),
    ("isobound.cli", "chain", "families.chain", None),
    ("isobound.cli", "certify_special_edge", "families.certify", None),
    ("isobound.cli", "greedy_isolating_set", "greedy.run", None),
    ("isobound.cli", "verify_trace", "greedy.verify", None),
    ("isobound.greedy", "select_desirable", "greedy.select", None),
    ("isobound.greedy", "compute_residual", "residual.compute", None),
    ("isobound.greedy", "total_weight", "residual.total_weight", None),
    ("isobound.cli", "is_isolating", "residual.is_isolating", None),
    ("isobound.greedy", "is_isolating", "residual.is_isolating", None),
    ("isobound.exact", "is_isolating", "residual.is_isolating", None),
    ("isobound.greedy", "path_cycle_min_isolating", "exact.dp", None),
    ("isobound.cli", "exact_isolation_number", "exact.solve", _explored),
    ("isobound.families", "exact_isolation_number", "exact.solve", _explored),
    ("isobound.exact", "_greedy_cover_seed", "exact.seed", None),
    ("isobound.cli", "solve_min_omega", "lpweights.solve", None),
    ("isobound.cli", "build_constraints", "lpweights.build", None),
    ("isobound.cli", "check_feasible", "lpweights.check", None),
)


class Tracer:
    """Keeps spans in memory as (name, start, end, parent index, job id).

    Spans are appended when they open, so a parent always precedes its
    children; the parent index is -1 at the top level.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = t0, t1
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name, hook in SITES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, self._wrap(fn, name, hook))
            self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def total(self, name: str, job: int | None = None) -> float:
        """Summed duration of the spans called name (of one job if given)."""
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == name and (job is None or s[4] == job))

    def self_time(self, name: str) -> float:
        """Duration of the spans called name minus what their children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(self.spans)
                   if s[0] == name)
