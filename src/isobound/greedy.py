"""Weight-driven greedy construction of isolating sets.

Seven rules are tried in a fixed order; each one recolors at least one
White vertex, and on graphs of minimum degree >= delta with weights
feasible for the matching constraint system every chosen set A decreases
the total weight by at least |A|. Telescoping from omega*n down to zero
then bounds the output size by omega*n.

Rule order (the first applicable rule fires):

  R1  a White vertex with >= 4 White neighbors (those with >= 5 first).
  R2  a Blue vertex with >= 5 White neighbors.
  R3  a White vertex with exactly 3 White neighbors.
  R4  a Blue vertex with exactly 4 White neighbors.
  R5  a White component other than K2 / C5: take a minimum isolating
      set of that path or cycle.
  R6  a Blue vertex x touching >= 2 White components (all K2 / C5 now):
      x plus, per C5 among the two picked components, one cycle vertex
      at distance 2 from the attachment.
  R7  endgame: the lowest K2 (its lower endpoint) or C5 (both
      neighbors of its lowest vertex).

R1 prefers the >= 5 tier because a vertex with exactly 4 White
neighbors only pays for itself once no vertex has more: the respective
worst-case weight drops differ, and only the two-tier order keeps every
step above cost. Ties always break to the lowest vertex index.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

from .exact import path_cycle_min_isolating
from .graph import Graph
from .residual import (ResidualState, WeightVector, compute_residual, is_isolating,
                       parse_rational, total_weight)


class GreedyRule(IntEnum):
    R1 = 1
    R2 = 2
    R3 = 3
    R4 = 4
    R5 = 5
    R6 = 6
    R7 = 7


# R1-R4 in the order tried: (rule, ResidualState vertex pool, lowest and
# highest White degree); the first row with a hit picks its lowest vertex
_DEGREE_RULES = (
    (GreedyRule.R1, "whites", 5, math.inf),
    (GreedyRule.R1, "whites", 4, 4),
    (GreedyRule.R2, "blues", 5, math.inf),
    (GreedyRule.R3, "whites", 3, 3),
    (GreedyRule.R4, "blues", 4, 4),
)


@dataclass(frozen=True)
class GreedyStep:
    rule: GreedyRule
    vertices: tuple[int, ...]
    xi: Fraction

    @property
    def size(self) -> int:
        return len(self.vertices)

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule.name,
            "set": list(self.vertices),
            "xi": str(self.xi),
            "size": self.size,
        }


@dataclass(frozen=True)
class GreedyTrace:
    """Audit trail of one run: the steps partition the final set D, and
    initial_weight − sum of step xi values telescopes to the final
    weight, which is zero once no White vertex remains."""

    n: int
    steps: tuple[GreedyStep, ...]
    D: tuple[int, ...]
    initial_weight: Fraction

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "initial_weight": str(self.initial_weight),
            "steps": [s.to_json_dict() for s in self.steps],
            "final_set": list(self.D),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GreedyTrace":
        if not isinstance(d, dict):
            raise ValueError(f"trace JSON must be an object, got {type(d).__name__}")
        try:
            steps = []
            for s in d["steps"]:
                if s["rule"] not in GreedyRule.__members__:
                    raise ValueError(f"trace JSON names unknown rule {s['rule']!r}")
                vertices = tuple(map(operator.index, s["set"]))
                steps.append(GreedyStep(GreedyRule[s["rule"]], vertices, parse_rational(s["xi"])))
            final_set = tuple(map(operator.index, d["final_set"]))
            return cls(operator.index(d["n"]), tuple(steps), final_set,
                       parse_rational(d["initial_weight"]))
        except KeyError as e:
            raise ValueError(f"trace JSON missing key {e.args[0]!r}") from None
        except (TypeError, ZeroDivisionError, OverflowError) as e:
            raise ValueError(f"malformed trace JSON: {e}") from None


def _is_c5(comp: tuple[int, ...], wdeg: tuple[int, ...]) -> bool:
    return len(comp) == 5 and all(wdeg[v] == 2 for v in comp)


def select_desirable(state: ResidualState) -> tuple[GreedyRule, frozenset[int]]:
    """First applicable rule and its set, with lowest-index tie-breaking.

    No variant enters here: the variant only decides which weight vector
    makes the steps pay for themselves.
    """
    if not state.whites:
        raise ValueError("no white vertex: the current set is already isolating")
    G = state.graph
    wdeg = state.white_degree
    for rule, pool, lowest, highest in _DEGREE_RULES:
        for v in getattr(state, pool):
            if lowest <= wdeg[v] <= highest:
                return rule, frozenset((v,))

    # white components are now paths and cycles (max white degree <= 2)
    comps = state.white_components()
    for comp in comps:
        if len(comp) != 2 and not _is_c5(comp, wdeg):
            sub, back = G.induced_subgraph(comp)
            local = path_cycle_min_isolating(sub)
            A = frozenset(back[i] for i in local)
            if 3 * len(A) > len(comp):
                raise AssertionError(
                    f"R5 set of size {len(A)} on a {len(comp)}-vertex component")
            return GreedyRule.R5, A

    comp_id: dict[int, int] = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = idx
    for x in state.blues:
        touched = sorted({comp_id[u] for u in G.neighbors(x) if u in comp_id})
        if len(touched) < 2:
            continue
        A = {x}
        for idx in touched[:2]:
            comp = comps[idx]
            if _is_c5(comp, wdeg):
                y = min(u for u in G.neighbors(x) if u in comp)
                far = [v for v in comp if v != y and not G.has_edge(y, v)]
                A.add(min(far))
        return GreedyRule.R6, frozenset(A)

    comp = comps[0]
    if len(comp) == 2:
        return GreedyRule.R7, frozenset((comp[0],))
    v1 = comp[0]
    inner = [u for u in G.neighbors(v1) if u in comp]
    if len(inner) != 2:
        raise AssertionError("endgame component is not a 5-cycle")
    return GreedyRule.R7, frozenset(inner)


def greedy_isolating_set(G: Graph, wv: WeightVector) -> tuple[tuple[int, ...], GreedyTrace]:
    """Run the rules to exhaustion and return (S, trace).

    Always terminates with an isolating S on any graph. The per-step
    xi >= |A| guarantees, and with them |S| <= omega*n, hold when the
    graph meets a variant's degree/girth precondition and wv is
    feasible for that variant's constraint system; otherwise the trace
    is advisory.
    """
    D: set[int] = set()
    state = compute_residual(G, D)
    w_cur = total_weight(state, wv)
    steps: list[GreedyStep] = []
    while state.whites:
        rule, A = select_desirable(state)
        if rule >= GreedyRule.R3 and (state.delta_w() > 3 or state.delta_b() > 4):
            raise AssertionError(f"{rule.name} fired with degrees past the R1/R2 stage")
        if rule >= GreedyRule.R5 and (state.delta_w() > 2 or state.delta_b() > 3):
            raise AssertionError(f"{rule.name} fired with degrees past the R3/R4 stage")
        white_before = len(state.whites)
        D |= A
        state = compute_residual(G, D)
        w_new = total_weight(state, wv)
        steps.append(GreedyStep(rule, tuple(sorted(A)), w_cur - w_new))
        if len(state.whites) >= white_before:
            raise AssertionError(f"{rule.name} made no progress")
        w_cur = w_new
    if w_cur != 0:
        raise AssertionError("non-white endstate must weigh nothing")
    S = tuple(sorted(D))
    trace = GreedyTrace(G.n, tuple(steps), S, wv.omega * G.n)
    return S, trace


@dataclass(frozen=True)
class TraceVerification:
    """Result of an independent trace replay; truthy only if everything holds.

    xi_matches: every recorded xi equals the from-scratch recomputation.
    desirable: every replayed xi(A) >= |A|.
    isolating: the final set isolates the graph.
    partition_ok: the steps are disjoint and their union is the recorded set.
    header_ok: the trace's n and initial weight omega*n match the graph
    and the weights.
    """

    xi_matches: bool
    desirable: bool
    isolating: bool
    partition_ok: bool
    header_ok: bool

    def __bool__(self) -> bool:
        return (self.xi_matches and self.desirable and self.isolating
                and self.partition_ok and self.header_ok)

    def to_json_dict(self) -> dict:
        return {
            "xi_matches": self.xi_matches,
            "desirable": self.desirable,
            "isolating": self.isolating,
            "partition_ok": self.partition_ok,
            "header_ok": self.header_ok,
            "verified": bool(self),
        }


def verify_trace(G: Graph, trace: GreedyTrace, wv: WeightVector) -> TraceVerification:
    """Replay a trace with fresh residual computations and check it.

    The checks are reported separately: a run on a graph violating the
    degree precondition can fail the desirability check while its final
    set still isolates.
    """
    D: set[int] = set()
    xi_matches = True
    desirable = True
    partition_ok = True
    w_cur = total_weight(compute_residual(G, D), wv)
    for step in trace.steps:
        A = set(step.vertices)
        if A & D:
            partition_ok = False
        D |= A
        w_new = total_weight(compute_residual(G, D), wv)
        replayed = w_cur - w_new
        if replayed != step.xi:
            xi_matches = False
        if replayed < len(step.vertices):
            desirable = False
        w_cur = w_new
    if tuple(sorted(D)) != tuple(trace.D):
        partition_ok = False
    header_ok = trace.n == G.n and trace.initial_weight == wv.omega * G.n
    return TraceVerification(xi_matches, desirable, is_isolating(G, D), partition_ok,
                             header_ok)
