"""Exact minimum isolating sets.

Two oracles live here: a branch-and-bound solver for small graphs, and a
linear dynamic program for path and cycle components (the only shapes
the greedy ever hands to it).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, is_connected
from .residual import is_isolating

DEFAULT_NODE_BUDGET = 2_000_000


class SearchBudgetExceeded(RuntimeError):
    """The branch-and-bound node budget ran out before the search finished.

    Deliberately distinct from a "no isolating set of size <= cap"
    outcome, which is a certified answer.
    """


@dataclass(frozen=True)
class ExactResult:
    """Outcome of exact_isolation_number.

    Without a size cap, iota is the exact isolation number and witness a
    minimum isolating set. With size_cap k, witness is some isolating set
    of size <= k (iota echoes its size, an upper bound only), or both are
    None when no isolating set of size <= k exists: a certified answer.
    """

    iota: int | None
    witness: tuple[int, ...] | None
    explored: int
    size_cap: int | None = None


def _greedy_cover_seed(G: Graph, closed: list[frozenset[int]]) -> list[int]:
    # max-coverage heuristic: repeatedly take the vertex killing the most
    # surviving edges; only used as an incumbent upper bound
    edges = list(G.edges())
    alive = set(range(len(edges)))
    S: list[int] = []
    while alive:
        best_v, best_gain = -1, -1
        for v in range(G.n):
            gain = sum(1 for ei in alive if edges[ei][0] in closed[v] or edges[ei][1] in closed[v])
            if gain > best_gain:
                best_v, best_gain = v, gain
        S.append(best_v)
        alive = {ei for ei in alive
                 if edges[ei][0] not in closed[best_v] and edges[ei][1] not in closed[best_v]}
    return S


def exact_isolation_number(G: Graph, size_cap: int | None = None,
                           node_budget: int | None = None) -> ExactResult:
    """Branch-and-bound over closed neighborhoods of uncovered edges.

    Any isolating set must meet N[u] ∪ N[v] for every surviving edge uv,
    so branching over the candidates of one uncovered edge is complete.
    Candidates already tried at a node are banned in later siblings,
    which partitions the solution space and kills duplicate work.
    Intended for n <= 20 or so; raises SearchBudgetExceeded beyond the
    node budget.
    """
    if size_cap is not None and size_cap < 0:
        raise ValueError(f"size_cap must be >= 0, got {size_cap}")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    n = G.n
    closed = [frozenset(G.neighbor_set(v) | {v}) for v in range(n)]
    edges = list(G.edges())
    if not edges:
        return ExactResult(0, (), 0, size_cap)

    decision_mode = size_cap is not None
    if decision_mode:
        best_size = size_cap + 1
        best_witness: tuple[int, ...] | None = None
    else:
        seed = _greedy_cover_seed(G, closed)
        best_size = len(seed)
        best_witness = tuple(sorted(seed))

    dom = [0] * n
    explored = 0

    def search(chosen: list[int], banned: set[int]) -> None:
        nonlocal explored, best_size, best_witness
        explored += 1
        if explored > budget:
            raise SearchBudgetExceeded(
                f"exceeded {budget} branch nodes on n={n}, m={len(edges)}")
        pick: list[int] | None = None
        for a, b in edges:
            if dom[a] or dom[b]:
                continue
            cands = [c for c in sorted(closed[a] | closed[b]) if c not in banned]
            if pick is None or len(cands) < len(pick):
                pick = cands
                if not cands:
                    break
        if pick is None:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_witness = tuple(sorted(chosen))
            return
        if not pick or len(chosen) + 1 >= best_size:
            return
        added = []
        for c in pick:
            for u in closed[c]:
                dom[u] += 1
            chosen.append(c)
            search(chosen, banned)
            chosen.pop()
            for u in closed[c]:
                dom[u] -= 1
            if decision_mode and best_witness is not None:
                break
            banned.add(c)
            added.append(c)
        for c in added:
            banned.remove(c)

    search([], set())
    if best_witness is None:
        return ExactResult(None, None, explored, size_cap)
    if not is_isolating(G, best_witness):
        raise AssertionError("search returned a non-isolating witness")
    return ExactResult(len(best_witness), best_witness, explored, size_cap)


def _walk_order(F: Graph, start: int) -> list[int]:
    # traverse a path or cycle from start, preferring the lower-index
    # neighbor at the first step for determinism
    order = [start]
    prev = -1
    cur = start
    while True:
        nxt = [u for u in F.neighbors(cur) if u != prev]
        if not nxt:
            break
        step = min(nxt)
        if step == start:
            break
        order.append(step)
        prev, cur = cur, step
        if len(order) > F.n:
            raise AssertionError("walk exceeded vertex count")
    return order


def _dp_line(order: list[int], cyclic: bool) -> list[int]:
    # Positions along the walk; state d = capped distance to the last
    # chosen position. Edge (i-1, i) needs a chosen position within
    # {i-2, i-1, i, i+1}, so reaching d = 3 at position i forces
    # position i+1 to be chosen; d = 4 is dead. With cyclic=True,
    # position 0 is pre-chosen (the anchor) and a trailing pending edge
    # is rescued by it, so every end state is accepting.
    m = len(order)
    parents: list[dict[int, tuple[int | None, bool]]] = [{} for _ in range(m)]
    cur: dict[int, int] = {0: 1}
    parents[0][0] = (None, True)
    if not cyclic:
        cur[2] = 0
        parents[0][2] = (None, False)
    for i in range(1, m):
        nxt: dict[int, int] = {}
        for d in sorted(cur):
            cost = cur[d]
            if 0 not in nxt or cost + 1 < nxt[0]:
                nxt[0] = cost + 1
                parents[i][0] = (d, True)
            if d < 3:
                if d + 1 not in nxt or cost < nxt[d + 1]:
                    nxt[d + 1] = cost
                    parents[i][d + 1] = (d, False)
        cur = nxt
    accepting = sorted(d for d in cur if cyclic or d <= 2)
    if not accepting:
        raise AssertionError("path DP ended with no accepting state")
    end = min(accepting, key=lambda d: (cur[d], d))
    chosen = []
    d: int | None = end
    for i in range(m - 1, -1, -1):
        prev_d, chose = parents[i][d]
        if chose:
            chosen.append(order[i])
        d = prev_d
    return chosen


def path_cycle_min_isolating(F: Graph) -> tuple[int, ...]:
    """Minimum isolating set of a path or cycle, by dynamic programming.

    Cycles are handled by conditioning on which of the four vertices
    around one fixed edge is chosen (one of them must be) and rotating
    that anchor to the front of the walk.
    """
    n = F.n
    if n == 0:
        return ()
    if any(F.degree(v) > 2 for v in range(n)) or not is_connected(F):
        raise ValueError("input must be a single simple path or cycle")
    if n == 1:
        return ()
    ends = [v for v in range(n) if F.degree(v) == 1]
    if ends:
        order = _walk_order(F, min(ends))
        if len(order) != n:
            raise AssertionError("path walk missed a vertex")
        return tuple(sorted(_dp_line(order, cyclic=False)))
    order = _walk_order(F, 0)
    if len(order) != n:
        raise AssertionError("cycle walk missed a vertex")
    window = dict.fromkeys([order[-1], order[0], order[1], order[2]])
    sols = [_dp_line(order[k:] + order[:k], cyclic=True) for k in map(order.index, window)]
    # min keeps the first shortest solution, as the anchor order dictates
    return tuple(sorted(min(sols, key=len)))
