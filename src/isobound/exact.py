"""Exact minimum isolating sets.

Two oracles live here: a branch-and-bound solver for small graphs, and a
closed form for path and cycle components (the only shapes the greedy
ever hands to it).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, is_isolating

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
    # a set display sizes each frozenset's hash table to its elements;
    # built straight from a tuple the table is twice as large, and the
    # unions in search walk the whole table
    closed = [frozenset({v, *G.neighbors(v)}) for v in range(n)]
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
        if not nxt or min(nxt) == start:
            return order
        prev, cur = cur, min(nxt)
        order.append(cur)


def path_cycle_min_isolating(F: Graph) -> tuple[int, ...]:
    """Minimum isolating set of a path or cycle, in closed form.

    A closed neighborhood N[v] meets at most four edges here: the two at
    v and one more at each neighbor. So a path on n vertices (n - 1
    edges) needs at least ceil((n - 1)/4) vertices and a cycle (n edges)
    at least ceil(n/4). Walking a path from its lowest end, positions
    2, 6, 10, ... meet that bound; walking a cycle from vertex 0 toward
    its lower neighbor, positions 3, 7, 11, ... do. The last position is
    clamped to the end of the walk, where it also covers the tail (and,
    on a cycle, the two edges at vertex 0).
    """
    n = F.n
    if n == 0:
        return ()
    if any(F.degree(v) > 2 for v in range(n)):
        raise ValueError("input must be a single simple path or cycle")
    ends = [v for v in range(n) if F.degree(v) < 2]
    order = _walk_order(F, min(ends, default=0))
    if len(order) != n:
        raise ValueError("input must be a single simple path or cycle")
    positions = range(2, n + 1, 4) if ends else range(3, n + 3, 4)
    return tuple(sorted(order[min(i, n - 1)] for i in positions))
