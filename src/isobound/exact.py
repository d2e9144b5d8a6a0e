"""Exact minimum isolating sets.

Two oracles live here: a branch-and-bound solver for small graphs, and a
closed form for path and cycle components (the only shapes the greedy
ever hands to it).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, is_isolating

NODE_BUDGET = 2_000_000


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


def _greedy_cover_seed(G: Graph) -> list[int]:
    # incumbent only: repeatedly take the first vertex covering the most
    # surviving edges; hits[v] has bit i when edge i meets N[v]
    hits = [0] * G.n
    for i, (a, b) in enumerate(G.edges()):
        for v in {a, b, *G.neighbors(a), *G.neighbors(b)}:
            hits[v] |= 1 << i
    alive = (1 << G.num_edges) - 1
    S: list[int] = []
    while alive:
        gains = [(alive & h).bit_count() for h in hits]
        S.append(gains.index(max(gains)))
        alive &= ~hits[S[-1]]
    return S


def exact_isolation_number(G: Graph, size_cap: int | None = None) -> ExactResult:
    """Branch-and-bound over closed neighborhoods of uncovered edges.

    Any isolating set must meet N[u] ∪ N[v] for every surviving edge uv,
    so branching over the candidates of one such edge is complete; the
    candidates tried at a node are banned in its later siblings. Edges
    whose unbanned candidate sets are pairwise disjoint each need a
    vertex of their own, so a node is pruned once the chosen vertices
    plus such a packing reach the incumbent's size. A pruned subtree
    holds no strictly smaller set, so the incumbents, and the witness,
    are those of the search without this bound. Random 4-regular graphs
    take about 0.04 s at n = 40 and 1-3 s at n = 56 (2-core machine,
    Python 3.11). Raises SearchBudgetExceeded past NODE_BUDGET nodes.
    Only search nodes count: without a cap, the incumbent seed runs first
    and unbounded, O(|S|·n·m/64) word operations (about 7 s at n = 5,000,
    minimum degree 4), so a large input can run far past the budget.
    """
    if size_cap is not None and size_cap < 0:
        raise ValueError(f"size_cap must be >= 0, got {size_cap}")
    budget = NODE_BUDGET
    n = G.n
    # bitmasks: bit c of edge ab's candidates N[a] ∪ N[b] says c covers ab
    closed = [sum(1 << u for u in (v, *G.neighbors(v))) for v in range(n)]
    edges = [closed[a] | closed[b] for a, b in G.edges()]
    if not edges:
        return ExactResult(0, (), 0)

    decision_mode = size_cap is not None
    best_witness = None if decision_mode else tuple(sorted(_greedy_cover_seed(G)))
    best_size = size_cap + 1 if decision_mode else len(best_witness)

    explored = 0
    chosen: list[int] = []
    # frame d = [alive edges, untried candidates, banned, packing] after d choices
    stack: list[list] = []
    alive, banned = edges, 0
    while True:
        explored += 1
        if explored > budget:
            raise SearchBudgetExceeded(
                f"exceeded {budget} branch nodes on n={n}, m={len(edges)}")
        if not alive:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_witness = tuple(sorted(chosen))
                if decision_mode:
                    break
        else:
            # branch on the first edge with fewest candidates; pack greedily
            pick, least, used, packing = 0, n + 1, 0, 0
            allowed = ~banned
            for cand in alive:
                cand &= allowed
                k = cand.bit_count()
                if k < least:
                    pick, least = cand, k
                    if not k:
                        break
                if not cand & used:
                    used |= cand
                    packing += 1
            if pick and len(chosen) + packing < best_size:
                stack.append([alive, pick, banned, packing])
        # descend into the lowest untried candidate of the deepest live frame
        while stack:
            alive, todo, banned, packing = frame = stack[-1]
            del chosen[len(stack) - 1:]
            if not todo or len(chosen) + packing >= best_size:
                stack.pop()
                continue
            low = todo & -todo
            frame[1], frame[2] = todo ^ low, banned | low
            chosen.append(low.bit_length() - 1)
            alive = [cand for cand in alive if not cand & low]
            break
        else:
            break

    if best_witness is None:
        return ExactResult(None, None, explored)
    if not is_isolating(G, best_witness):
        raise AssertionError("search returned a non-isolating witness")
    return ExactResult(len(best_witness), best_witness, explored)


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
