"""Exact minimum isolating sets of small graphs, by branch and bound."""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import NamedTuple

from .check import Graph, is_isolating

NODE_BUDGET = 2_000_000


class SearchBudgetExceeded(RuntimeError):
    """The branch-and-bound node budget ran out before the search finished.

    Deliberately distinct from a "no isolating set of size <= cap"
    outcome, which is a certified answer.
    """


class ExactResult(NamedTuple):
    """Outcome of exact_isolation_number.

    Without a size cap, iota is the exact isolation number and witness a
    minimum isolating set. With size_cap k, iota is None (the first set
    found need not be a minimum), and witness is some isolating set of
    size <= k, or None when none exists: a certified answer.
    seed_size is the greedy incumbent's size (None under a cap),
    incumbent_updates counts the leaves that beat the incumbent, and
    dominated the candidates that frames dropped as dominated, never tried.
    """

    iota: int | None
    witness: tuple[int, ...] | None
    explored: int
    seed_size: int | None = None
    incumbent_updates: int = 0
    dominated: int = 0


def _edge_masks(G: Graph) -> list[int]:
    # covers[v] has bit i when v covers edge i, i.e. edge i meets N[v]
    covers = [0] * G.n
    for i, (a, b) in enumerate(G.edges()):
        for v in {a, b, *G.adj[a], *G.adj[b]}:
            covers[v] |= 1 << i
    return covers


def _greedy_cover_seed(covers: list[int], m: int) -> list[int]:
    # incumbent only: repeatedly take the first vertex covering the most
    # of the m edges still alive. Gains only fall, so a heap top whose
    # stale key is its fresh gain is that vertex
    alive = (1 << m) - 1
    heap = [(-h.bit_count(), v) for v, h in enumerate(covers)]
    heapify(heap)
    S: list[int] = []
    while alive:
        key, v = heap[0]
        gain = (alive & covers[v]).bit_count()
        if gain < -key:
            heapreplace(heap, (-gain, v))
            continue
        heappop(heap)
        S.append(v)
        alive &= ~covers[v]
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
    are those of the search without this bound. Alive edges are kept as
    a mask, cut by covers[v] (the edges v covers), and as the list of
    their candidate sets, which the packing scans; within two of the
    incumbent, the root included, the list is skipped.

    Three or more below, a frame that survives the packing drops
    dominated candidates: it drops a candidate u of its edge when the
    alive cover covers[v] & mask of another candidate v holds u's and is
    larger, or is equal and v < u. That relation is a strict order, so
    the dominators of a dropped u, followed upward, end at a kept
    candidate whose alive cover holds u's. This loses no answer. A set
    under the frame meets its edge. If it holds no kept candidate, it
    holds a dropped u, and swapping u for a kept candidate whose alive
    cover holds u's gives a set no larger that still covers every alive
    edge. A set holding a kept candidate lies in the subtree of its
    lowest one, and no ban excludes it: a child bans only the kept
    candidates tried before it, and a dropped candidate, never tried, is
    never banned. So ι and every decision answer are those of the search
    without the rule; the witness may differ.

    One below, a node is a leaf or closed. Two below, a child survives
    only as a leaf, so the node keeps just the unbanned candidates w of
    its lowest alive edge with mask ⊆ covers[w], and packing 1. The
    packing scan would decide alike: if such a w exists, every unbanned
    candidate set holds it, so the greedy packing is 1 and cutting the
    pick to the candidates common to all alive edges leaves exactly
    these w; if none does, the packing is at least 2 or that cut is
    empty. So the children, their order and bans are those of the full
    scan. No alive edge ever runs out of unbanned candidates, so no node
    needs a closure for that: the root bans nothing; a frame branches on
    an edge with the fewest unbanned candidates, pick, and keeps
    |todo| ≤ |pick| of them (two below, each covers every alive edge),
    so every alive edge has at least |todo| unbanned candidates; and its
    child i bans only the i < |todo| siblings tried before it.

    Random 4-regular graphs take 0.01-0.04 s at n = 40 and 0.6-1.0 s at
    n = 56 (2-core machine, Python 3.11), and the prism chain on 48
    vertices 11k nodes (0.06 s). Raises SearchBudgetExceeded past
    NODE_BUDGET search nodes, which bounds nodes, not time or memory:
    prism chains spend it in about 15 s on 80 vertices and 20 s on 800.
    Without a cap the incumbent seed runs first, unbudgeted: a lazy
    greedy re-scoring few vertices per pick. It pays where the search
    ends at the root (explored = 1): a 5,000-vertex perfect matching
    takes 0.03 s and 1,000 disjoint K5's 0.07 s, against about 2 s each
    when every pick rescans every vertex. On a random graph the search
    dominates: at n = 2,000 it takes 10-15 minutes to use up NODE_BUDGET.
    """
    if size_cap is not None and size_cap < 0:
        raise ValueError(f"size_cap must be >= 0, got {size_cap}")
    budget = NODE_BUDGET
    n = G.n
    # bitmasks: bit c of edge ab's candidates N[a] ∪ N[b] says c covers ab
    closed = [sum(1 << u for u in (v, *G.adj[v])) for v in range(n)]
    edges = [closed[a] | closed[b] for a, b in G.edges()]
    decision_mode = size_cap is not None
    covers = _edge_masks(G)

    best_witness = None if decision_mode else tuple(sorted(_greedy_cover_seed(covers, len(edges))))
    best_size = size_cap + 1 if decision_mode else len(best_witness)
    seed_size = None if decision_mode else best_size

    explored = updates = dominated = 0
    chosen: list[int] = []
    # frame d = [alive edges, alive mask, untried candidates, banned,
    # packing] after d choices; within two of the incumbent no alive list
    stack: list[list] = []
    alive, mask, banned = edges, (1 << len(edges)) - 1, 0
    while True:
        explored += 1
        if explored > budget:
            raise SearchBudgetExceeded(
                f"exceeded {budget} branch nodes on n={n}, m={len(edges)}")
        if not mask:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_witness = tuple(sorted(chosen))
                updates += 1
                if decision_mode:
                    break
        elif len(chosen) + 2 == best_size:
            # children here survive only as leaves: keep the unbanned
            # candidates of the lowest alive edge that cover every alive edge
            todo, cand = 0, edges[(mask & -mask).bit_length() - 1] & ~banned
            while cand:
                low = cand & -cand
                cand ^= low
                if mask & covers[low.bit_length() - 1] == mask:
                    todo |= low
            if todo:
                stack.append([None, mask, todo, banned, 1])
        elif len(chosen) + 2 < best_size:
            # branch on the first edge with fewest candidates; pack greedily
            pick, least, used, packing = 0, n + 1, 0, 0
            allowed = ~banned
            for cand in alive:
                cand &= allowed
                k = cand.bit_count()
                if k < least:
                    pick, least = cand, k
                if not cand & used:
                    used |= cand
                    packing += 1
            if len(chosen) + packing < best_size:
                # drop a candidate whose alive cover another one holds and
                # exceeds, or equals with a lower index
                cands = []
                while pick:
                    low = pick & -pick
                    pick ^= low
                    cands.append((low, covers[low.bit_length() - 1] & mask))
                todo = 0
                for low, cover in cands:
                    for other, wider in cands:
                        if cover & wider == cover and (wider != cover or other < low):
                            dominated += 1
                            break
                    else:
                        todo |= low
                stack.append([alive, mask, todo, banned, packing])
        # descend into the lowest untried candidate of the deepest live frame
        while stack:
            alive, mask, todo, banned, packing = frame = stack[-1]
            del chosen[len(stack) - 1:]
            if not todo or len(chosen) + packing >= best_size:
                stack.pop()
                continue
            low = todo & -todo
            frame[2], frame[3] = todo ^ low, banned | low
            chosen.append(low.bit_length() - 1)
            mask &= ~covers[chosen[-1]]
            if len(chosen) + 2 < best_size:
                alive = [cand for cand in alive if not cand & low]
            break
        else:
            break

    if best_witness is not None and not is_isolating(G, best_witness):
        raise AssertionError("search returned a non-isolating witness")
    iota = None if decision_mode else len(best_witness)
    return ExactResult(iota, best_witness, explored, seed_size, updates, dominated)

