"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: subset enumeration, direct edge
scans, explicit triangle checks. Slow but trustworthy.
"""

from __future__ import annotations

import random
from itertools import combinations

from isobound import Graph


def closed_neighborhood(G: Graph, S) -> set[int]:
    out = set(S)
    for v in S:
        out.update(G.neighbors(v))
    return out


def is_isolating_direct(G: Graph, S) -> bool:
    """No edge of G survives outside N[S], checked edge by edge."""
    nd = closed_neighborhood(G, S)
    return all(u in nd or v in nd for u, v in G.edges())


def brute_force_isolation(G: Graph) -> tuple[int, tuple[int, ...]]:
    """Smallest isolating set by exhaustive enumeration, lexicographic
    first witness. Exponential; keep n small."""
    for k in range(G.n + 1):
        for S in combinations(range(G.n), k):
            if is_isolating_direct(G, S):
                return k, S
    raise AssertionError("the full vertex set always isolates")


def triangles(G: Graph) -> list[tuple[int, int, int]]:
    out = []
    for u, v in G.edges():
        for w in G.neighbors(u):
            if w > v and G.has_edge(v, w):
                out.append((u, v, w))
    return out


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)
