"""Producer code for graphs: the graph6 and edge-list emitters and seeded
random generators. Graph, its two parsers and the girth test are in
check.py, the trusted base.
"""

from __future__ import annotations

from random import Random

from .check import MAX_ORDER, Graph


class GenerationError(RuntimeError):
    """A random generator exhausted its retry budget."""


# ---------------------------------------------------------------------------
# emitters: graph6 (bit-exact per the standard McKay encoding) and the
# edge list, header "n m", then one "u v" line per edge

def _encode_size(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= MAX_ORDER:
        return chr(126) + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0)
        )
    raise ValueError(f"graph6 emitter supports n <= {MAX_ORDER}, got {n}")


def emit_graph6(G: Graph) -> str:
    """Encode as a graph6 string (no header, no trailing newline).

    Pair (u, v) with u < v is bit k = v(v-1)/2 + u of the body, so it
    adds 32 >> k % 6 to body byte k // 6. The body starts as one "?"
    (value 63, no bits set) per byte, so the only Python work is one
    step per edge; the n(n-1)/12 bytes are allocated in C.
    """
    n = G.n
    size = _encode_size(n)  # rejects an order too large before the body exists
    body = bytearray(b"?") * ((n * (n - 1) // 2 + 5) // 6)
    for v in range(1, n):
        base = v * (v - 1) // 2
        for u in G.adj[v]:
            if u >= v:
                break
            k = base + u
            body[k // 6] += 32 >> k % 6
    return size + body.decode("ascii")


def emit_edge_list(G: Graph) -> str:
    lines = [f"{G.n} {G.num_edges}"]
    lines += [f"{u} {v}" for u, nbrs in enumerate(G.adj) for v in nbrs if v > u]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# seeded generators

_RETRY_BUDGET = 5000


def check_order(n: int) -> None:
    """Reject an order above MAX_ORDER before anything is allocated for it."""
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported maximum {MAX_ORDER}")


def random_regular_graph(n: int, r: int, seed: int) -> Graph:
    """Simple r-regular graph via the pairing model with whole-draw rejection.

    When 2r > n - 1 it is the complement of the (n - 1 - r)-regular graph
    drawn with the same seed, since a whole pairing of dense stubs is
    almost never simple. Deterministic per seed. Raises ValueError when
    n*r is odd or r is outside [0, n), GenerationError when the retry
    budget runs out, as it does once both r and n - 1 - r reach about 7.
    """
    check_order(n)
    if not 0 <= r < n:
        raise ValueError(f"degree {r} must be >= 0 and below the {n} vertices")
    if (n * r) % 2:
        raise ValueError(f"n*r must be even, got n={n}, r={r}")
    k = min(r, n - 1 - r)
    rng = Random(seed)
    stubs = [v for v in range(n) for _ in range(k)]
    for _ in range(_RETRY_BUDGET):
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        pairs = iter(stubs)
        for u, v in zip(pairs, pairs):
            e = (u, v) if u < v else (v, u)
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            if k < r:
                edges = {(u, v) for u in range(n) for v in range(u + 1, n)} - edges
            return Graph(n, edges)
    raise GenerationError(
        f"no simple {r}-regular pairing on {n} vertices after {_RETRY_BUDGET} draws"
    )


def _fill(rng: Random, adj: list[set[int]], v: int, delta: int, lo: int, hi: int) -> None:
    """Join v to random vertices of [lo, hi) until it has delta neighbors.

    The callers ensure [lo, hi) holds delta vertices other than v, so
    while v has fewer neighbors, each draw finds a new one with positive
    probability: the loop ends with probability 1, and needs no budget."""
    while len(adj[v]) < delta:
        u = rng.randrange(lo, hi)
        if u != v and u not in adj[v]:
            adj[v].add(u)
            adj[u].add(v)


def random_min_degree_graph(n: int, delta: int, seed: int) -> Graph:
    """Random simple graph with minimum degree >= delta, deterministic per seed.

    Starts from one pairing-model draw (collisions skipped), then adds
    uniformly random edges at deficient vertices until the degree floor
    holds. Instances feed property tests, so simplicity beats
    distributional purity here.
    """
    check_order(n)
    if not 0 <= delta < n:
        raise ValueError(f"minimum degree {delta} must be >= 0 and below the {n} vertices")
    rng = Random(seed)
    stubs = [v for v in range(n) for _ in range(delta)]
    rng.shuffle(stubs)
    adj: list[set[int]] = [set() for _ in range(n)]
    it = iter(stubs)
    for u, v in zip(it, it):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    for v in range(n):
        _fill(rng, adj, v, delta, 0, n)
    return Graph(n, ((u, v) for u in range(n) for v in adj[u] if u < v))


def random_bipartite_min_degree_graph(n: int, delta: int, seed: int) -> Graph:
    """Random bipartite (hence triangle-free) graph with min degree >= delta.

    Sides are 0..ceil(n/2)-1 and the rest. Each left vertex draws delta
    distinct right neighbors, then deficient right vertices repair
    themselves the same way.
    """
    check_order(n)
    left = (n + 1) // 2
    right = n - left
    if not 0 <= delta <= min(left, right):
        raise ValueError(
            f"min degree {delta} impossible with sides {left}/{right}"
        )
    rng = Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for v in range(left):
        _fill(rng, adj, v, delta, left, n)
    for v in range(left, n):
        _fill(rng, adj, v, delta, 0, left)
    return Graph(n, ((u, v) for u in range(n) for v in adj[u] if u < v))
