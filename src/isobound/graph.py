"""Core graph type, graph6 / edge-list IO, a short-cycle test, and seeded
random generators.

Vertices are dense integer indices 0..n-1. A Graph is immutable after
construction and safe to share between concurrent workers.
"""

from __future__ import annotations

from itertools import chain
from random import Random
from typing import Iterable, Iterator


class Graph6ParseError(ValueError):
    """Malformed graph6 input. `offset` is the byte position of the problem,
    counted from the start of the text as given."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class GenerationError(RuntimeError):
    """A random generator exhausted its retry budget."""


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    adj[v] is the tuple of v's neighbors in increasing order, so
    len(adj[v]) is v's degree. No self-loops; duplicate edges collapse.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise _edge_error(n, u, v)
            sets[u].add(v)
            sets[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in sets)

    @classmethod
    def _from_sorted(cls, n: int, adj: tuple[tuple[int, ...], ...]) -> Graph:
        """The Graph with adjacency adj, unchecked; only the parsers call
        it. The caller guarantees adj holds n strictly increasing tuples,
        adj[v] within [0, n) minus v, and u in adj[v] iff v in adj[u]."""
        G = object.__new__(cls)
        G.n = n
        G.adj = adj
        return G

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically sorted."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adj)) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def _edge_error(n: int, u: int, v: int) -> ValueError:
    """Why (u, v) is no edge of a simple graph on [0, n)."""
    if not (0 <= u < n and 0 <= v < n):
        return ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
    return ValueError(f"self-loop ({u}, {v}) is not allowed")


def girth_at_least(G: Graph, g: int) -> bool:
    """Whether G has no cycle shorter than g, for g <= 5.

    O(sum of squared degrees) in C-level set work, with no BFS. A
    triangle is an edge whose ends share a neighbor. A C4 through v is a
    vertex other than v next to two of v's neighbors: the list of their
    neighbors holds it twice (and v once per neighbor).
    """
    if g > 5:
        raise ValueError(f"girth_at_least decides g <= 5, got {g}")
    adj = G.adj
    if g > 3:
        nbr_sets = list(map(set, adj))
        for u, v in G.edges():
            if not nbr_sets[u].isdisjoint(adj[v]):
                return False
    if g > 4:
        for nbrs in adj:  # a vertex of degree 0 or 1 lies on no cycle
            two = list(chain.from_iterable(map(adj.__getitem__, nbrs)))
            if len(nbrs) > 1 and len(set(two)) != len(two) - len(nbrs) + 1:
                return False
    return True


# ---------------------------------------------------------------------------
# graph6 (bit-exact per the standard McKay encoding)

_G6_HEADER = ">>graph6<<"

# largest order of graph6's four-byte size field; edge-list headers share
# it, so no input makes Graph allocate more adjacency slots than this
MAX_ORDER = 258047


# the graph6 bytes chr(63..126); the table marks every one but "?", the
# only byte with no bit set, as "!"
_G6_BYTES = bytes(range(63, 127))
_G6_MARKS = bytes.maketrans(_G6_BYTES[1:], b"!" * 63)
# the set-bit offsets of each 6-bit value x, high bit (offset 0) first
_G6_BITS = tuple(tuple(b for b in range(6) if x & 32 >> b) for x in range(64))


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


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string; tolerates the optional format header and
    surrounding whitespace. Round-trips with emit_graph6.

    The validity check is one translate that deletes every valid byte.
    A second translate marks each body byte other than "?" (no bits
    set), bytes.find skips from mark to mark, and _G6_BITS lists a marked
    byte's set bits, so Python only visits bits that hold an edge. All
    per-pair work runs in C. A Graph6ParseError offset counts from the
    start of `text` as given, so stripped whitespace and the header
    count too.

    Pair (u, v), u < v, is bit k = base + u of column v, base = v(v-1)/2,
    and a running sum moves base along. Bits come in increasing k, so
    appending v to adj[u] and u to adj[v] keeps each list sorted and
    duplicate-free: w gets its u < w in column w, then its v > w from
    later columns. u < v rules out loops, and the padding check keeps
    every set bit inside the n(n-1)/2 pairs.
    """
    s = text.strip()
    lead = len(text) - len(text.lstrip())
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
        lead += len(_G6_HEADER)
    if not s:
        raise Graph6ParseError("empty graph6 input", lead)
    # deleting every valid byte leaves nothing; otherwise locate the first bad one
    if not s.isascii() or s.encode("ascii").translate(None, _G6_BYTES):
        for i, ch in enumerate(s):
            if not (63 <= ord(ch) <= 126):
                raise Graph6ParseError(f"invalid graph6 byte {ord(ch)}", lead + i)
    if s[0] != chr(126):
        n = ord(s[0]) - 63
        body_at = 1
    else:
        if len(s) < 4:
            raise Graph6ParseError("truncated multi-byte size field", lead + len(s))
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        if s[1] == chr(126) or n > MAX_ORDER:
            raise Graph6ParseError(f"graph6 sizes above {MAX_ORDER} are not supported", lead)
        body_at = 4
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - body_at < nbytes:
        raise Graph6ParseError(
            f"body too short: need {nbytes} bytes for n={n}", lead + len(s)
        )
    if len(s) - body_at > nbytes:
        raise Graph6ParseError("trailing bytes after graph body", lead + body_at + nbytes)
    # padding bits in the final byte must be zero, so every set bit is a pair
    if nbits % 6:
        tail = ord(s[body_at + nbytes - 1]) - 63
        if tail & ((1 << (6 - nbits % 6)) - 1):
            raise Graph6ParseError("nonzero padding bits", lead + body_at + nbytes - 1)
    body = s[body_at:].encode("ascii")
    marks = body.translate(_G6_MARKS)
    adj: list[list[int]] = [[] for _ in range(n)]
    v, base = 1, 0
    p = marks.find(b"!")
    while p >= 0:
        for b in _G6_BITS[body[p] - 63]:
            k = 6 * p + b
            while k >= base + v:
                base += v
                v += 1
            u = k - base
            adj[u].append(v)
            adj[v].append(u)
        p = marks.find(b"!", p + 1)
    return Graph._from_sorted(n, tuple(map(tuple, adj)))


# ---------------------------------------------------------------------------
# edge-list text format: header "n m", then one "u v" line per edge

def is_edge_list(text: str) -> bool:
    """The format rule: an edge list if the first non-blank line has 2+ tokens."""
    return len(text.lstrip().partition("\n")[0].split()) > 1


def emit_edge_list(G: Graph) -> str:
    lines = [f"{G.n} {G.num_edges}"]
    lines += [f"{u} {v}" for u, nbrs in enumerate(G.adj) for v in nbrs if v > u]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: header line "n m", then m "u v" lines."""
    rows = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"expected header 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"expected integer header 'n m', got {rows[0]!r}") from None
    if not 0 <= n <= MAX_ORDER or m < 0:
        raise ValueError(f"header 'n m' needs 0 <= n <= {MAX_ORDER} and m >= 0, got {rows[0]!r}")
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(rows) - 1} lines follow")
    # each edge goes straight into per-vertex lists; a malformed line
    # raises at once, and the first bad edge only once every line parses
    adj: list[list[int]] = [[] for _ in range(n)]
    bad = None
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"expected edge line 'u v', got {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if 0 <= u < n and 0 <= v < n and u != v:
            adj[u].append(v)
            adj[v].append(u)
        elif bad is None:
            bad = (u, v)
    if bad is not None:
        raise _edge_error(n, *bad)
    return Graph._from_sorted(n, tuple(tuple(sorted(set(a))) for a in adj))


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
