"""The trusted base: the graph type with its two parsers and the class
test, the certificate types with their JSON readers, and the checks.

It imports the standard library only, and the producers import the
graph type and the certificate types from here, so no check can share
code, or a fault, with what it checks: `wc -l check.py` is all that a
reader must trust. A Graph is immutable after construction.

A replayed greedy trace proves |S| <= omega*n for its weights with no
LP row: `desirable`, `isolating` and `header_ok` suffice. An isolated
end state has no White or Blue vertex, so it weighs zero, and the
drops, each at least the size of its step, telescope from omega*n.
The LP rows are needed only for the claim over every graph of a class.
"""

from __future__ import annotations

import math
import operator
from enum import IntEnum
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, NamedTuple


class Graph6ParseError(ValueError):
    """Malformed graph6 input. `offset` is the byte position of the problem,
    counted from the start of the text as given."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


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


def in_class(G: Graph, delta: int, g: int) -> bool:
    """Whether G has minimum degree >= delta and no cycle shorter than g,
    for g <= 5: the hypothesis of the class bound for (delta, g).

    O(sum of squared degrees) in C-level set work, with no BFS. A
    triangle is an edge whose ends share a neighbor. A C4 through v is a
    vertex other than v next to two of v's neighbors: the list of their
    neighbors holds it twice (and v once per neighbor).
    """
    if g > 5:
        raise ValueError(f"in_class decides g <= 5, got {g}")
    if min(map(len, G.adj), default=0) < delta:
        return False
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
    # edges go straight into per-vertex lists; the first faulty line raises
    adj: list[list[int]] = [[] for _ in range(n)]
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"expected edge line 'u v', got {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise _edge_error(n, u, v)
        adj[u].append(v)
        adj[v].append(u)
    return Graph._from_sorted(n, tuple(tuple(sorted(set(a))) for a in adj))


# ---------------------------------------------------------------------------
# certificate types, their JSON readers, and the checks

WEIGHT_NAMES = ("omega", "beta1", "beta2", "beta3", "beta4")

# exact weights and xi values of real runs are a few dozen characters
_MAX_RATIONAL_CHARS = 1000


def parse_rational(value) -> Fraction:
    """Exact rational from a JSON value. Long strings and exponents are
    rejected: Fraction("1e999999999") builds a billion-digit integer.
    JSON true and false are rejected too, though Python counts them as 1 and 0,
    and so are JSON floats, which Fraction reads as binary fractions."""
    if isinstance(value, bool):
        raise ValueError(f"{str(value).lower()} is a boolean, not a rational")
    if isinstance(value, float):
        raise ValueError(f"{value!r} is a float; write the rational as a string, e.g. \"3/10\"")
    if isinstance(value, str):
        if len(value) > _MAX_RATIONAL_CHARS:
            raise ValueError(f"rational string longer than {_MAX_RATIONAL_CHARS} characters")
        if "e" in value or "E" in value:
            raise ValueError(f"rational {value!r} uses an exponent")
        # ASCII "p/q", as every writer emits it, skips Fraction's string parser
        p, slash, q = value.partition("/")
        if slash and p.isascii() and p.isdigit() and q.isascii() and q.isdigit():
            return Fraction(int(p), int(q))
    return Fraction(value)


class _Weights(NamedTuple):
    omega: Fraction
    beta1: Fraction
    beta2: Fraction
    beta3: Fraction
    beta4: Fraction


class WeightVector(_Weights):
    """Exact rational weights (omega, beta1..beta4).

    Relative to a partial isolating set D, a White vertex (outside N[D],
    with a neighbor outside N[D]) costs omega, a Blue vertex (in N[D],
    with i >= 1 White neighbors) costs beta_i, capped at beta_4, and
    every other vertex costs nothing. The drop of that total when D
    grows by A is xi(A).

    Construction converts each weight with Fraction, so ints and strings
    such as "3/10" are accepted; _replace and _make bypass that and need
    Fractions. Construction does not enforce the chain conditions, since
    feasibility checking must be able to evaluate arbitrary vectors; the
    chain and step rows of build_constraints state them.
    """

    __slots__ = ()

    def __new__(cls, omega, beta1, beta2, beta3, beta4):
        return super().__new__(cls, *map(Fraction, (omega, beta1, beta2, beta3, beta4)))

    def to_json_dict(self) -> dict:
        return {name: str(x) for name, x in zip(WEIGHT_NAMES, self)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "WeightVector":
        if not isinstance(d, dict):
            raise ValueError(f"weight vector JSON must be an object, got {type(d).__name__}")
        try:
            return cls(*(parse_rational(d[k]) for k in WEIGHT_NAMES))
        except KeyError as e:
            raise ValueError(f"weight vector JSON missing key {e.args[0]!r}") from None
        except (TypeError, ZeroDivisionError, OverflowError) as e:
            raise ValueError(f"malformed weight vector JSON: {e}") from None


class LinearRow(NamedTuple):
    """One inequality sum(coeffs * (omega, beta1..beta4)) >= rhs."""

    coeffs: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]
    rhs: Fraction
    tag: str

    def __str__(self):
        terms = []
        for c, name in zip(self.coeffs, WEIGHT_NAMES):
            if c:
                terms.append(f"{c}*{name}")
        return f"{' + '.join(terms) or '0'} >= {self.rhs}"


class LPSolution(NamedTuple):
    witness: WeightVector  # an optimal point; witness.omega is the optimum
    tight_rows: tuple[int, ...]
    # one multiplier per row of the system; check_optimality reads them
    # as a proof that witness.omega cannot be undercut
    dual: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        # the solver raises rather than return a non-optimal solution
        return {
            "status": "optimal",
            "optimal_omega": str(self.witness.omega),
            "witness": self.witness.to_json_dict(),
            "tight_rows": list(self.tight_rows),
            "dual": [str(y) for y in self.dual],
        }


class GreedyRule(IntEnum):
    R1 = 1
    R2 = 2
    R3 = 3
    R4 = 4
    R5 = 5
    R6 = 6
    R7 = 7


class GreedyStep(NamedTuple):
    rule: GreedyRule
    vertices: tuple[int, ...]
    xi: Fraction

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule.name,
            "set": list(self.vertices),
            "xi": str(self.xi),
            "size": len(self.vertices),
        }


def _index(value) -> int:
    if isinstance(value, bool):  # JSON true and false are not 1 and 0
        raise ValueError(f"{str(value).lower()} is a boolean, not an integer")
    return operator.index(value)


class GreedyTrace(NamedTuple):
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
                vertices = tuple(map(_index, s["set"]))
                steps.append(GreedyStep(GreedyRule[s["rule"]], vertices, parse_rational(s["xi"])))
            final_set = tuple(map(_index, d["final_set"]))
            return cls(_index(d["n"]), tuple(steps), final_set,
                       parse_rational(d["initial_weight"]))
        except KeyError as e:
            raise ValueError(f"trace JSON missing key {e.args[0]!r}") from None
        except (TypeError, ZeroDivisionError, OverflowError) as e:
            raise ValueError(f"malformed trace JSON: {e}") from None


def is_isolating(G: Graph, S: Iterable[int]) -> bool:
    """True iff no edge of G survives the removal of N[S]."""
    dominated = bytearray(G.n)
    for v in S:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} is outside [0, {G.n})")
        dominated[v] = 1
        for u in G.adj[v]:
            dominated[u] = 1
    # an edge survives iff an undominated vertex has an undominated neighbor
    dom = dominated.__getitem__
    return all(dominated[v] or all(map(dom, nbrs)) for v, nbrs in enumerate(G.adj))


class TraceVerification(NamedTuple):
    """Result of an independent trace replay; truthy only if everything holds.

    xi_matches: every recorded xi equals the replayed weight drop.
    desirable: every replayed xi(A) >= |A|.
    isolating: the final set isolates the graph.
    partition_ok: no step repeats a vertex, the steps are disjoint, and
    their union is the recorded set.
    header_ok: the trace's n and initial weight omega*n match the graph
    and the weights.
    """

    xi_matches: bool
    desirable: bool
    isolating: bool
    partition_ok: bool
    header_ok: bool

    def __bool__(self) -> bool:
        return all(self)

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "verified": bool(self)}


def verify_trace(G: Graph, trace: GreedyTrace, wv: WeightVector) -> TraceVerification:
    """Replay a trace locally, from the definitions, and check it.

    The replay keeps its own dominated set N[D], White set and White
    degrees. A vertex is White iff it lies outside N[D] and has a
    neighbor outside N[D], so adding A can change White status only
    inside N[N[A]]: there a White vertex stops once it or each of its
    neighbors is dominated.

    Whatever the trace says, the updates keep two facts. A White vertex
    is never dominated: a newly dominated vertex lies in N[A] and stops
    being White. A non-White vertex with a White neighbor is dominated:
    an undominated vertex stops being White only once all its neighbors
    are dominated, hence not White, and none turns White again.

    By the second fact a vertex's weight depends only on its White flag
    and its White degree d: omega if White, else beta_min(d,4) for
    d >= 1 and 0 for d = 0. Both move only on the stopped vertices and
    their neighbors, so the drop is summed over those alone. A vertex of
    N[A] that was White has stopped; one that was not stays non-White,
    and its White degree moves only if a neighbor stops.

    Drops are summed as integers over the replay's own L: a claimed
    xi = p/q matches iff drop*q == p*L, and A is desirable iff
    drop >= |A|*L, so no comparison rounds.

    desirable, isolating and header_ok together prove |S| <= omega*n
    for any weight vector, with no LP row: the drops telescope from
    omega*n, and an isolated end state weighs zero. The checks are
    reported separately: a run on a graph violating the degree
    precondition can fail the desirability check while its final set
    still isolates.
    """
    n = G.n
    adj = G.adj
    dominated = bytearray(n)
    dom = dominated.__getitem__
    # at the start every vertex with a neighbor is White, so a vertex's
    # White degree is its degree
    white = bytearray(map(bool, adj))
    white_nbrs = list(map(len, adj))
    # weights as integers over L, the lcm of the denominators; a
    # non-White vertex of White degree d weighs blue[d]
    L = math.lcm(*(x.denominator for x in wv))
    omega, *beta = (int(x * L) for x in wv)
    blue = [0] + [beta[min(d, 4) - 1] for d in range(1, max(white_nbrs, default=0) + 1)]

    def weight(vs) -> int:
        return sum(omega if white[v] else blue[white_nbrs[v]] for v in vs)

    D: set[int] = set()
    xi_matches = True
    desirable = True
    partition_ok = True
    for step in trace.steps:
        A = step.vertices
        for v in A:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} is outside [0, {n})")
        if len(set(A)) < len(A) or not D.isdisjoint(A):
            partition_ok = False
        D.update(A)
        near = set(A)
        for a in A:
            near.update(adj[a])
        ball = set(near)
        for v in near:
            dominated[v] = 1
            ball.update(adj[v])
        stopped = [v for v in ball
                   if white[v] and (dominated[v] or all(map(dom, adj[v])))]
        touched = set(stopped)
        for v in stopped:
            touched.update(adj[v])
        before = weight(touched)
        for v in stopped:
            white[v] = 0
            for u in adj[v]:
                white_nbrs[u] -= 1
        replayed = before - weight(touched)
        if replayed * step.xi.denominator != step.xi.numerator * L:
            xi_matches = False
        if replayed < len(A) * L:
            desirable = False
    if tuple(sorted(D)) != tuple(trace.D):
        partition_ok = False
    header_ok = trace.n == G.n and trace.initial_weight == wv.omega * G.n
    return TraceVerification(xi_matches, desirable, is_isolating(G, D), partition_ok,
                             header_ok)


class RowViolation(NamedTuple):
    index: int
    row: LinearRow
    slack: Fraction


def check_feasible(rows: tuple[LinearRow, ...], wv: WeightVector
                   ) -> tuple[bool, tuple[RowViolation, ...]]:
    """Exact evaluation of every row; violations come back with slack.

    The point times L, the lcm of its denominators, and row i times l_i,
    the lcm of its own, are integers, and their dot product (the rhs
    against -L) is l_i*L times the slack: its sign is the slack's sign,
    and over l_i*L it is the exact slack a violated row reports.
    """
    L = math.lcm(*(x.denominator for x in wv))
    X = [x.numerator * (L // x.denominator) for x in wv] + [-L]
    bad = []
    for i, row in enumerate(rows):
        terms = (*row.coeffs, row.rhs)
        l = math.lcm(*(c.denominator for c in terms))
        s = sum(c.numerator * (l // c.denominator) * x for c, x in zip(terms, X))
        if s < 0:
            bad.append(RowViolation(i, row, Fraction(s, l * L)))
    return (not bad, tuple(bad))


def check_optimality(rows: tuple[LinearRow, ...], sol: LPSolution) -> bool:
    """Exact weak-duality proof that sol.witness.omega is the minimum.

    For y >= 0 with A^T y = e_omega, every feasible point x has
    omega = y.(A x) >= y.b. So b.y = omega* proves that no feasible
    point has a smaller omega, and a feasible witness at omega* shows
    that it is attained. Nothing here trusts the solver. Rows with
    y_i = 0 add nothing to A^T y or b.y, so both sum the support only.
    """
    y = sol.dual
    if len(y) != len(rows) or any(v < 0 for v in y):
        return False
    support = [(v, row) for v, row in zip(y, rows) if v]
    combo = [sum(v * row.coeffs[k] for v, row in support) for k in range(5)]
    bound = sum(v * row.rhs for v, row in support)
    return (combo == [1, 0, 0, 0, 0]
            and bound == sol.witness.omega
            and check_feasible(rows, sol.witness)[0])
