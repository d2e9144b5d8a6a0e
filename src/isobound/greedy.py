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

The engine scales the weights once per run by L, the lcm of their five
denominators, and sums integers; every recorded xi is the exact
rational Fraction(drop, L). The step and trace types are check.py's,
and check.verify_trace replays a trace on its own.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .check import Graph, GreedyRule, GreedyStep, GreedyTrace, WeightVector

# R1-R4 in the order tried: (rule, vertex pool: 1 for White, 0 for Blue,
# lowest White degree); the first row with a hit picks its lowest vertex
_DEGREE_RULES = (
    (GreedyRule.R1, 1, 5),
    (GreedyRule.R1, 1, 4),
    (GreedyRule.R2, 0, 5),
    (GreedyRule.R3, 1, 3),
    (GreedyRule.R4, 0, 4),
)


def _is_c5(comp: tuple[int, ...], wdeg) -> bool:
    return len(comp) == 5 and all(wdeg[v] == 2 for v in comp)


def _r5_set(G: Graph, comp: tuple[int, ...]) -> frozenset[int]:
    """Minimum isolating set of the White path or cycle comp, in closed form.

    A closed neighborhood N[v] meets at most four edges here: the two at
    v and one more at each neighbor. So a path on k vertices (k - 1
    edges) needs at least ceil((k - 1)/4) vertices and a cycle (k edges)
    at least ceil(k/4). Walking a path from its lowest end, positions
    2, 6, 10, ... meet that bound; walking a cycle from its lowest
    vertex toward its lower neighbor, positions 3, 7, 11, ... do. The
    last position is clamped to the end of the walk, where it also
    covers the tail (and, on a cycle, the two edges at the start).
    R5 never takes K1 (the set is empty), K2 or C5 (the set breaks
    3|A| <= k), so they are rejected.
    """
    inside = set(comp)
    deg = [sum(u in inside for u in G.adj[v]) for v in comp]
    if max(deg) > 2:
        raise AssertionError("R5 component is not a path or cycle")
    ends = [v for v, d in zip(comp, deg) if d < 2]
    start = prev = cur = min(ends or comp)
    order = [start]
    while True:
        nxt = [u for u in G.adj[cur] if u in inside and u != prev]
        if not nxt or nxt[0] == start:
            break
        prev, cur = cur, nxt[0]
        order.append(cur)
    k = len(comp)
    if len(order) != k or k < 3 or (k == 5 and not ends):
        raise AssertionError(f"R5 component of {k} vertices is not a path or cycle "
                             "other than K1, K2 and C5")
    positions = range(2, k + 1, 4) if ends else range(3, k + 3, 4)
    return frozenset(order[min(i, k - 1)] for i in positions)


def _r6_set(G: Graph, x: int, picked, wdeg) -> frozenset[int]:
    """x plus, per C5 among the picked components, the lowest cycle
    vertex at distance 2 from x's lowest attachment on it."""
    A = {x}
    for comp in picked:
        if _is_c5(comp, wdeg):
            y = min(u for u in G.adj[x] if u in comp)
            A.add(min(v for v in comp if v != y and v not in G.adj[y]))
    return frozenset(A)


def _r7_set(G: Graph, comp: tuple[int, ...]) -> frozenset[int]:
    if len(comp) == 2:
        return frozenset((comp[0],))
    inner = [u for u in G.adj[comp[0]] if u in comp]
    if len(inner) != 2:
        raise AssertionError("endgame component is not a 5-cycle")
    return frozenset(inner)


# White degrees at or above _CAP share a histogram bucket and beta_4
_CAP = 5


class _GreedyEngine:
    """Residual state of one greedy run, updated in the ball around each step.

    wdeg[v] counts the White neighbors of every vertex v; white[v] is 1
    for White, 0 otherwise. Adding A dominates N[A], so colors change
    only within distance 2 of A and White degrees within distance 3.
    Whites never come back and White degrees only fall. A White vertex
    is undominated, so white[v] is all add needs to know of v's
    domination, and the Whites number sum(white_hist), their count per
    capped White degree.

    So a vertex's _DEGREE_RULES row only moves to a later row or to
    none (a White turns Blue into a later row), and once rows 0..r-1
    are empty, row r only loses vertices: R1-R4 scan the rows once,
    upward, each from vertex 0 and resuming at the last hit. After
    that, White components are paths and cycles. None is stored: _comp
    walks one, and the R5 heap holds the lowest vertex of each component
    that was neither a K2 nor a C5 when queued. Components only shrink,
    so an entry stays the lowest vertex of its component while it is
    White; the top entry counts if it is White and its component is
    still neither a K2 nor a C5. Two invariants make this enough:

    1. Whatever survives of a component that lost a vertex lies next to
       a lost vertex: a path inside the component leads from it to a
       lost vertex, and the first one on the path is next to it. So add
       queues only the components through neighbors of lost vertices;
       every other component is unchanged, its entry still in the heap,
       and a failing entry fails until its component is queued again.
    2. R6 is reached only when every component is a K2 or a C5; after
       that, a component is a K2, a C5 or a path of at most four
       vertices. A White vertex always has a White neighbor, so every
       piece has at least two vertices, and two pieces with a lost
       vertex between them take five path or six cycle vertices. So
       no vertex starts touching a second component (one that turns
       Blue touched only its own), and one upward scan, resuming at the
       last hit, finds every R6 pick, also after an add of any set.

    A row of R1-R4 names only a pool and the lowest White degree. Pool
    0 is Blue: a non-White vertex with a White neighbor is dominated, as
    an undominated vertex with an undominated neighbor is White. And
    rows 0..r-1 are empty while row r is scanned, so a hit in R1's
    second tier or in R4 has White degree exactly 4, and in R3 exactly 3.
    R7 walks the component of the lowest White vertex, found by an
    upward scan too. Weights are ints over L, and White degrees are
    clamped to _CAP through the per-run lookup list cap.
    """

    def __init__(self, G: Graph, wv: WeightVector):
        self.G = G
        self.adj = adj = G.adj
        # at the start every vertex with a neighbor is White: wdeg is the degree
        self.wdeg = [len(a) for a in adj]
        self.white = bytearray(1 if d else 0 for d in self.wdeg)
        # min(d, _CAP) for every White degree d the run can see
        self.cap = cap = [min(d, _CAP) for d in range(max(self.wdeg, default=0) + 1)]
        # Whites and Blues per White degree, capped at _CAP
        self.white_hist, self.blue_hist = [0] * (_CAP + 1), [0] * (_CAP + 1)
        for d in self.wdeg:
            if d:
                self.white_hist[cap[d]] += 1
        # the scan position of R1-R4 (row, vertex), of R6 and of R7 (vertex)
        self.r = self.v = self.x = self.w = 0
        # the weights as integers over L, the lcm of their denominators
        self.scale = math.lcm(*(x.denominator for x in wv))
        self.omega, *beta = (int(x * self.scale) for x in wv)
        self.blue_weight = (0, *beta, beta[-1])
        # the R5 heap, from the first select past R1-R4 on
        self.r5: list[int] | None = None

    def select(self) -> tuple[GreedyRule, frozenset[int]]:
        white, wdeg, n = self.white, self.wdeg, self.G.n
        while self.r < len(_DEGREE_RULES):
            rule, pool, lo = _DEGREE_RULES[self.r]
            for v in range(self.v, n):
                if white[v] == pool and wdeg[v] >= lo:
                    self.v = v
                    return rule, frozenset((v,))
            self.r, self.v = self.r + 1, 0
        if self.r5 is None:
            self.r5 = []
            self._queue(range(n))
        r5 = self.r5
        while r5:
            comp = self._comp(r5[0]) if white[r5[0]] else ()
            if len(comp) > 2 and not _is_c5(comp, wdeg):
                return GreedyRule.R5, _r5_set(self.G, comp)
            heapq.heappop(r5)
        for x in range(self.x, n):
            if not white[x] and wdeg[x] >= 2:
                touched = sorted({self._comp(u) for u in self.adj[x] if white[u]})
                if len(touched) >= 2:
                    self.x = x
                    return GreedyRule.R6, _r6_set(self.G, x, touched[:2], wdeg)
        self.x = n
        while not white[self.w]:
            self.w += 1
        return GreedyRule.R7, _r7_set(self.G, self._comp(self.w))

    def _comp(self, s: int) -> tuple[int, ...]:
        """The White component of the White vertex s, sorted."""
        adj, white = self.adj, self.white
        seen = {s}
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if white[w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return tuple(sorted(seen))

    def _queue(self, vertices) -> None:
        """Push onto the R5 heap the lowest vertex of each component
        through the given vertices that is neither a K2 nor a C5."""
        white, wdeg = self.white, self.wdeg
        seen: set[int] = set()
        for s in vertices:
            if white[s] and s not in seen:
                comp = self._comp(s)
                seen.update(comp)
                if len(comp) > 2 and not _is_c5(comp, wdeg):
                    heapq.heappush(self.r5, comp[0])

    def add(self, A) -> tuple[Fraction, int]:
        """Add A to the set; return xi(A) and the number of Whites lost."""
        adj, white, wdeg = self.adj, self.white, self.wdeg
        cap, white_hist, blue_hist = self.cap, self.white_hist, self.blue_hist
        blue_before = blue_hist[:]
        lost = []
        for a in A:
            for v in (a, *adj[a]):
                if white[v]:
                    # dominated now, and a White vertex has a White neighbor
                    white[v] = 0
                    white_hist[cap[wdeg[v]]] -= 1
                    blue_hist[cap[wdeg[v]]] += 1
                    lost.append(v)
        for u in lost:  # grows while it is read; wdeg counts u until its turn
            for w in adj[u]:
                wdeg[w] -= 1
                d = cap[wdeg[w]]
                hist = white_hist if white[w] else blue_hist
                hist[cap[wdeg[w] + 1]] -= 1
                if d:
                    hist[d] += 1
                elif white[w]:
                    # undominated with no undominated neighbor left
                    white[w] = 0
                    lost.append(w)
        xi = Fraction(self.omega * len(lost) + sum(
            w * (b - a) for w, b, a in zip(self.blue_weight, blue_before, blue_hist) if b != a),
            self.scale)
        if self.r5 is not None:
            self._queue(u for v in lost for u in adj[v])
        return xi, len(lost)


def greedy_isolating_set(G: Graph, wv: WeightVector) -> tuple[tuple[int, ...], GreedyTrace]:
    """Run the rules to exhaustion and return (S, trace).

    Always terminates with an isolating S on any graph. The per-step
    xi >= |A| guarantees, and with them |S| <= omega*n, hold when the
    graph meets a variant's degree/girth precondition and wv is
    feasible for that variant's constraint system; otherwise the trace
    is advisory. The trace equals that of the reference greedy in
    tests/oracles.py, which recomputes the whole residual state after
    every step.
    """
    engine = _GreedyEngine(G, wv)
    white_hist, blue_hist = engine.white_hist, engine.blue_hist
    steps: list[GreedyStep] = []
    while any(white_hist):
        rule, A = engine.select()
        if rule >= GreedyRule.R3 and (any(white_hist[4:]) or blue_hist[5]):
            raise AssertionError(f"{rule.name} fired with degrees past the R1/R2 stage")
        if rule >= GreedyRule.R5 and (any(white_hist[3:]) or any(blue_hist[4:])):
            raise AssertionError(f"{rule.name} fired with degrees past the R3/R4 stage")
        xi_A, lost = engine.add(A)
        steps.append(GreedyStep(rule, tuple(sorted(A)), xi_A))
        if not lost:
            raise AssertionError(f"{rule.name} made no progress")
    if any(blue_hist):
        raise AssertionError("non-white endstate must weigh nothing")
    S = tuple(sorted({v for step in steps for v in step.vertices}))
    trace = GreedyTrace(G.n, tuple(steps), S, wv.omega * G.n)
    return S, trace
