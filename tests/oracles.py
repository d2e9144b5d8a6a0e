"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: subset enumeration, direct edge
scans, explicit triangle checks, row slacks summed in Fraction, every
5-row basis of the weight LP, the primal two-phase simplex with
artificial columns and Bland's rule, the dual simplex on a Fraction
tableau that renormalizes every entry, a graph6 codec that handles one
bit at a time, the residual coloring and its weight computed from
scratch, a greedy and a trace replay that recompute the whole residual
state after every step, the greedy's R5 set from a relabeled copy of
its component, and the exact solver as a recursion over frozensets
without a packing bound and as the bitmask search that builds every
node's alive-edge list, and the girth by one BFS per root. Slow but
trustworthy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import inf, lcm
from typing import Iterable

from isobound import (ExactResult, Graph, Graph6ParseError, GreedyRule, GreedyStep,
                      GreedyTrace, LinearRow, LPSolution, RowViolation, SearchBudgetExceeded,
                      TraceVerification, WeightVector, exact, is_isolating)
from isobound.check import _G6_HEADER, MAX_ORDER
from isobound.graph import _encode_size
from isobound.lpweights import FEASIBLE_PROBE


def closed_neighborhood(G: Graph, S) -> set[int]:
    out = set(S)
    for v in S:
        out.update(G.adj[v])
    return out


def remove_vertices(G: Graph, vs: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """G minus the given vertices, relabelled 0..k-1, with the new-to-old
    index map. The package isolates vertices instead of deleting them."""
    drop = set(vs)
    keep = tuple(v for v in range(G.n) if v not in drop)
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in G.edges() if u in index and v in index]
    return Graph(len(keep), edges), keep


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
        for w in G.adj[u]:
            if w > v and w in G.adj[v]:
                out.append((u, v, w))
    return out


def girth(G: Graph) -> int | None:
    """Length of a shortest cycle, or None if the graph is acyclic: the
    slow path that in_class replaces in the CLI's precondition.

    One BFS per root; the minimum over roots of the first non-tree edge
    closure is exact for unweighted graphs. u closes only edges to vertices
    no nearer the root: one to a nearer w is u's tree edge or w closed it.
    """
    n, adj = G.n, G.adj
    best = n + 1  # longer than any cycle
    dist = [-1] * n  # shared by all roots: each BFS resets what it set
    for root in range(n):
        dist[root] = 0
        queue = [root]
        for u in queue:  # grows while it is read
            du = dist[u]
            if 2 * du >= best:
                break
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du + 1
                    queue.append(v)
                elif dist[v] >= du and du + dist[v] + 1 < best:
                    best = du + dist[v] + 1
        for v in queue:
            dist[v] = -1
    return best if best <= n else None


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def row_slack(row: LinearRow, point: tuple[Fraction, ...]) -> Fraction:
    """sum(coeffs * point) - rhs in Fraction."""
    return sum((c * x for c, x in zip(row.coeffs, point)), -row.rhs)


def check_feasible_fraction(rows: tuple[LinearRow, ...], wv: WeightVector
                            ) -> tuple[bool, tuple[RowViolation, ...]]:
    """Every row's slack summed in Fraction: the slow path that check.py's
    integer check_feasible replaces."""
    point = tuple(wv)
    slacks = ((i, row, row_slack(row, point)) for i, row in enumerate(rows))
    bad = tuple(RowViolation(i, row, s) for i, row, s in slacks if s < 0)
    return (not bad, bad)


def _integer_rows(rows: tuple[LinearRow, ...]) -> list[tuple[tuple[int, ...], int]]:
    out = []
    for row in rows:
        scale = lcm(*(c.denominator for c in row.coeffs), row.rhs.denominator)
        coeffs = tuple(int(c * scale) for c in row.coeffs)
        out.append((coeffs, int(row.rhs * scale)))
    return out


def _solve_basis(rows: list[tuple[tuple[int, ...], int]], idx: tuple[int, ...]):
    # fraction-free elimination on the 5x5 system formed by the chosen
    # rows taken with equality; returns None when singular
    M = [list(rows[i][0]) + [rows[i][1]] for i in idx]
    denom = 1
    for col in range(5):
        piv = next((r for r in range(col, 5) if M[r][col]), None)
        if piv is None:
            return None
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
        for r in range(col + 1, 5):
            for c in range(col + 1, 6):
                M[r][c] = (M[r][c] * M[col][col] - M[r][col] * M[col][c]) // denom
            M[r][col] = 0
        denom = M[col][col]
    x = [Fraction(0)] * 5
    for r in range(4, -1, -1):
        acc = Fraction(M[r][5])
        for c in range(r + 1, 5):
            acc -= M[r][c] * x[c]
        x[r] = acc / M[r][r]
    return tuple(x)


def solve_min_omega_by_enumeration(rows: tuple[LinearRow, ...]) -> LPSolution:
    """Minimize omega by exhaustive basic-point enumeration.

    A feasible region with no line attains its finite optimum at a
    vertex, and every vertex solves five independent tight rows, so all
    C(m, 5) bases are solved and checked. Among the optimal vertices
    the reported witness prefers beta1 > 0, then the lexicographically
    smallest coordinates. No dual multipliers are produced.
    """
    # the region is never empty for these systems: a huge omega with
    # small equal betas satisfies every row
    probe = WeightVector(Fraction(100), Fraction(1, 100), Fraction(1, 100),
                         Fraction(1, 100), Fraction(1, 100))
    if not check_feasible_fraction(rows, probe)[0]:
        raise AssertionError("constraint system rejected the large-omega probe")

    irows = _integer_rows(rows)
    n_rows = len(irows)
    best_omega: Fraction | None = None
    optimal_points: set[tuple[Fraction, ...]] = set()
    for idx in combinations(range(n_rows), 5):
        point = _solve_basis(irows, idx)
        if point is None:
            continue
        if best_omega is not None and point[0] > best_omega:
            continue
        if any(sum(c * x for c, x in zip(coeffs, point)) < rhs for coeffs, rhs in irows):
            continue
        if best_omega is None or point[0] < best_omega:
            best_omega = point[0]
            optimal_points = {point}
        else:
            optimal_points.add(point)
    if best_omega is None:
        raise AssertionError("no basis gives a feasible vertex")
    chosen = min(optimal_points, key=lambda p: (p[1] <= 0, p))
    witness = WeightVector(*chosen)
    tight = tuple(i for i, row in enumerate(rows) if row_slack(row, chosen) == 0)
    return LPSolution(witness, tight, ())


def solve_min_omega_fraction(rows: tuple[LinearRow, ...]) -> LPSolution:
    """Lexicographic minimum of (omega, beta1..beta4) by exact simplex.

    The primal is min c.x over A x >= b, x >= 0 (the chain rows already
    imply x >= 0), with the lexicographic objective written as
    c(e) = e_omega + e*e_beta1 + ... + e^4*e_beta4 for an infinitesimal
    e > 0. The simplex runs on its dual, max b.y over A^T y + s = c(e),
    y, s >= 0: five rows, one per weight, whose slack columns s are a
    feasible basis from the start since c(e) >= 0, so there is no phase
    1. The right-hand side is kept as its five e-coefficients; they start
    as the identity and always equal B^-1, as do the s columns, so one
    5x5 block serves as both. Its rows are independent, so the
    lexicographic ratio test never ties, the objective rises at every
    pivot and the method cannot cycle (Dantzig, Orden and Wolfe 1955).

    The simplex multipliers of the dual tableau are the primal point x:
    the reduced cost of column y_i is b_i - a_i.x and that of s_k is
    -x_k. The first column with a positive reduced cost, a row that x
    violates or a negative coordinate of x, enters. When none is left, x
    is feasible and optimal for c(e) at every small e > 0, so it is the
    lexicographically smallest optimal point, and it is the witness.

    The dual is y at e = 0. All five coordinates of the witness are
    positive (see build_constraints; this rests on the probe check
    below), so by complementary slackness every s_k is nonbasic and
    zero: A^T y = c(e) exactly, so A^T y = e_omega at e = 0, y >= 0
    since every row of B^-1 is lexicographically positive, and
    b.y = c(0).x = omega*. So y certifies omega* by weak duality
    (check_optimality).
    """
    if not check_feasible_fraction(rows, FEASIBLE_PROBE)[0]:
        raise AssertionError("constraint system rejected the feasible probe")
    m = len(rows)
    # row k: column y_i holds row i's coefficient of weight k, then the
    # 5x5 block that is both the s columns and the rhs e-coefficients
    T = [[row.coeffs[k] for row in rows] + [Fraction(j == k) for j in range(5)]
         for k in range(5)]
    reduced = [row.rhs for row in rows] + [Fraction(0)] * 5  # ends in -x
    basis = list(range(m, m + 5))
    while (col := next((j for j, d in enumerate(reduced) if d > 0), None)) is not None:
        # the probe is feasible, so the dual is bounded and some row qualifies
        r = min((r for r in range(5) if T[r][col] > 0),
                key=lambda r: [t / T[r][col] for t in T[r][m:]])
        p = T[r][col]
        T[r] = prow = [t / p for t in T[r]]
        for line in (*T[:r], *T[r + 1:], reduced):
            f = line[col]
            if f:
                line[:] = [t - f * u for t, u in zip(line, prow)]
        basis[r] = col
    witness = WeightVector(*(-d for d in reduced[m:]))
    dual = [Fraction(0)] * m
    for line, b in zip(T, basis):
        if b < m:
            dual[b] = line[m]
    tight = tuple(i for i, row in enumerate(rows) if row_slack(row, tuple(witness)) == 0)
    return LPSolution(witness, tight, tuple(dual))


def _pivot(T: list[list[Fraction]], basis: list[int], D: list[list[Fraction]],
           r: int, col: int) -> None:
    prow = T[r]
    p = prow[col]
    prow[:] = [t / p for t in prow]
    nonzero = [(j, t) for j, t in enumerate(prow) if t]
    for row in (*T[:r], *T[r + 1:], *D):
        f = row[col]
        if f:
            for j, t in nonzero:
                row[j] -= f * t
    basis[r] = col


def _minimize(T: list[list[Fraction]], basis: list[int],
              costs: list[list[int]]) -> list[list[Fraction]]:
    """Pivot to a basis that minimizes the costs lexicographically.

    A column improves when its reduced costs, read in priority order,
    are lexicographically negative (the objective costs[0] + e*costs[1]
    + e^2*costs[2] + ... for an infinitesimal e > 0). Bland's rule
    (Bland 1977) picks the pivot: the lowest-index improving column
    enters and, among the rows of minimum ratio, the one whose basic
    column has the lowest index leaves, so degenerate pivots cannot
    cycle. Returns the final reduced-cost rows, one per objective, each
    with -(optimal value) as its last entry.
    """
    D = []
    for cost in costs:
        d = [Fraction(c) for c in cost] + [Fraction(0)]
        for row, b in zip(T, basis):
            if cost[b]:
                for j, t in enumerate(row):
                    d[j] -= cost[b] * t
        D.append(d)
    while True:
        col = next((j for j in range(len(costs[0]))
                    if next((d[j] for d in D if d[j]), 0) < 0), None)
        if col is None:
            return D
        ratios = [(row[-1] / row[col], basis[i], i) for i, row in enumerate(T) if row[col] > 0]
        if not ratios:
            raise AssertionError("objective is unbounded below on the constraint system")
        _pivot(T, basis, D, min(ratios)[2], col)


def solve_min_omega_two_phase(rows: tuple[LinearRow, ...]) -> LPSolution:
    """Lexicographic minimum of (omega, beta1..beta4) by exact simplex.

    The simplex works in standard form, x >= 0; the chain rows already
    imply that, so nothing feasible is cut off. Each row a.x >= b gets a
    surplus column, a.x - s = b, and an artificial column when b > 0
    (rows with b <= 0 start with s basic). Phase 1 drives the
    artificials to zero; phase 2 minimizes omega, then beta1..beta4 in
    turn over the optimal face of the objectives before them. The
    witness is the lexicographically smallest optimal point, a vertex;
    beta1 > 0 there (see build_constraints).

    The dual is y_i = the omega reduced cost of surplus column i, >= 0
    since the final basis is optimal for omega alone. Every optimal
    point has all five coordinates positive, so all five x columns are
    basic, their reduced costs e_omega - A^T y vanish, and y certifies
    omega* by weak duality.
    """
    if not check_feasible_fraction(rows, FEASIBLE_PROBE)[0]:
        raise AssertionError("constraint system rejected the feasible probe")
    m = len(rows)
    n_real = 5 + m  # x columns, then surplus columns; artificials follow
    T: list[list[Fraction]] = []
    basis: list[int] = []
    for i, row in enumerate(rows):
        line = [*row.coeffs, *(Fraction(-(j == i)) for j in range(m)),
                *(Fraction(j == i and row.rhs > 0) for j in range(m)), row.rhs]
        if row.rhs > 0:
            basis.append(n_real + i)
        else:
            line = [-t for t in line]
            basis.append(5 + i)
        T.append(line)

    D = _minimize(T, basis, [[0] * n_real + [1] * m])
    if D[0][-1]:
        raise AssertionError("phase 1 found no feasible point, yet the probe is feasible")
    for r, b in enumerate(basis):
        if b >= n_real:
            # a basic artificial sits at zero; [A | -I] has full row rank,
            # so its row has a nonzero entry in a real column to pivot on
            _pivot(T, basis, D, r, next(j for j in range(n_real) if T[r][j]))
    T = [row[:n_real] + row[-1:] for row in T]

    D = _minimize(T, basis, [[int(j == k) for j in range(n_real)] for k in range(5)])
    point = [Fraction(0)] * 5
    for row, b in zip(T, basis):
        if b < 5:
            point[b] = row[-1]
    witness = WeightVector(*point)
    tight = tuple(i for i, row in enumerate(rows) if row_slack(row, tuple(witness)) == 0)
    return LPSolution(witness, tight, tuple(D[0][5:n_real]))


def emit_graph6_bitwise(G: Graph) -> str:
    """Encode as a graph6 string (no header, no trailing newline)."""
    out = [_encode_size(G.n)]
    acc = 0
    nbits = 0
    for j in range(1, G.n):
        for i in range(j):
            acc = (acc << 1) | (1 if j in G.adj[i] else 0)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc, nbits = 0, 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def parse_graph6_bitwise(text: str) -> Graph:
    """Decode one graph6 string one bit at a time. Its error offsets count
    after the stripped whitespace and the header."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise Graph6ParseError("empty graph6 input", 0)
    for i, ch in enumerate(s):
        if not (63 <= ord(ch) <= 126):
            raise Graph6ParseError(f"invalid graph6 byte {ord(ch)}", i)
    if s[0] != chr(126):
        n = ord(s[0]) - 63
        body_at = 1
    else:
        if len(s) < 4:
            raise Graph6ParseError("truncated multi-byte size field", len(s))
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        if s[1] == chr(126) or n > MAX_ORDER:
            raise Graph6ParseError(f"graph6 sizes above {MAX_ORDER} are not supported", 0)
        body_at = 4
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - body_at < nbytes:
        raise Graph6ParseError(
            f"body too short: need {nbytes} bytes for n={n}", len(s)
        )
    if len(s) - body_at > nbytes:
        raise Graph6ParseError("trailing bytes after graph body", body_at + nbytes)
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            byte = ord(s[body_at + bit // 6]) - 63
            if (byte >> (5 - bit % 6)) & 1:
                edges.append((i, j))
            bit += 1
    # padding bits in the final byte must be zero
    if nbits % 6:
        tail = ord(s[body_at + nbytes - 1]) - 63
        if tail & ((1 << (6 - nbits % 6)) - 1):
            raise Graph6ParseError("nonzero padding bits", body_at + nbytes - 1)
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# the residual coloring of a graph relative to a partial isolating set D,
# recomputed from scratch:
#
# * White: outside N[D] and adjacent to another vertex outside N[D], so
#   it still carries an uncovered edge.
# * Blue: inside N[D] but adjacent to a White vertex.
# * Red: everything else. Settled, weight zero.
#
# White costs omega, a Blue vertex costs beta_i for its White degree i
# (beta_4 for i >= 4), Red costs nothing; xi is the decrease of that
# total when D is extended.


class Color(Enum):
    WHITE = "white"
    BLUE = "blue"
    RED = "red"


@dataclass(frozen=True)
class ResidualState:
    """Colors and degrees of a graph relative to a partial solution.

    white_degree[v] counts the White neighbors of every vertex v.
    """

    graph: Graph
    color: tuple[Color, ...]
    white_degree: tuple[int, ...]
    whites: tuple[int, ...]
    blues: tuple[int, ...]

    def delta_w(self) -> int:
        """Max number of White neighbors over White vertices (0 if none)."""
        return max((self.white_degree[v] for v in self.whites), default=0)

    def delta_b(self) -> int:
        """Max number of White neighbors over Blue vertices (0 if none)."""
        return max((self.white_degree[v] for v in self.blues), default=0)

    def white_components(self) -> list[tuple[int, ...]]:
        """Connected components of the White-induced subgraph.

        Each component is a sorted vertex tuple; components are ordered
        by their lowest vertex.
        """
        color = self.color
        seen: set[int] = set()
        comps = []
        for start in self.whites:
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            stack = [start]
            while stack:
                u = stack.pop()
                for w in self.graph.adj[u]:
                    if color[w] is Color.WHITE and w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return comps


def _dominated(G: Graph, S: Iterable[int]) -> set[int]:
    """N[S], rejecting vertices outside the graph."""
    out: set[int] = set()
    for v in S:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} is outside [0, {G.n})")
        out.add(v)
        out.update(G.adj[v])
    return out


def compute_residual(G: Graph, D: Iterable[int]) -> ResidualState:
    """Color every vertex relative to D, from scratch, in one sweep.

    A vertex outside N[D] is White iff it has a neighbor outside N[D],
    and all such neighbors are then White too. So a White vertex's White
    degree counts its undominated neighbors, each dominated neighbor of
    it gains one White neighbor, and every other vertex outside N[D] has
    only dominated neighbors: Blue is exactly "dominated with a White
    neighbor".
    """
    dominated = _dominated(G, D)
    wdeg = [0] * G.n
    whites = []
    for v in range(G.n):
        if v in dominated:
            continue
        hit = dominated.intersection(G.adj[v])
        if len(hit) < len(G.adj[v]):
            whites.append(v)
            wdeg[v] = len(G.adj[v]) - len(hit)
            for u in hit:
                wdeg[u] += 1
    color = [Color.RED] * G.n
    for v in whites:
        color[v] = Color.WHITE
    blues = [v for v in range(G.n) if wdeg[v] and color[v] is Color.RED]
    for v in blues:
        color[v] = Color.BLUE
    return ResidualState(G, tuple(color), tuple(wdeg), tuple(whites), tuple(blues))


def engine_fields(state: ResidualState) -> tuple:
    """What the package's greedy engine keeps, read off state: the White
    flags (1 for White, 0 otherwise), the White degrees, and the Whites
    and the Blues counted per White degree capped at 5."""
    white = bytearray(len(state.color))
    for v in state.whites:
        white[v] = 1
    hists = ([0] * 6, [0] * 6)
    for hist, pool in zip(hists, (state.whites, state.blues)):
        for v in pool:
            hist[min(state.white_degree[v], 5)] += 1
    return (white, list(state.white_degree), *hists)


def total_weight(state: ResidualState, wv: WeightVector) -> Fraction:
    """Sum of vertex weights: omega per White, beta_i per Blue, 0 per Red."""
    counts = [0, 0, 0, 0]
    for v in state.blues:
        counts[min(state.white_degree[v], 4) - 1] += 1
    total = wv.omega * len(state.whites)
    for beta, k in zip((wv.beta1, wv.beta2, wv.beta3, wv.beta4), counts):
        if k:
            total += beta * k
    return total


def xi(G: Graph, D: Iterable[int], A: Iterable[int], wv: WeightVector) -> Fraction:
    """Weight decrease caused by extending D with A, both states recomputed."""
    Dset = frozenset(D)
    Aset = frozenset(A)
    overlap = Aset & Dset
    if overlap:
        raise ValueError(f"A intersects D at {sorted(overlap)}")
    before = total_weight(compute_residual(G, Dset), wv)
    after = total_weight(compute_residual(G, Dset | Aset), wv)
    return before - after


def _walk_order(F: Graph, start: int) -> list[int]:
    # traverse a path or cycle from start, preferring the lower-index
    # neighbor at the first step for determinism
    order = [start]
    prev = -1
    cur = start
    while True:
        nxt = [u for u in F.adj[cur] if u != prev]
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
    if any(len(F.adj[v]) > 2 for v in range(n)):
        raise ValueError("input must be a single simple path or cycle")
    ends = [v for v in range(n) if len(F.adj[v]) < 2]
    order = _walk_order(F, min(ends, default=0))
    if len(order) != n:
        raise ValueError("input must be a single simple path or cycle")
    positions = range(2, n + 1, 4) if ends else range(3, n + 3, 4)
    return tuple(sorted(order[min(i, n - 1)] for i in positions))


# R1-R4 as the rule list of the greedy module's docstring gives them, in
# the order tried: (rule, color, lowest and highest White degree)
DEGREE_RULES = (
    (GreedyRule.R1, Color.WHITE, 5, inf),
    (GreedyRule.R1, Color.WHITE, 4, 4),
    (GreedyRule.R2, Color.BLUE, 5, inf),
    (GreedyRule.R3, Color.WHITE, 3, 3),
    (GreedyRule.R4, Color.BLUE, 4, 4),
)


def degree_row(state: ResidualState, v: int) -> int:
    """Index of the first DEGREE_RULES row that v meets, -1 for none."""
    return next((r for r, (_, color, lowest, highest) in enumerate(DEGREE_RULES)
                 if state.color[v] is color and lowest <= state.white_degree[v] <= highest),
                -1)


def _is_cycle5(F: Graph) -> bool:
    return F.n == 5 and all(len(F.adj[v]) == 2 for v in range(5))


def select_desirable(state: ResidualState) -> tuple[GreedyRule, frozenset[int]]:
    """First applicable rule and its set, with lowest-index tie-breaking.

    This is the rule specification read off one from-scratch state;
    greedy_isolating_set makes the same choices incrementally. No
    variant enters here: the variant only decides which weight vector
    makes the steps pay for themselves. R6 takes the two touched
    components with the lowest vertices and, on each C5 among them,
    walks the cycle from x's lowest attachment and takes the lower of
    the two vertices two steps away.
    """
    if not state.whites:
        raise ValueError("no white vertex: the current set is already isolating")
    G = state.graph
    hits = [(r, v) for v in range(G.n) if (r := degree_row(state, v)) >= 0]
    if hits:
        r, v = min(hits)
        return DEGREE_RULES[r][0], frozenset((v,))

    # white components are now paths and cycles (max white degree <= 2);
    # each one as its own graph, with the new-to-old index map
    comps = state.white_components()
    subs = [remove_vertices(G, set(range(G.n)).difference(comp)) for comp in comps]
    for sub, back in subs:
        if sub.n != 2 and not _is_cycle5(sub):
            return GreedyRule.R5, frozenset(back[i] for i in path_cycle_min_isolating(sub))

    comp_id = {v: idx for idx, comp in enumerate(comps) for v in comp}
    for x in state.blues:
        touched = sorted({comp_id[u] for u in G.adj[x] if u in comp_id})
        if len(touched) >= 2:
            A = {x}
            for sub, back in (subs[i] for i in touched[:2]):
                if _is_cycle5(sub):
                    y = min(u for u in G.adj[x] if u in back)
                    cycle = _walk_order(sub, back.index(y))
                    A.add(back[min(cycle[2], cycle[3])])
            return GreedyRule.R6, frozenset(A)
    # the lowest component: a K2 gives its lower endpoint, a C5 the two
    # neighbors of its lowest vertex
    sub, back = subs[0]
    return GreedyRule.R7, frozenset(back[i] for i in (sub.adj[0] if sub.n == 5 else (0,)))


def greedy_isolating_set_from_scratch(G: Graph, wv: WeightVector):
    """The greedy with a fresh compute_residual and total_weight after
    every step; quadratic, and the reference for greedy_isolating_set."""
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


def verify_trace_from_scratch(G: Graph, trace: GreedyTrace, wv: WeightVector):
    """Trace replay with a fresh compute_residual after every step. It
    turns each step into a set, so a step that repeats a vertex still
    passes partition_ok here."""
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


# ---------------------------------------------------------------------------
# exact solver: the recursive branch and bound over frozensets, with a
# dom counter per vertex and no lower bound beyond |chosen| + 1; the
# bitmask branch and bound that builds every node's alive-edge list; and
# the max-coverage seed that rescans every surviving edge per vertex, or
# every vertex's edge bitmask per pick


def greedy_cover_seed_by_scan(G: Graph, closed: list[frozenset[int]]) -> list[int]:
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


def greedy_cover_seed_by_rescan(G: Graph) -> list[int]:
    # the same seed on edge bitmasks, rescoring every vertex per pick:
    # O(|S|·n·m/64) word operations, about 0.6 s at n = 2,000
    hits = [0] * G.n
    for i, (a, b) in enumerate(G.edges()):
        for v in {a, b, *G.adj[a], *G.adj[b]}:
            hits[v] |= 1 << i
    alive = (1 << G.num_edges) - 1
    S: list[int] = []
    while alive:
        gains = [(alive & h).bit_count() for h in hits]
        S.append(gains.index(max(gains)))
        alive &= ~hits[S[-1]]
    return S


def exact_isolation_number_recursive(G: Graph, size_cap: int | None = None) -> ExactResult:
    """Branch-and-bound over closed neighborhoods of uncovered edges.

    Any isolating set must meet N[u] ∪ N[v] for every surviving edge uv,
    so branching over the candidates of one uncovered edge is complete.
    Candidates already tried at a node are banned in later siblings,
    which partitions the solution space and kills duplicate work.
    Intended for n <= 20 or so; raises SearchBudgetExceeded beyond the
    node budget of the package's solver.
    """
    if size_cap is not None and size_cap < 0:
        raise ValueError(f"size_cap must be >= 0, got {size_cap}")
    budget = exact.NODE_BUDGET
    n = G.n
    # a set display sizes each frozenset's hash table to its elements;
    # built straight from a tuple the table is twice as large, and the
    # unions in search walk the whole table
    closed = [frozenset({v, *G.adj[v]}) for v in range(n)]
    edges = list(G.edges())
    decision_mode = size_cap is not None

    if decision_mode:
        best_size = size_cap + 1
        best_witness: tuple[int, ...] | None = None
    else:
        seed = greedy_cover_seed_by_scan(G, closed)
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
        return ExactResult(None, None, explored)
    if not is_isolating(G, best_witness):
        raise AssertionError("search returned a non-isolating witness")
    return ExactResult(None if decision_mode else len(best_witness), best_witness, explored)


def exact_isolation_number_by_lists(G: Graph, size_cap: int | None = None) -> ExactResult:
    """The bitmask branch and bound that builds each node's alive-edge list.

    The package's search decides nodes within two of the incumbent from
    per-vertex edge masks instead; this is the search it replaced, with
    the greedy packing bound at every node and, two below the incumbent,
    the filter that keeps only the candidates common to all alive edges.
    It branches on every unbanned candidate, with no dominance rule, so
    the package must agree with it on iota, on each decision answer and
    on seed_size, with an isolating witness and no more nodes.
    """
    if size_cap is not None and size_cap < 0:
        raise ValueError(f"size_cap must be >= 0, got {size_cap}")
    budget = exact.NODE_BUDGET
    n = G.n
    closed = [sum(1 << u for u in (v, *G.adj[v])) for v in range(n)]
    edges = [closed[a] | closed[b] for a, b in G.edges()]
    decision_mode = size_cap is not None

    best_witness = None if decision_mode else tuple(sorted(greedy_cover_seed_by_rescan(G)))
    best_size = size_cap + 1 if decision_mode else len(best_witness)
    seed_size = None if decision_mode else best_size

    explored = updates = 0
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
                updates += 1
                if decision_mode:
                    break
        else:
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
                if len(chosen) + 2 == best_size:
                    for cand in alive:
                        pick &= cand
                if pick:
                    stack.append([alive, pick, banned, packing])
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
    iota = None if decision_mode else len(best_witness)
    return ExactResult(iota, best_witness, explored, seed_size, updates)
