"""Constraint systems over (omega, beta1..beta4) and their exact optima.

Each greedy rule needs its worst-case weight drop to cover the size of
the set it picks; writing those worst cases as linear inequalities in
the weights gives a small system per (delta, variant). Minimizing omega
over the system yields the best size ratio the greedy can certify.

Everything is exact rational: rows are built symbolically in delta, and
the optimum is found by a fraction-free integer simplex on the five-row
dual, run lexicographically over (omega, beta1..beta4). The solver also
returns dual multipliers, and check.check_optimality turns them into a
proof of optimality by weak duality that does not trust the solver. The
weight, row and solution types built and solved here are check.py's.

Min-terms in the worst-case analysis, c + k*min(a_1..a_m) >= r with
k > 0, expand into the m rows c + k*a_j >= r; satisfaction of all m is
equivalent to the original inequality.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .check import LinearRow, LPSolution, WeightVector, check_feasible

# the shortest cycle each variant's graphs may have; only the R7 rows
# below differ by variant
MIN_GIRTH = {"general": 3, "triangle-free": 4, "girth5": 5}
VARIANTS = tuple(MIN_GIRTH)


def _row(c0, c1, c2, c3, c4, rhs, tag) -> LinearRow:
    return LinearRow(tuple(Fraction(x) for x in (c0, c1, c2, c3, c4)), Fraction(rhs), tag)


def build_constraints(delta: int, variant: str = "general") -> tuple[LinearRow, ...]:
    """All rows for the given minimum degree and structural variant.

    The shared core covers rules R1-R6; the R7 endgame rows differ by
    variant because the number of outside neighbors a K2 or C5
    component can share shrinks when triangles (or 4-cycles) are
    forbidden. Strict positivity of beta1 is relaxed to beta1 >= 0 here,
    which loses nothing at the optimum: FEASIBLE_PROBE satisfies every
    system, so omega* <= 9/20 < 1/2, and every variant has the row
    2*omega + 2(delta-1)*beta1 >= 1, so beta1 >= (1 - 2*omega*)/(2(delta-1))
    > 0 on the whole optimal face.
    """
    if delta < 3:
        raise ValueError(f"minimum degree must be >= 3, got {delta}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    d = delta
    k = 4 * (d - 3)
    rows = [
        # R1, first tier: white v with >= 5 white neighbors; v goes red
        # and each neighbor drops from omega to at most beta4
        _row(6, 0, 0, 0, -5, 1, "r1-white-degree-ge5"),
        # R1, second tier: exactly 4 white neighbors, and no vertex has
        # more, so each neighbor lands at white degree <= 3
        _row(5, 0, 0, -4, 0, 1, "r1-white-degree-4"),
        # R2: blue x with >= 5 white neighbors; x frees beta4 and >= 5
        # white neighbors drop to at most beta3
        _row(5, 0, 0, -5, 1, 1, "r2-blue-degree-ge5"),
        # R3: white v with exactly 3 white neighbors; the 4(d-3) edges
        # from {v} + neighbors to blues each shave at least eps4
        _row(4, 0, -3, -k, k, 1, "r3-white-degree-3"),
        # R4: blue x with exactly 4 white neighbors
        _row(4, 0, -4, -k, k + 1, 1, "r4-blue-degree-4"),
        # R5: long path/cycle components, per-vertex accounting at cost
        # <= 1/3 chosen per vertex, eps3 per blue edge
        _row(1, 0, -(d - 2), d - 2, 0, Fraction(1, 3), "r5-component-per-vertex"),
        # R6: blue x spanning two components, by component shapes
        _row(4, 0, 1, 0, 0, 1, "r6-two-k2"),
        _row(7, 0, 1, 0, 0, 2, "r6-k2-c5"),
        _row(10, 0, 1, 0, 0, 3, "r6-two-c5"),
    ]
    if variant == "general":
        rows += [
            # R7 on K2: 2(d-1) edges to blues, min(beta1, beta2/2) each
            _row(2, 2 * (d - 1), 0, 0, 0, 1, "r7-k2-min-beta1"),
            _row(2, 0, d - 1, 0, 0, 1, "r7-k2-min-beta2"),
            # R7 on C5: 5(d-2) edges to blues, min over beta_i/i
            _row(5, 5 * (d - 2), 0, 0, 0, 2, "r7-c5-min-beta1"),
            _row(5, 0, Fraction(5 * (d - 2), 2), 0, 0, 2, "r7-c5-min-beta2"),
            _row(5, 0, 0, Fraction(5 * (d - 2), 3), 0, 2, "r7-c5-min-beta3"),
        ]
    elif variant == "triangle-free":
        rows += [
            # no triangles: the blues over a K2 are pairwise-distinct
            # per endpoint, each worth a full beta1
            _row(2, 2 * (d - 1), 0, 0, 0, 1, "r7-k2-tf"),
            # a blue sees <= 2 vertices of a C5
            _row(5, 5 * (d - 2), 0, 0, 0, 2, "r7-c5-tf-min-beta1"),
            _row(5, 0, Fraction(5 * (d - 2), 2), 0, 0, 2, "r7-c5-tf-min-beta2"),
        ]
    else:
        rows += [
            # girth >= 5: every blue over the endgame components has
            # one white neighbor
            _row(2, 2 * (d - 1), 0, 0, 0, 1, "r7-k2-girth5"),
            _row(5, 5 * (d - 2), 0, 0, 0, 2, "r7-c5-girth5"),
        ]
    rows += [
        _row(1, 0, 0, 0, -1, 0, "chain-omega-ge-beta4"),
        _row(0, 0, 0, -1, 1, 0, "chain-beta4-ge-beta3"),
        _row(0, 0, -1, 1, 0, 0, "chain-beta3-ge-beta2"),
        _row(0, -1, 1, 0, 0, 0, "chain-beta2-ge-beta1"),
        _row(0, 1, 0, 0, 0, 0, "chain-beta1-nonneg"),
        _row(0, 0, -1, 2, -1, 0, "step-eps4-le-eps3"),
        _row(0, -1, 2, -1, 0, 0, "step-eps3-le-eps2"),
        _row(0, 2, -1, 0, 0, 0, "step-eps2-le-beta1"),
    ]
    return tuple(rows)


# Feasible for every delta >= 3 and every variant (a test checks it
# exactly for delta = 3..299; every solve re-checks it), so omega* <= 9/20.
FEASIBLE_PROBE = WeightVector(Fraction(9, 20), Fraction(1, 10), Fraction(1, 10),
                              Fraction(1, 10), Fraction(1, 10))


def solve_min_omega(rows: tuple[LinearRow, ...]) -> LPSolution:
    """Lexicographic minimum of (omega, beta1..beta4) by exact simplex.

    The primal is min c.x over A x >= b, x >= 0 (the chain rows already
    imply x >= 0), with the lexicographic objective written as
    c(e) = e_omega + e*e_beta1 + ... + e^4*e_beta4 for an infinitesimal
    e > 0. The simplex runs on its dual, max b.y over A^T y + s = c(e),
    y, s >= 0: five rows, one per weight, whose slack columns s are a
    feasible basis from the start since c(e) >= 0, so there is no phase
    1. The right-hand side is kept as its five e-coefficients; they start
    as the identity and always equal D*B^-1 (D below), as do the s
    columns, so one 5x5 block serves as both. Its rows are independent,
    so the lexicographic ratio test never ties, the objective rises at
    every pivot and the method cannot cycle (Dantzig, Orden and Wolfe
    1955).

    The simplex multipliers of the dual tableau are the primal point x:
    the reduced cost of column y_i is b_i - a_i.x and that of s_k is
    -x_k. The first column with a positive reduced cost, a row that x
    violates or a negative coordinate of x, enters. When none is left, x
    is feasible and optimal for c(e) at every small e > 0, so it is the
    lexicographically smallest optimal point, and it is the witness.

    The tableau holds integers only (fraction-free pivoting: Edmonds
    1967, Bareiss 1968). Column y_i is scaled by l_i, the lcm of row i's
    denominators, which makes every entry an integer; the scale is
    positive, so it changes no sign and no ratio-test argmin, and y_i is
    l_i times the scaled variable. With D the last pivot (1 at the
    start), every stored entry, reduced costs included, is D times the
    true entry of the scaled tableau. A pivot on (r, c) keeps row r and
    sets every other line to (t*p - f*u) // D with p = T[r][c], then
    D = p. Each division is exact: by Sylvester's identity the new
    entries are minors of the integer starting tableau (bordered by its
    reduced-cost line). Every pivot is positive, so D > 0 and each sign
    is the true sign.

    The dual is y at e = 0. All five coordinates of the witness are
    positive (see build_constraints; this rests on the probe check
    below), so by complementary slackness every s_k is nonbasic and
    zero: A^T y = c(e) exactly, so A^T y = e_omega at e = 0, y >= 0
    since every row of B^-1 is lexicographically positive, and
    b.y = c(0).x = omega*. So y certifies omega* by weak duality
    (check_optimality). The final reduced cost of y_i is
    l_i*(b_i - a_i.x)*D, so the tight rows are the y columns where it is
    zero.
    """
    if not check_feasible(rows, FEASIBLE_PROBE)[0]:
        raise AssertionError("constraint system rejected the feasible probe")
    m = len(rows)
    scale = [lcm(row.rhs.denominator, *(c.denominator for c in row.coeffs)) for row in rows]
    # row k: column y_i holds l_i times row i's coefficient of weight k,
    # then the 5x5 block that is both the s columns and the rhs
    # e-coefficients; row 5 holds the reduced costs, ending in -D*x
    cols = [[c.numerator * (l // c.denominator) for c in (*row.coeffs, row.rhs)]
            for row, l in zip(rows, scale)]
    T = [[col[k] for col in cols] + [int(j == k) for j in range(5)] for k in range(6)]
    reduced = T[5]
    basis = list(range(m, m + 5))
    D = 1
    while (col := next((j for j, d in enumerate(reduced) if d > 0), None)) is not None:
        # the probe is feasible, so the dual is bounded and some row qualifies;
        # ratios compare by cross-multiplying, as T[q][col], T[r][col] > 0
        r = None
        for q in range(5):
            if T[q][col] > 0 and (r is None or [t * T[r][col] for t in T[q][m:]]
                                  < [t * T[q][col] for t in T[r][m:]]):
                r = q
        prow, p = T[r], T[r][col]
        for line in (*T[:r], *T[r + 1:]):
            f = line[col]
            line[:] = [(t * p - f * u) // D for t, u in zip(line, prow)]
        D = p
        basis[r] = col
    witness = WeightVector(*(Fraction(-d, D) for d in reduced[m:]))
    dual = [Fraction(0)] * m
    for line, b in zip(T, basis):
        if b < m:
            dual[b] = Fraction(scale[b] * line[m], D)
    return LPSolution(witness, tuple(i for i in range(m) if reduced[i] == 0), tuple(dual))
