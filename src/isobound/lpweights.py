"""Constraint systems over (omega, beta1..beta4) and their exact optima.

Each greedy rule needs its worst-case weight drop to cover the size of
the set it picks; writing those worst cases as linear inequalities in
the weights gives a small system per (delta, variant). Minimizing omega
over the system yields the best size ratio the greedy can certify.

Everything is exact rational: rows are built symbolically in delta, the
optimum is found by enumerating 5-row bases (a feasible region with no
line attains its finite optimum at a vertex, and every vertex is the
solution of five independent tight rows), and each candidate vertex is
solved with fraction-free integer elimination.

Min-terms in the worst-case analysis, c + k*min(a_1..a_m) >= r with
k > 0, expand into the m rows c + k*a_j >= r; satisfaction of all m is
equivalent to the original inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import NamedTuple

from .residual import WEIGHT_NAMES, WeightVector

VARIANTS = ("general", "triangle-free", "girth5")


@dataclass(frozen=True)
class LinearRow:
    """One inequality sum(coeffs * (omega, beta1..beta4)) >= rhs."""

    coeffs: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]
    rhs: Fraction
    tag: str

    def evaluate(self, point: tuple[Fraction, ...]) -> Fraction:
        return sum((c * x for c, x in zip(self.coeffs, point)), Fraction(0))

    def slack(self, point: tuple[Fraction, ...]) -> Fraction:
        return self.evaluate(point) - self.rhs

    def satisfied(self, point: tuple[Fraction, ...]) -> bool:
        return self.slack(point) >= 0

    def __str__(self):
        terms = []
        for c, name in zip(self.coeffs, WEIGHT_NAMES):
            if c:
                terms.append(f"{c}*{name}")
        return f"{' + '.join(terms) or '0'} >= {self.rhs}"


@dataclass(frozen=True)
class ConstraintSystem:
    delta: int
    variant: str
    rows: tuple[LinearRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "variant": self.variant,
            "rows": [
                {"coeffs": [str(c) for c in r.coeffs], "rhs": str(r.rhs), "tag": r.tag}
                for r in self.rows
            ],
        }


class RowViolation(NamedTuple):
    index: int
    row: LinearRow
    slack: Fraction


def _row(c0, c1, c2, c3, c4, rhs, tag) -> LinearRow:
    return LinearRow(tuple(Fraction(x) for x in (c0, c1, c2, c3, c4)), Fraction(rhs), tag)


def build_constraints(delta: int, variant: str = "general") -> ConstraintSystem:
    """All rows for the given minimum degree and structural variant.

    The shared core covers rules R1-R6; the R7 endgame rows differ by
    variant because the number of outside neighbors a K2 or C5
    component can share shrinks when triangles (or 4-cycles) are
    forbidden. Strict positivity of beta1 is relaxed to beta1 >= 0 here;
    solve_min_omega only prefers a beta1 > 0 vertex among the optimal
    ones, and nothing rejects beta1 = 0.
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
        # more, so each neighbor lands at residual degree <= 3
        _row(5, 0, 0, -4, 0, 1, "r1-white-degree-4"),
        # R2: blue x of residual degree >= 5; x frees beta4 and >= 5
        # white neighbors drop to at most beta3
        _row(5, 0, 0, -5, 1, 1, "r2-blue-degree-ge5"),
        # R3: white v with exactly 3 white neighbors; the 4(d-3) edges
        # from {v} + neighbors to blues each shave at least eps4
        _row(4, 0, -3, -k, k, 1, "r3-white-degree-3"),
        # R4: blue x of residual degree exactly 4
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
            # residual degree 1
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
    return ConstraintSystem(d, variant, tuple(rows))


def check_feasible(cs: ConstraintSystem, wv: WeightVector) -> tuple[bool, tuple[RowViolation, ...]]:
    """Exact evaluation of every row; violations come back with slack."""
    point = wv.as_tuple()
    bad = tuple(
        RowViolation(i, row, row.slack(point))
        for i, row in enumerate(cs.rows)
        if row.slack(point) < 0
    )
    return (not bad, bad)


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" or "infeasible"
    optimal_omega: Fraction | None
    witness: WeightVector | None
    tight_rows: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "optimal_omega": None if self.optimal_omega is None else str(self.optimal_omega),
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "tight_rows": list(self.tight_rows),
        }


def _integer_rows(cs: ConstraintSystem) -> list[tuple[tuple[int, ...], int]]:
    out = []
    for row in cs.rows:
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


def solve_min_omega(cs: ConstraintSystem) -> LPSolution:
    """Minimize omega by exhaustive basic-point enumeration.

    Among the optimal vertices the reported witness prefers beta1 > 0,
    then the lexicographically smallest coordinates; ties in omega keep
    all candidates so that preference is meaningful.
    """
    # the region is never empty for these systems: a huge omega with
    # small equal betas satisfies every row
    probe = WeightVector(Fraction(100), Fraction(1, 100), Fraction(1, 100),
                         Fraction(1, 100), Fraction(1, 100))
    if not check_feasible(cs, probe)[0]:
        raise AssertionError("constraint system rejected the large-omega probe")

    irows = _integer_rows(cs)
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
        return LPSolution("infeasible", None, None, ())
    chosen = min(optimal_points, key=lambda p: (p[1] <= 0, p))
    witness = WeightVector(*chosen)
    tight = tuple(i for i, row in enumerate(cs.rows) if row.slack(chosen) == 0)
    return LPSolution("optimal", best_omega, witness, tight)
