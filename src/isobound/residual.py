"""Residual coloring of a graph relative to a partial isolating set.

Given a partial solution D, every vertex gets one of three colors:

* White: outside N[D] and adjacent to another vertex outside N[D], so
  it still carries an uncovered edge.
* Blue: inside N[D] but adjacent to a White vertex; dominated, yet
  still relevant because removing its white neighbors changes weights.
* Red: everything else. Settled, weight zero.

Residual edges are the edges incident with at least one White vertex.

Weights: White costs omega, a Blue vertex costs beta_i for its White
degree i, its number of White neighbors (beta_4 for i >= 4), and Red,
which has no White neighbor, costs nothing. The decrease of the
total weight caused by extending D is the functional xi; a set A with
xi(A) >= |A| pays for itself in the omega*n budget argument. All
arithmetic is exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .graph import Graph


class Color(Enum):
    WHITE = "white"
    BLUE = "blue"
    RED = "red"


WEIGHT_NAMES = ("omega", "beta1", "beta2", "beta3", "beta4")

# exact weights and xi values of real runs are a few dozen characters
_MAX_RATIONAL_CHARS = 1000


def parse_rational(value) -> Fraction:
    """Exact rational from a JSON value. Long strings and exponents are
    rejected: Fraction("1e999999999") builds a billion-digit integer."""
    if isinstance(value, str):
        if len(value) > _MAX_RATIONAL_CHARS:
            raise ValueError(f"rational string longer than {_MAX_RATIONAL_CHARS} characters")
        if "e" in value or "E" in value:
            raise ValueError(f"rational {value!r} uses an exponent")
    return Fraction(value)


@dataclass(frozen=True)
class WeightVector:
    """Exact rational weights (omega, beta1..beta4).

    Construction does not enforce the chain conditions, since feasibility
    checking must be able to evaluate arbitrary vectors; the chain and
    step rows of lpweights.build_constraints state them.
    """

    omega: Fraction
    beta1: Fraction
    beta2: Fraction
    beta3: Fraction
    beta4: Fraction

    def __post_init__(self):
        for name in WEIGHT_NAMES:
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def beta(self, i: int) -> Fraction:
        """Weight of a blue vertex with i White neighbors (capped at 4)."""
        if i < 1:
            raise ValueError(f"blue White degree must be >= 1, got {i}")
        return (self.beta1, self.beta2, self.beta3, self.beta4)[min(i, 4) - 1]

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        return (self.omega, self.beta1, self.beta2, self.beta3, self.beta4)

    def to_json_dict(self) -> dict:
        return {name: str(x) for name, x in zip(WEIGHT_NAMES, self.as_tuple())}

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
                for w in self.graph.neighbors(u):
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
        out.update(G.neighbor_set(v))
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
        hit = G.neighbor_set(v) & dominated
        if len(hit) < G.degree(v):
            whites.append(v)
            wdeg[v] = G.degree(v) - len(hit)
            for u in hit:
                wdeg[u] += 1
    color = [Color.RED] * G.n
    for v in whites:
        color[v] = Color.WHITE
    blues = [v for v in range(G.n) if wdeg[v] and color[v] is Color.RED]
    for v in blues:
        color[v] = Color.BLUE
    return ResidualState(G, tuple(color), tuple(wdeg), tuple(whites), tuple(blues))


def total_weight(state: ResidualState, wv: WeightVector) -> Fraction:
    """Sum of vertex weights: omega per White, beta_i per Blue, 0 per Red."""
    counts = [0, 0, 0, 0]
    for v in state.blues:
        counts[min(state.white_degree[v], 4) - 1] += 1
    total = wv.omega * len(state.whites)
    for i, k in enumerate(counts):
        if k:
            total += wv.beta(i + 1) * k
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


def is_isolating(G: Graph, S: Iterable[int]) -> bool:
    """True iff no edge of G survives the removal of N[S]."""
    dominated = _dominated(G, S)
    return all(v in dominated or G.neighbor_set(v) <= dominated for v in range(G.n))
