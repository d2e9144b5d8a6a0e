"""Residual coloring of a graph relative to a partial isolating set.

Given a partial solution D, every vertex gets one of three colors:

* White: outside N[D] and adjacent to another vertex outside N[D], so
  it still carries an uncovered edge.
* Blue: inside N[D] but adjacent to a White vertex; dominated, yet
  still relevant because removing its white neighbors changes weights.
* Red: everything else. Settled, weight zero.

Residual edges are the edges incident with at least one White vertex.
A White vertex keeps its full degree as residual degree; a Blue vertex's
residual degree is its number of White neighbors; Red vertices have
residual degree zero (their neighbors are never White).

Weights: White costs omega, a Blue vertex of residual degree i costs
beta_i (beta_4 for degree >= 4), Red costs nothing. The decrease of the
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


@dataclass(frozen=True)
class WeightVector:
    """Exact rational weights (omega, beta1..beta4).

    Construction does not enforce the chain conditions, since feasibility
    checking must be able to evaluate arbitrary vectors. Call validate()
    or is_valid() where the conditions matter.
    """

    omega: Fraction
    beta1: Fraction
    beta2: Fraction
    beta3: Fraction
    beta4: Fraction

    def __post_init__(self):
        for name in ("omega", "beta1", "beta2", "beta3", "beta4"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def beta(self, i: int) -> Fraction:
        """Weight of a blue vertex with residual degree i (capped at 4)."""
        if i < 1:
            raise ValueError(f"blue residual degree must be >= 1, got {i}")
        return (self.beta1, self.beta2, self.beta3, self.beta4)[min(i, 4) - 1]

    def epsilon(self, i: int) -> Fraction:
        """Increment eps_i = beta_i − beta_{i−1}, with beta_0 = 0."""
        if not 1 <= i <= 4:
            raise ValueError(f"epsilon index must be in 1..4, got {i}")
        lower = Fraction(0) if i == 1 else self.beta(i - 1)
        return self.beta(i) - lower

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        return (self.omega, self.beta1, self.beta2, self.beta3, self.beta4)

    def chain_violations(self) -> list[str]:
        """Human-readable list of violated ordering conditions, possibly empty.

        The conditions: omega >= beta4 >= beta3 >= beta2 >= beta1 > 0,
        and increments eps4 <= eps3 <= eps2 <= beta1.
        """
        out = []
        names = ("beta1", "beta2", "beta3", "beta4", "omega")
        vals = (self.beta1, self.beta2, self.beta3, self.beta4, self.omega)
        if self.beta1 <= 0:
            out.append(f"beta1 = {self.beta1} is not > 0")
        for i in range(4):
            if vals[i] > vals[i + 1]:
                out.append(f"{names[i]} = {vals[i]} exceeds {names[i+1]} = {vals[i+1]}")
        for i in (2, 3, 4):
            if self.epsilon(i) > self.epsilon(i - 1):
                out.append(f"eps{i} = {self.epsilon(i)} exceeds eps{i-1} = {self.epsilon(i-1)}")
        return out

    def is_valid(self) -> bool:
        return not self.chain_violations()

    def validate(self) -> None:
        bad = self.chain_violations()
        if bad:
            raise ValueError("invalid weight vector: " + "; ".join(bad))

    def to_json_dict(self) -> dict:
        return {
            "omega": str(self.omega),
            "beta1": str(self.beta1),
            "beta2": str(self.beta2),
            "beta3": str(self.beta3),
            "beta4": str(self.beta4),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "WeightVector":
        if not isinstance(d, dict):
            raise ValueError(f"weight vector JSON must be an object, got {type(d).__name__}")
        try:
            return cls(*(Fraction(d[k]) for k in ("omega", "beta1", "beta2", "beta3", "beta4")))
        except KeyError as e:
            raise ValueError(f"weight vector JSON missing key {e.args[0]!r}") from None
        except (TypeError, ZeroDivisionError, OverflowError) as e:
            raise ValueError(f"malformed weight vector JSON: {e}") from None


class ResidualState:
    """Colors and residual degrees of a graph relative to a set D.

    Derived views (white degrees, B_i sets, white components) are
    computed on first use and cached; the state itself never mutates.
    """

    def __init__(self, graph: Graph, D: frozenset[int],
                 color: tuple[Color, ...], residual_degree: tuple[int, ...]):
        self.graph = graph
        self.D = D
        self.color = color
        self.residual_degree = residual_degree
        self.whites = tuple(v for v in range(graph.n) if color[v] is Color.WHITE)
        self.blues = tuple(v for v in range(graph.n) if color[v] is Color.BLUE)
        self._wdeg: dict[int, int] | None = None
        self._components: list[tuple[int, ...]] | None = None

    def white_degree(self, v: int) -> int:
        """Number of White neighbors of v."""
        return self.white_degrees()[v]

    def white_degrees(self) -> dict[int, int]:
        if self._wdeg is None:
            color = self.color
            self._wdeg = {
                v: sum(1 for u in self.graph.neighbors(v) if color[u] is Color.WHITE)
                for v in range(self.graph.n)
            }
        return self._wdeg

    def B(self, i: int) -> tuple[int, ...]:
        """Blue vertices of residual degree exactly i (1..3), or >= 4 for i = 4."""
        if not 1 <= i <= 4:
            raise ValueError(f"B index must be in 1..4, got {i}")
        rd = self.residual_degree
        if i == 4:
            return tuple(v for v in self.blues if rd[v] >= 4)
        return tuple(v for v in self.blues if rd[v] == i)

    def delta_w(self) -> int:
        """Max number of White neighbors over White vertices (0 if none)."""
        wdeg = self.white_degrees()
        return max((wdeg[v] for v in self.whites), default=0)

    def delta_b(self) -> int:
        """Max residual degree over Blue vertices (0 if none)."""
        return max((self.residual_degree[v] for v in self.blues), default=0)

    def white_components(self) -> list[tuple[int, ...]]:
        """Connected components of the White-induced subgraph.

        Each component is a sorted vertex tuple; components are ordered
        by their lowest vertex.
        """
        if self._components is None:
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
            self._components = comps
        return self._components

    def to_json_dict(self) -> dict:
        census = {f"B{i}": list(self.B(i)) for i in (1, 2, 3, 4)}
        return {
            "n": self.graph.n,
            "D": sorted(self.D),
            "color": [c.value for c in self.color],
            "residual_degree": list(self.residual_degree),
            "white": list(self.whites),
            "blue_census": census,
        }


def compute_residual(G: Graph, D: Iterable[int]) -> ResidualState:
    """Color every vertex relative to D, from scratch."""
    Dset = frozenset(D)
    for v in Dset:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} in D is outside [0, {G.n})")
    dominated = bytearray(G.n)
    for v in Dset:
        dominated[v] = 1
        for u in G.neighbors(v):
            dominated[u] = 1
    color = [Color.RED] * G.n
    for v in range(G.n):
        if not dominated[v] and any(not dominated[u] for u in G.neighbors(v)):
            color[v] = Color.WHITE
    rd = [0] * G.n
    for v in range(G.n):
        if color[v] is Color.WHITE:
            rd[v] = G.degree(v)
        else:
            k = sum(1 for u in G.neighbors(v) if color[u] is Color.WHITE)
            if k and dominated[v]:
                color[v] = Color.BLUE
                rd[v] = k
    return ResidualState(G, Dset, tuple(color), tuple(rd))


def total_weight(state: ResidualState, wv: WeightVector) -> Fraction:
    """Sum of vertex weights: omega per White, beta_i per Blue, 0 per Red."""
    counts = [0, 0, 0, 0]
    for v in state.blues:
        counts[min(state.residual_degree[v], 4) - 1] += 1
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
    dominated = bytearray(G.n)
    for v in S:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} is outside [0, {G.n})")
        dominated[v] = 1
        for u in G.neighbors(v):
            dominated[u] = 1
    for v in range(G.n):
        if not dominated[v] and any(not dominated[u] for u in G.neighbors(v)):
            return False
    return True
