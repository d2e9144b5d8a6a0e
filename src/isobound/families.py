"""Lower-bound families built from gadgets with a certified special edge.

A gadget is a regular graph F with an edge xy such that F, F−x, F−y and
F−{x,y} all need at least b vertices to isolate. Chaining s copies of
F−xy back into a regular connected graph then needs at least s*b:
restricted to one copy, a solution of the chain isolates that copy even
if both x and y happen to be dominated from outside, and the
certificate covers exactly those four situations.
"""

from __future__ import annotations

from typing import NamedTuple

from .check import Graph
from .exact import exact_isolation_number
from .graph import check_order

ORACLE_ORDER_LIMIT = 40


class _GadgetFields(NamedTuple):
    F: Graph
    special_edge: tuple[int, int]
    b: int


class Gadget(_GadgetFields):
    """F, its special edge and b, checked on construction (not by _replace)."""

    __slots__ = ()

    def __new__(cls, F, special_edge, b):
        x, y = special_edge
        if not (0 <= x < F.n and 0 <= y < F.n and y in F.adj[x]):
            raise ValueError(f"special edge ({x}, {y}) is not an edge of F")
        degs = set(map(len, F.adj))
        if len(degs) != 1:
            raise ValueError("gadget graph must be regular")
        if b < 1:
            raise ValueError(f"per-copy requirement must be >= 1, got {b}")
        return super().__new__(cls, F, special_edge, b)


class GadgetCertificate(NamedTuple):
    """The four exact values behind a special-edge claim.

    valid means every one of iota(F), iota(F−x), iota(F−y) and
    iota(F−{x,y}) is at least b; that is exactly what makes chains of
    the gadget need b vertices per copy.
    """

    b: int
    iota_f: int
    iota_f_minus_x: int
    iota_f_minus_y: int
    iota_f_minus_xy: int

    @property
    def valid(self) -> bool:
        return min(self.iota_f, self.iota_f_minus_x,
                   self.iota_f_minus_y, self.iota_f_minus_xy) >= self.b

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "valid": self.valid}


def prism_k4() -> Gadget:
    """Two K4's (vertices 0-3 and 4-7) joined by the matching (i, i+4).

    4-regular on 8 vertices; the special edge (0, 4) is one of the
    matching edges. Two vertices are needed to isolate it however x and
    y are treated, so b = 2.
    """
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, i + 4) for i in range(4)]
    return Gadget(Graph(8, edges), (0, 4), b=2)


def metacirculant_14() -> Gadget:
    """Two 7-cycles with a doubled cross pattern; 4-regular, triangle-free.

    Outer cycle u_1..u_7 on indices 0-6, inner cycle v_1..v_7 on
    indices 7-13, and u_i joined to v_{2i} and v_{2i+3} (cycle labels
    mod 7). The special edge is an outer-cycle edge, canonically
    (u_1, u_2) = (0, 1); b = 3.
    """
    def v(j: int) -> int:
        return 7 + (j - 1) % 7

    edges = [(i, (i + 1) % 7) for i in range(7)]
    edges += [(v(j), v(j + 1)) for j in range(1, 8)]
    for i in range(1, 8):
        edges.append((i - 1, v(2 * i)))
        edges.append((i - 1, v(2 * i + 3)))
    return Gadget(Graph(14, edges), (0, 1), b=3)


def chain(gadget: Gadget, s: int) -> Graph:
    """s copies of F−xy glued cyclically: edge from each copy's x to the
    next copy's y. Connected, regular of F's degree, order s*F.n."""
    if s < 2:
        raise ValueError(f"chain needs at least 2 copies, got {s}")
    c = gadget.F.n
    check_order(s * c)
    x, y = gadget.special_edge
    edges = []
    for k in range(s):
        off = k * c
        for u, v in gadget.F.edges():
            if (u, v) != (min(x, y), max(x, y)):
                edges.append((off + u, off + v))
        edges.append((off + x, ((k + 1) % s) * c + y))
    return Graph(s * c, edges)


def certify_special_edge(gadget: Gadget) -> GadgetCertificate:
    """Run the exact oracle on the four deletion variants of the gadget."""
    if gadget.F.n > ORACLE_ORDER_LIMIT:
        raise ValueError(
            f"gadget order {gadget.F.n} exceeds the exact-oracle limit {ORACLE_ORDER_LIMIT}")
    x, y = gadget.special_edge
    values = []
    for drop in (set(), {x}, {y}, {x, y}):
        # a vertex with no edge covers none, so iota(H) is iota(F minus drop)
        H = Graph(gadget.F.n, [e for e in gadget.F.edges() if drop.isdisjoint(e)])
        values.append(exact_isolation_number(H).iota)
    return GadgetCertificate(gadget.b, *values)
