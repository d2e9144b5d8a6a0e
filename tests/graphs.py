"""Small graphs, predicates and the paper's weight vectors, for the tests only."""

from fractions import Fraction as F

from isobound import Graph, WeightVector, emit_edge_list, emit_graph6

# the paper's two delta = 4 weight vectors: the general optimum 13/41 and
# the triangle-free 3/10
WV = WeightVector(F(13, 41), F(5, 82), F(5, 41), F(6, 41), F(7, 41))
TF = WeightVector(F(3, 10), F(1, 15), F(1, 10), F(1, 8), F(3, 20))


def is_connected(G: Graph) -> bool:
    """True for graphs on 0 or 1 vertices and all connected larger graphs."""
    if G.n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in G.adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == G.n


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


# the largest iota/n known for minimum degree 4: the complement of C7
# (4-regular, iota = 2, so 2/7) in general, and for triangle-free graphs
# a connected 4-regular graph of girth 4 on 12 vertices (iota = 3, so 1/4)
COMPLEMENT_OF_C7 = Graph(7, ((u, v) for u in range(7) for v in range(u + 2, 7) if v - u != 6))
TRIANGLE_FREE_12 = Graph(12, [
    (0, 2), (0, 6), (0, 7), (0, 10), (1, 3), (1, 6), (1, 8), (1, 9), (2, 8), (2, 9), (2, 11),
    (3, 7), (3, 10), (3, 11), (4, 7), (4, 8), (4, 9), (4, 11), (5, 6), (5, 7), (5, 9), (5, 10),
    (6, 11), (8, 10),
])


# one graph's text in each form the input-format rule must read; write
# it as bytes, so that no newline is translated
INPUT_FORMS = {
    "tab-separated": lambda G: emit_edge_list(G).replace(" ", "\t"),
    "leading-blank-lines": lambda G: "\n  \n\n" + emit_edge_list(G),
    "crlf": lambda G: emit_edge_list(G).replace("\n", "\r\n"),
    "graph6-header": lambda G: " \n\t>>graph6<<" + emit_graph6(G) + "\n",
}
