import random
from collections import Counter
import sys
import time
import tracemalloc

import networkx as nx
import pytest

from isobound import (GenerationError, Graph, Graph6ParseError,
                      emit_edge_list, emit_graph6, in_class, metacirculant_14,
                      parse_edge_list, parse_graph6, prism_k4,
                      random_bipartite_min_degree_graph, random_min_degree_graph,
                      random_regular_graph)

from isobound.check import MAX_ORDER

from graphs import complete_graph, cycle_graph, is_connected, path_graph
from oracles import girth, parse_graph6_bitwise, random_graph, triangles


def test_from_edge_list_basic():
    k2 = Graph(2, [(0, 1)])
    assert k2.n == 2 and k2.num_edges == 1
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert all(len(c5.adj[v]) == 2 for v in range(5))
    # duplicates collapse, including reversed duplicates
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.num_edges == 1 and 1 in g.adj[0]


def test_graph_equals_only_graphs_and_reprs_its_size():
    g = Graph(3, [(0, 1)])
    assert g == Graph(3, [(1, 0)]) and g != (3, g.adj)
    assert repr(g) == "Graph(n=3, m=1)"


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(ValueError, match=r"\(0, 5\)"):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_neighbors_sorted_and_symmetric():
    g = Graph(5, [(3, 1), (3, 0), (3, 4), (0, 1)])
    assert g.adj[3] == (0, 1, 4)
    for u in range(5):
        for v in g.adj[u]:
            assert u in g.adj[v]


def test_parsed_graph_holds_each_neighborhood_once():
    # a sorted tuple per vertex holds about 3.9 MB here; a frozenset
    # beside each tuple brought it to about 8.3 MB. The lines go straight
    # into per-vertex lists, so the peak is about 8.5 MB; an edge-tuple
    # list and a set per vertex beside them brought it to 13.6 MB
    text = emit_edge_list(random_min_degree_graph(20000, 4, 1))
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 20000
    assert held < 6_000_000, held
    assert peak < 11_000_000, peak


# ---------------------------------------------------------------------------
# graph6


def test_graph6_known_strings():
    # frozen against an independent reference encoder (networkx)
    assert emit_graph6(complete_graph(5)) == "D~{"
    assert parse_graph6("D~{") == complete_graph(5)
    # "A?" is the 2-vertex empty graph; "A_" already carries the edge
    assert parse_graph6("A?").num_edges == 0
    assert parse_graph6("A_") == Graph(2, [(0, 1)])
    assert parse_graph6(">>graph6<<A_") == Graph(2, [(0, 1)])


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6ParseError) as e:
        parse_graph6("")
    assert e.value.offset == 0
    with pytest.raises(Graph6ParseError, match="byte offset"):
        parse_graph6("D~")  # truncated K5 body
    with pytest.raises(Graph6ParseError):
        parse_graph6("A_X")  # trailing bytes
    with pytest.raises(Graph6ParseError, match="invalid graph6 byte"):
        parse_graph6("D\x1b{")
    # padding bits of the final byte must be zero: "A" + chr(63+1) sets one
    with pytest.raises(Graph6ParseError, match="padding"):
        parse_graph6("A" + chr(63 + 1))


def test_graph6_offsets_count_from_the_text_as_given():
    # the 10-byte header and stripped whitespace count toward the offset
    with pytest.raises(Graph6ParseError, match="invalid graph6 byte 27") as e:
        parse_graph6(">>graph6<<D\x1b{")
    assert e.value.offset == 11
    with pytest.raises(Graph6ParseError, match="trailing bytes") as e:
        parse_graph6("   A_X")
    assert e.value.offset == 5


def test_graph6_roundtrip_random():
    rng = random.Random(42)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(0, 35), rng.uniform(0.0, 0.9))
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_agrees_with_networkx():
    rng = random.Random(9)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 30), 0.3)
        mine = emit_graph6(g)
        h = nx.from_graph6_bytes(mine.encode())
        assert h.number_of_nodes() == g.n
        assert set(h.edges()) == set(g.edges())


def test_graph6_large_n_size_field():
    g = Graph(80, [(0, 79), (40, 41)])
    s = emit_graph6(g)
    assert s[0] == "~"
    assert parse_graph6(s) == g


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python 3.10 has no int digit limit")
def test_graph6_large_n_under_int_digit_limit():
    # the codec converts no digit string to int or back, so a low int
    # digit limit must not reach it on a 2 MB graph6 text
    g = random_min_degree_graph(5000, 4, 1)
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        t0 = time.monotonic()
        s = emit_graph6(g)
        back = parse_graph6(s)
        dt = time.monotonic() - t0
        assert back == g
        assert parse_graph6_bitwise(s) == g
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert dt < 3.0, f"emit + parse at n=5000 took {dt:.2f}s"


def test_edge_list_roundtrip():
    g = Graph(4, [(0, 1), (2, 3)])
    text = emit_edge_list(g)
    assert text.splitlines()[0] == "4 2"
    assert parse_edge_list(text) == g
    with pytest.raises(ValueError, match="header"):
        parse_edge_list("nonsense\n")
    with pytest.raises(ValueError, match="declares"):
        parse_edge_list("3 2\n0 1\n")
    # the header is checked before Graph allocates n adjacency slots; the
    # smallest order past the bound keeps a regression cheap to run
    for header in ("258048 0", "3 -1"):
        with pytest.raises(ValueError, match="header"):
            parse_edge_list(header + "\n")


# ---------------------------------------------------------------------------
# girth, connectivity and degrees


def test_profile_c5():
    g = cycle_graph(5)
    assert {len(g.adj[v]) for v in range(g.n)} == {2}
    assert girth(g) == 5 and is_connected(g)


def test_profile_girth_of_cycles():
    for n in range(3, 13):
        assert girth(cycle_graph(n)) == n


def test_profile_acyclic_and_triangles():
    assert girth(path_graph(6)) is None
    rng = random.Random(5)
    for _ in range(80):
        g = random_graph(rng, rng.randrange(2, 16), 0.35)
        got = girth(g)
        assert (got != 3) == (len(triangles(g)) == 0)
        ref = nx.girth(nx.Graph([e for e in g.edges()]) if g.num_edges else nx.empty_graph(g.n))
        assert (got if got is not None else float("inf")) == ref


def _petersen() -> Graph:
    # outer 5-cycle, spokes, inner pentagram
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _random_forest(rng: random.Random, n: int) -> Graph:
    # each vertex joins an earlier one or starts a tree, so some stay isolated
    return Graph(n, [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.7])


def _random_high_girth(rng: random.Random, n: int) -> Graph:
    # random edges that close no triangle or C4, then maybe one that may
    adj: list[set[int]] = [set() for _ in range(n)]
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and all(adj[u].isdisjoint(adj[w]) for w in adj[v] | {v}):
            adj[u].add(v)
            adj[v].add(u)
    extra = [tuple(rng.sample(range(n), 2))] if n > 1 and rng.random() < 0.5 else []
    return Graph(n, [(u, v) for u in range(n) for v in adj[u]] + extra)


def test_in_class_matches_min_degree_and_bfs_girth():
    # the set-based test against the minimum degree and the
    # one-BFS-per-root oracle, for every delta up to 5 and every g it
    # decides, on forests (no cycle), sparse and dense random graphs,
    # graphs grown without a triangle or C4 but for one last random edge,
    # and one named graph of girth 3, 4 and 5
    named = [prism_k4().F, metacirculant_14().F, _petersen()]
    assert [girth(G) for G in named] == [3, 4, 5]
    rng = random.Random(11)
    makers = (_random_forest, _random_high_girth,
              lambda rng, n: random_graph(rng, n, rng.uniform(1, 4) / max(n, 1)),
              lambda rng, n: random_graph(rng, n, rng.uniform(0.15, 0.6)))
    graphs = named + [makers[i % 4](rng, rng.randrange(41)) for i in range(2400)]
    seen, lows = Counter(), Counter()
    cases = [(d, g) for d in range(6) for g in (3, 4, 5)]
    for G in graphs:
        ref = girth(G) or float("inf")
        low = min(map(len, G.adj), default=0)
        seen[min(ref, 6)] += 1
        lows[min(low, 6)] += 1
        assert ([in_class(G, d, g) for d, g in cases]
                == [low >= d and ref >= g for d, g in cases]), G
    # girth 3, 4, 5 and above, and minimum degree 0 to 5 and above, each
    # occur often enough to be tested
    assert min(seen[g] for g in (3, 4, 5, 6)) >= 100, seen
    assert min(lows[d] for d in range(7)) >= 30, lows
    for d in (0, 4):
        with pytest.raises(ValueError):
            in_class(_petersen(), d, 6)


def test_profile_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)


# ---------------------------------------------------------------------------
# generators


def test_random_min_degree_deterministic_and_valid():
    a = random_min_degree_graph(50, 4, 7)
    b = random_min_degree_graph(50, 4, 7)
    assert a == b
    for seed in range(100):
        g = random_min_degree_graph(30, 4, seed)
        assert min(len(g.adj[v]) for v in range(g.n)) >= 4


def test_random_min_degree_forced_k5():
    assert random_min_degree_graph(5, 4, 123) == complete_graph(5)
    with pytest.raises(ValueError):
        random_min_degree_graph(4, 4, 0)
    with pytest.raises(ValueError):
        random_min_degree_graph(10, -4, 1)
    # the order is bounded before any list proportional to n is built
    with pytest.raises(ValueError, match="exceeds"):
        random_min_degree_graph(MAX_ORDER + 1, 4, 1)


def test_random_regular():
    assert random_regular_graph(4, 3, 11) == complete_graph(4)
    with pytest.raises(ValueError):
        random_regular_graph(5, 3, 0)  # odd n*r
    with pytest.raises(ValueError):
        random_regular_graph(3, 3, 0)
    with pytest.raises(ValueError):
        random_regular_graph(10, -4, 1)
    for seed in range(100):
        g = random_regular_graph(14, 4, seed)
        assert all(len(g.adj[v]) == 4 for v in range(14))
    assert random_regular_graph(20, 5, 3) == random_regular_graph(20, 5, 3)


def test_random_bipartite_min_degree():
    for seed in range(100):
        g = random_bipartite_min_degree_graph(21, 4, seed)
        assert min(len(g.adj[v]) for v in range(g.n)) >= 4
        assert not triangles(g)
    with pytest.raises(ValueError):
        random_bipartite_min_degree_graph(7, 4, 0)
    with pytest.raises(ValueError):
        random_bipartite_min_degree_graph(10, -4, 1)
    with pytest.raises(ValueError, match="exceeds"):
        random_bipartite_min_degree_graph(MAX_ORDER + 1, 4, 1)


def test_dense_min_degree_requests_build_complete_graphs():
    # the repair used to give up after 5,000 draws per vertex, at vertex
    # 201 of the first request, although the complete graph meets both
    for n in (500, 700):
        g = random_min_degree_graph(n, n - 1, 0)
        assert all(len(g.adj[v]) == n - 1 for v in range(n))


def test_edge_list_and_graph6_input_checks():
    with pytest.raises(ValueError, match="empty edge-list input"):
        parse_edge_list(" \n\t\n")
    with pytest.raises(ValueError, match="expected edge line 'u v', got '0 1 2'"):
        parse_edge_list("3 1\n0 1 2\n")
    # the first faulty line is named, a bad edge or a malformed line
    with pytest.raises(ValueError, match=r"edge \(0, 5\) has an endpoint outside \[0, 3\)"):
        parse_edge_list("3 2\n0 5\n0 x\n")
    with pytest.raises(ValueError, match="invalid literal"):
        parse_edge_list("3 2\n0 x\n0 5\n")
    with pytest.raises(ValueError, match=r"edge \(0, 5\) has an endpoint outside \[0, 3\)"):
        parse_edge_list("3 3\n0 1\n0 5\n1 1\n")
    with pytest.raises(ValueError, match=r"self-loop \(1, 1\)"):
        parse_edge_list("3 2\n1 1\n0 5\n")
    # the order is rejected before a body of n(n-1)/12 bytes is allocated
    with pytest.raises(ValueError, match=f"n <= {MAX_ORDER}"):
        emit_graph6(Graph(MAX_ORDER + 1, []))


def test_generation_error_is_raisable():
    # K6 is the complement of the empty graph; on 20 vertices neither 9
    # nor n-1-9 = 10 is sparse enough for a whole pairing to be simple
    g = random_regular_graph(6, 5, 2)
    assert all(len(g.adj[v]) == 5 for v in range(6))
    with pytest.raises(GenerationError, match="no simple 9-regular pairing on 20 vertices"):
        random_regular_graph(20, 9, 0)


def test_dense_regular_requests_complement_a_sparse_pairing():
    # a whole pairing of these stubs is almost never simple; the
    # complement of the (n-1-r)-regular graph drawn with the same seed is
    for n, r in ((7, 6), (8, 6), (10, 8), (10, 9), (12, 8), (16, 12), (30, 24)):
        for seed in range(5):
            g = random_regular_graph(n, r, seed)
            assert all(len(g.adj[v]) == r for v in range(n)), (n, r, seed)
            sparse = random_regular_graph(n, n - 1 - r, seed)
            assert not any(v in sparse.adj[u] for u, v in g.edges())
