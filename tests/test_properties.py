import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from isobound import (Graph, WeightVector, emit_edge_list, emit_graph6,
                      greedy_isolating_set, parse_edge_list, parse_graph6,
                      random_min_degree_graph, verify_trace)

from oracles import is_isolating_direct

# fixed examples and no example database keep the suite's time and
# outcome the same on every run
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)

# the delta=4 optimum
WV = WeightVector(F(13, 41), F(5, 82), F(5, 41), F(6, 41), F(7, 41))


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.integers(0, 2 ** len(pairs) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if keep >> i & 1])


@PROPERTY
@given(graphs(max_n=70))
def test_graph6_round_trip(G):
    assert parse_graph6(emit_graph6(G)) == G


@PROPERTY
@given(graphs(max_n=70))
def test_edge_list_round_trip(G):
    assert parse_edge_list(emit_edge_list(G)) == G


@PROPERTY
@given(graphs(max_n=12))
def test_greedy_isolates_and_its_trace_replays(G):
    # below the degree precondition only desirability may fail
    S, trace = greedy_isolating_set(G, WV)
    assert is_isolating_direct(G, S)
    outcome = verify_trace(G, trace, WV)
    assert outcome.xi_matches and outcome.isolating
    assert outcome.partition_ok and outcome.header_ok


@PROPERTY
@given(st.integers(5, 40), st.integers(0, 2**32))
def test_greedy_certifies_min_degree_4(n, seed):
    G = random_min_degree_graph(n, 4, seed)
    S, trace = greedy_isolating_set(G, WV)
    assert verify_trace(G, trace, WV)
    assert len(S) <= math.floor(WV.omega * G.n)
