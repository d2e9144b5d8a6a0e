import random
from fractions import Fraction as F

import pytest

from isobound import (Graph, WeightVector, build_constraints, check_feasible,
                      is_isolating)

from graphs import WV, cycle_graph, path_graph
from oracles import (Color, closed_neighborhood, compute_residual, is_isolating_direct,
                     random_graph, total_weight, xi)


def test_weight_vector_chain():
    rows = build_constraints(4)
    assert check_feasible(rows, WV) == (True, ())

    def violated(wv):
        return {v.row.tag for v in check_feasible(rows, wv)[1]}

    # omega below beta4
    assert "chain-omega-ge-beta4" in violated(
        WeightVector(F(1, 10), F(5, 82), F(5, 41), F(6, 41), F(7, 41)))
    # convexity violation: eps3 > eps2
    assert "step-eps3-le-eps2" in violated(
        WeightVector(1, F(1, 10), F(11, 100), F(2, 10), F(2, 10)))


def test_weight_vector_json_roundtrip():
    d = WV.to_json_dict()
    assert d["omega"] == "13/41"
    assert WeightVector.from_json_dict(d) == WV
    with pytest.raises(ValueError, match="beta3"):
        WeightVector.from_json_dict({"omega": "1", "beta1": "1", "beta2": "1", "beta4": "1"})


def test_compute_residual_all_white_on_empty_d():
    g = cycle_graph(6)
    st = compute_residual(g, ())
    assert all(c is Color.WHITE for c in st.color)
    assert st.white_degree == (2,) * 6
    assert total_weight(st, WV) == 6 * WV.omega


def test_compute_residual_p3_center():
    st = compute_residual(path_graph(3), {1})
    assert all(c is Color.RED for c in st.color)
    assert total_weight(st, WV) == 0


def test_compute_residual_p4_endpoint():
    st = compute_residual(path_graph(4), {0})
    assert [c.value for c in st.color] == ["red", "blue", "white", "white"]
    assert st.white_degree == (0, 1, 1, 1)
    assert st.blues == (1,) and st.whites == (2, 3)
    assert total_weight(st, WV) == 2 * WV.omega + WV.beta1


def test_compute_residual_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        compute_residual(path_graph(3), {5})


def test_is_isolating_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"^vertex 5 is outside \[0, 3\)$"):
        is_isolating(path_graph(3), {5})


def test_state_accessors():
    g = cycle_graph(8)
    st = compute_residual(g, {0})
    # N[0] = {7, 0, 1}; the arc 2..6 stays white, 1 and 7 turn blue
    assert st.whites == (2, 3, 4, 5, 6)
    assert st.blues == (1, 7)
    assert st.delta_w() == 2 and st.delta_b() == 1
    assert st.white_components() == [(2, 3, 4, 5, 6)]


def test_xi_examples():
    k2 = Graph(2, [(0, 1)])
    assert xi(k2, (), (0,), WV) == 2 * WV.omega == F(26, 41)
    c5 = cycle_graph(5)
    assert xi(c5, (), (0,), WV) == 3 * WV.omega - 2 * WV.beta1 == F(34, 41)
    edgeless = Graph(3, [])
    assert xi(edgeless, (), (1,), WV) == 0
    with pytest.raises(ValueError, match="intersects"):
        xi(c5, (0,), (0, 1), WV)


def test_is_isolating_examples():
    c5 = cycle_graph(5)
    assert is_isolating(c5, (1, 4))
    assert not is_isolating(c5, (0,))
    k2 = Graph(2, [(0, 1)])
    assert is_isolating(k2, (0,)) and is_isolating(k2, (1,))


def test_invariants_on_random_pairs():
    """Partition, degree rules, and the white/blue characterizations."""
    rng = random.Random(1234)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 14), rng.uniform(0.1, 0.7))
        D = [v for v in range(g.n) if rng.random() < 0.3]
        st = compute_residual(g, D)
        nd = closed_neighborhood(g, D)
        for v in range(g.n):
            c = st.color[v]
            white_def = v not in nd and any(u not in nd for u in g.adj[v])
            blue_def = v in nd and any(st.color[u] is Color.WHITE for u in g.adj[v])
            assert (c is Color.WHITE) == white_def
            assert (c is Color.BLUE) == blue_def
            assert st.white_degree[v] == sum(st.color[u] is Color.WHITE for u in g.adj[v])
            if v in D:
                assert c is Color.RED
            if c is Color.RED:
                assert st.white_degree[v] == 0
            else:
                assert st.white_degree[v] >= 1


def test_color_monotonicity():
    """Reds stay red and blues never whiten as D grows."""
    rng = random.Random(99)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 12), 0.4)
        D = {v for v in range(g.n) if rng.random() < 0.25}
        D2 = D | {v for v in range(g.n) if rng.random() < 0.25}
        a = compute_residual(g, D)
        b = compute_residual(g, D2)
        for v in range(g.n):
            if a.color[v] is Color.RED:
                assert b.color[v] is Color.RED
            elif a.color[v] is Color.BLUE:
                assert b.color[v] in (Color.BLUE, Color.RED)


def test_is_isolating_matches_direct_check():
    rng = random.Random(31)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 12), 0.4)
        S = [v for v in range(g.n) if rng.random() < 0.3]
        direct = is_isolating_direct(g, S)
        assert is_isolating(g, S) == direct
        # equivalently: no White vertex in the residual state
        st = compute_residual(g, S)
        assert direct == (len(st.whites) == 0)


def test_xi_is_weight_difference_by_construction():
    rng = random.Random(8)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(2, 12), 0.4)
        D = {v for v in range(g.n) if rng.random() < 0.2}
        rest = [v for v in range(g.n) if v not in D]
        if not rest:
            continue
        A = {rng.choice(rest)}
        w1 = total_weight(compute_residual(g, D), WV)
        w2 = total_weight(compute_residual(g, D | A), WV)
        assert xi(g, D, A, WV) == w1 - w2
