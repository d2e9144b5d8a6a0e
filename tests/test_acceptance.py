"""End-to-end acceptance checks.

Each test prints one summary line; the pytest verdict on the test is
the pass/fail signal. Timed criteria assert their budgets with
time.monotonic() around the timed region only.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from isobound import (build_constraints, chain,
                      certify_special_edge, check_feasible,
                      exact_isolation_number,
                      greedy_isolating_set, is_isolating,
                      metacirculant_14, prism_k4,
                      random_bipartite_min_degree_graph, random_min_degree_graph,
                      solve_min_omega)
from isobound.greedy import _r5_set

from graphs import TF, WV, cycle_graph, is_connected, path_graph
from oracles import (Color, brute_force_isolation, compute_residual, girth,
                     is_isolating_direct, random_graph)

GOLDEN = (
    (4, "general", F(13, 41)),
    (5, "general", F(23, 78)),
    (4, "triangle-free", F(3, 10)),
    (5, "triangle-free", F(9, 31)),
    (3, "girth5", F(11, 34)),
)


def _connected_min_degree(n: int, delta: int, base_seed: int):
    for attempt in itertools.count():
        g = random_min_degree_graph(n, delta, base_seed + attempt)
        if is_connected(g):
            return g


def test_acceptance_1_lp_golden_values():
    times = []
    for delta, variant, expected in GOLDEN:
        t0 = time.monotonic()
        sol = solve_min_omega(build_constraints(delta, variant))
        dt = time.monotonic() - t0
        times.append(dt)
        assert sol.witness.omega == expected, (delta, variant)
        assert dt < 1.0, f"({delta}, {variant}) solve took {dt:.2f}s"
    t0 = time.monotonic()
    sol = solve_min_omega(build_constraints(3, "general"))
    dt = time.monotonic() - t0
    times.append(dt)
    assert sol.witness.omega > F(1, 3)
    assert dt < 1.0
    print(f"acceptance 1 (six exact LP optima, max solve "
          f"{max(times):.2f}s < 1s): PASS")


def test_acceptance_2_known_vectors_feasible():
    ok_gen, bad_gen = check_feasible(build_constraints(4, "general"), WV)
    ok_tf, bad_tf = check_feasible(build_constraints(4, "triangle-free"), TF)
    assert ok_gen and bad_gen == ()
    assert ok_tf and bad_tf == ()
    print("acceptance 2 (known-good weight vectors feasible, exact): PASS")


def test_acceptance_3_greedy_bound_min_degree_4():
    wv = solve_min_omega(build_constraints(4, "general")).witness
    rng = random.Random(7)
    sizes = []
    t0 = time.monotonic()
    for i in range(100):
        n = rng.randrange(20, 201)
        g = _connected_min_degree(n, 4, 1000 * i)
        S, trace = greedy_isolating_set(g, wv)
        assert is_isolating(g, S), f"graph {i} not isolated"
        assert len(S) <= math.floor(F(13, 41) * n), f"graph {i} exceeds bound"
        for step in trace.steps:
            assert step.xi >= len(step.vertices), f"graph {i} has an unpaid step"
        sizes.append((len(S), n))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    worst = max(F(s, n) for s, n in sizes)
    print(f"acceptance 3 (100 graphs, worst |S|/n = {worst} <= 13/41, "
          f"{elapsed:.1f}s < 60s): PASS")


def test_acceptance_4_greedy_bound_triangle_free():
    wv = solve_min_omega(build_constraints(4, "triangle-free")).witness
    rng = random.Random(11)
    t0 = time.monotonic()
    for i in range(50):
        n = rng.randrange(20, 201)
        for attempt in itertools.count():
            g = random_bipartite_min_degree_graph(n, 4, 1000 * i + attempt)
            if is_connected(g):
                break
        assert girth(g) != 3
        S, trace = greedy_isolating_set(g, wv)
        assert is_isolating(g, S)
        assert len(S) <= math.floor(F(3, 10) * g.n), f"graph {i} exceeds bound"
        for step in trace.steps:
            assert step.xi >= len(step.vertices)
    elapsed = time.monotonic() - t0
    print(f"acceptance 4 (50 bipartite graphs within floor(3n/10), "
          f"{elapsed:.1f}s): PASS")


def test_acceptance_5_exact_matches_enumeration():
    rng = random.Random(5)
    connected = 0
    for _ in range(500):
        n = rng.randrange(2, 10)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        if not is_connected(g):
            continue
        connected += 1
        res = exact_isolation_number(g)
        assert res.iota == brute_force_isolation(g)[0], g
        assert is_isolating_direct(g, res.witness)
        is_k2 = g.n == 2
        is_c5 = g.n == 5 and all(len(g.adj[v]) == 2 for v in range(5))
        if not is_k2 and not is_c5:
            assert 3 * res.iota <= g.n, f"n/3 bound fails on {g}"
    assert connected >= 250
    print(f"acceptance 5 ({connected} connected graphs, search == "
          f"enumeration, iota <= n/3 off K2/C5): PASS")


def test_acceptance_6_path_cycle_dp():
    # the greedy's R5 set on every path and cycle it can take: all but
    # K1, K2 and C5
    instances = [path_graph(n) for n in range(3, 13)]
    instances += [cycle_graph(n) for n in range(3, 13) if n != 5]
    for g in instances:
        got = _r5_set(g, tuple(range(g.n)))
        assert is_isolating_direct(g, got)
        assert len(got) == brute_force_isolation(g)[0], g
    print(f"acceptance 6 (R5 closed form == brute force on {len(instances)} "
          f"paths/cycles): PASS")


def test_acceptance_7_gadget_certificates():
    t0 = time.monotonic()
    prism_cert = certify_special_edge(prism_k4())
    t_prism = time.monotonic() - t0
    assert prism_cert.valid and prism_cert.b == 2
    assert t_prism < 10.0

    meta = metacirculant_14()
    assert {len(meta.F.adj[v]) for v in range(meta.F.n)} == {4}
    assert girth(meta.F) != 3
    t0 = time.monotonic()
    meta_cert = certify_special_edge(meta)
    t_meta = time.monotonic() - t0
    assert meta_cert.valid and meta_cert.b == 3
    assert t_meta < 10.0
    print(f"acceptance 7 (prism b=2 in {t_prism:.2f}s, metacirculant b=3 "
          f"in {t_meta:.2f}s, both < 10s): PASS")


def test_acceptance_8_family_ratio():
    g = chain(prism_k4(), 2)
    t0 = time.monotonic()
    hit = exact_isolation_number(g, size_cap=4)
    miss = exact_isolation_number(g, size_cap=3)
    elapsed = time.monotonic() - t0
    assert len(hit.witness) == 4 and is_isolating(g, hit.witness)
    assert miss.iota is None and miss.witness is None
    assert 4 * 4 == g.n
    assert elapsed < 120.0, f"took {elapsed:.1f}s"

    wv = solve_min_omega(build_constraints(4, "triangle-free")).witness
    meta = metacirculant_14()
    cert = certify_special_edge(meta)
    for s in (2, 3):
        h = chain(meta, s)
        assert {len(h.adj[v]) for v in range(h.n)} == {4}
        assert is_connected(h) and girth(h) != 3
        S, _ = greedy_isolating_set(h, wv)
        assert is_isolating(h, S)
        assert len(S) >= s * cert.b == 3 * s
    print(f"acceptance 8 (prism chain iota = 4 = n/4 in {elapsed:.1f}s; "
          f"metacirculant chains beat the 3s lower bound): PASS")


def test_acceptance_9_residual_invariants():
    rng = random.Random(13)
    pairs = 0
    while pairs < 1000:
        n = rng.randrange(1, 14)
        g = random_graph(rng, n, rng.uniform(0.05, 0.9))
        D = frozenset(v for v in range(n) if rng.random() < 0.25)
        state = compute_residual(g, D)
        dominated = set()
        for v in D:
            dominated.add(v)
            dominated.update(g.adj[v])
        for v in range(n):
            c = state.color[v]
            outside = v not in dominated
            has_outside_nbr = any(u not in dominated for u in g.adj[v])
            assert (c is Color.WHITE) == (outside and has_outside_nbr)
            white_nbr = any(state.color[u] is Color.WHITE for u in g.adj[v])
            assert (c is Color.BLUE) == (v in dominated and white_nbr)
            if v in D:
                assert c is Color.RED
            if c is Color.RED:
                assert state.white_degree[v] == 0
            else:
                assert state.white_degree[v] >= 1

        extra = frozenset(v for v in range(n) if rng.random() < 0.3)
        bigger = compute_residual(g, D | extra)
        for v in range(n):
            if state.color[v] is Color.RED:
                assert bigger.color[v] is Color.RED
            elif state.color[v] is Color.BLUE:
                assert bigger.color[v] in (Color.BLUE, Color.RED)

        no_white = not state.whites
        assert is_isolating(g, D) == is_isolating_direct(g, D) == no_white
        pairs += 1
    print("acceptance 9 (1000 (G, D) pairs, residual invariants + "
          "monotonicity + isolation equivalence): PASS")
