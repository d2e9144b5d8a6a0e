import hashlib
import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from isobound import (Graph, GreedyRule, GreedyTrace, TraceVerification, build_constraints,
                      chain, exact_isolation_number,
                      greedy_isolating_set, is_isolating,
                      prism_k4, random_bipartite_min_degree_graph,
                      random_min_degree_graph, solve_min_omega, verify_trace)

from isobound.greedy import _GreedyEngine, _r7_set

from graphs import WV, complete_graph, cycle_graph, path_graph
from oracles import (compute_residual, degree_row, engine_fields,
                     greedy_isolating_set_from_scratch, random_graph, select_desirable,
                     total_weight, verify_trace_from_scratch)


def star_plus(center_degree: int) -> "Graph":
    # a white vertex 0 with `center_degree` white neighbors, each neighbor
    # extended by a pendant so it stays white
    n = 1 + 2 * center_degree
    edges = [(0, i) for i in range(1, center_degree + 1)]
    edges += [(i, center_degree + i) for i in range(1, center_degree + 1)]
    return Graph(n, edges)


def engine_select(g: Graph, D) -> tuple[GreedyRule, frozenset[int]]:
    """The pick of the incremental engine after adding D in one step."""
    engine = _GreedyEngine(g, WV)
    if D:
        engine.add(D)
    return engine.select()


def test_select_r1_high_degree():
    st = compute_residual(star_plus(5), ())
    rule, A = select_desirable(st)
    assert rule is GreedyRule.R1 and A == {0}
    assert engine_select(st.graph, ()) == (rule, A)


def test_select_r1_prefers_five_tier_over_lower_index():
    # vertex 0 has exactly 4 white neighbors; vertex 1 has 5; the
    # five-tier must win although 0 has the lower index
    edges = [(0, i) for i in (1, 2, 3, 4)]
    edges += [(1, i) for i in (5, 6, 7, 8)]  # plus (1,0) above: five total
    edges += [(i, i + 8) for i in range(2, 9)]  # pendants keep everyone white
    g = Graph(17, edges)
    st = compute_residual(g, ())
    wd = st.white_degree
    assert wd[0] == 4 and wd[1] == 5
    rule, A = select_desirable(st)
    assert rule is GreedyRule.R1 and A == {1}
    assert engine_select(g, ()) == (rule, A)


def test_select_r3():
    st = compute_residual(star_plus(3), ())
    rule, A = select_desirable(st)
    assert rule is GreedyRule.R3 and A == {0}
    assert engine_select(st.graph, ()) == (rule, A)


def test_select_r5_on_p7():
    st = compute_residual(path_graph(7), ())
    rule, A = select_desirable(st)
    assert rule is GreedyRule.R5
    assert len(A) == 2  # minimum for P7
    assert engine_select(st.graph, ()) == (rule, A)


def test_select_r7_on_k2s():
    g = Graph(4, [(0, 1), (2, 3)])
    rule, A = select_desirable(compute_residual(g, ()))
    assert rule is GreedyRule.R7 and A == {0}
    assert engine_select(g, ()) == (rule, A)


def test_select_r6_spanning_blue():
    # blue x between two K2 components: x dominated by a far vertex d
    # K2s: (0,1) and (2,3); x=4 adjacent to 0 and 2; d=5 adjacent to 4
    g = Graph(6, [(0, 1), (2, 3), (4, 0), (4, 2), (4, 5)])
    st = compute_residual(g, {5})
    assert st.color[4].value == "blue"
    rule, A = select_desirable(st)
    assert rule is GreedyRule.R6 and A == {4}
    assert engine_select(g, {5}) == (rule, A)


def test_select_r6_with_c5_component():
    # x=10 spans a K2 (0,1) and a C5 (2..6); dominated via 11
    edges = [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 2),
             (10, 0), (10, 2), (10, 11)]
    g = Graph(12, edges)
    st = compute_residual(g, {11})
    rule, A = select_desirable(st)
    assert rule is GreedyRule.R6
    # attachment on the C5 is vertex 2; distance-2 vertices are 4 and 5
    assert A == {10, 4}
    assert engine_select(g, {11}) == (rule, A)
    D = set(A) | {11}
    assert not compute_residual(g, D).whites  # both components die


def test_select_r7_c5_takes_neighbors_of_lowest():
    c5 = cycle_graph(5)
    rule, A = select_desirable(compute_residual(c5, ()))
    assert rule is GreedyRule.R7 and A == {1, 4}
    assert engine_select(c5, ()) == (rule, A)


def test_select_requires_white():
    with pytest.raises(ValueError, match="already isolating"):
        select_desirable(compute_residual(path_graph(3), {1}))


def test_greedy_k2_c5():
    k2 = Graph(2, [(0, 1)])
    S, trace = greedy_isolating_set(k2, WV)
    assert S == (0,) and trace.steps[0].rule is GreedyRule.R7
    c5 = cycle_graph(5)
    S, trace = greedy_isolating_set(c5, WV)
    assert S == (1, 4) and len(S) == 2


def test_greedy_prism_chain():
    g = chain(prism_k4(), 2)
    S, trace = greedy_isolating_set(g, WV)
    assert is_isolating(g, S)
    assert len(S) <= math.floor(F(13, 41) * 16)
    assert len(S) >= exact_isolation_number(g).iota


@pytest.mark.parametrize("n, rule, A, message", [
    (5, GreedyRule.R3, {0}, "R3 fired with degrees past the R1/R2 stage"),
    (4, GreedyRule.R5, {0}, "R5 fired with degrees past the R3/R4 stage"),
    (4, GreedyRule.R1, set(), "R1 made no progress"),
])
def test_greedy_stage_checks_raise(monkeypatch, n, rule, A, message):
    # K5 is 4-regular and K4 3-regular, so a forced R3 or R5 pick comes
    # before its stage; an empty pick changes nothing
    monkeypatch.setattr(_GreedyEngine, "select", lambda self: (rule, frozenset(A)))
    with pytest.raises(AssertionError, match=message):
        greedy_isolating_set(complete_graph(n), WV)


def test_greedy_endstate_check_raises(monkeypatch):
    add = _GreedyEngine.add

    def add_leaving_a_blue(self, A):
        out = add(self, A)
        if not any(self.white_hist):
            self.blue_hist[1] = 1
        return out

    monkeypatch.setattr(_GreedyEngine, "add", add_leaving_a_blue)
    with pytest.raises(AssertionError, match="non-white endstate must weigh nothing"):
        greedy_isolating_set(complete_graph(4), WV)


def test_r7_set_rejects_a_path():
    with pytest.raises(AssertionError, match="endgame component is not a 5-cycle"):
        _r7_set(path_graph(3), (0, 1, 2))


def test_greedy_terminates_on_arbitrary_graphs():
    rng = random.Random(4)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(1, 15), rng.uniform(0.05, 0.8))
        S, trace = greedy_isolating_set(g, WV)
        assert is_isolating(g, S)
        assert sorted(v for s in trace.steps for v in s.vertices) == list(S)
        assert trace.initial_weight == WV.omega * g.n
        # telescoping reaches zero from the true starting weight, which is
        # below omega*n exactly when isolated vertices start out red
        start = total_weight(compute_residual(g, set()), WV)
        assert sum((s.xi for s in trace.steps), F(0)) == start


def test_greedy_certificates_on_min_degree_4():
    wv = solve_min_omega(build_constraints(4, "general")).witness
    for seed in range(25):
        g = random_min_degree_graph(40, 4, seed)
        S, trace = greedy_isolating_set(g, wv)
        assert is_isolating(g, S)
        for step in trace.steps:
            assert step.xi >= len(step.vertices), (seed, step)
        assert len(S) <= math.floor(wv.omega * g.n)


def test_greedy_bound_gap_vs_exact():
    wv = WV
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(2, 10), 0.5)
        S, _ = greedy_isolating_set(g, wv)
        assert len(S) >= exact_isolation_number(g).iota


def test_trace_json_roundtrip():
    g = random_min_degree_graph(25, 4, 3)
    _, trace = greedy_isolating_set(g, WV)
    d = trace.to_json_dict()
    back = GreedyTrace.from_json_dict(d)
    assert back == trace
    with pytest.raises(ValueError, match="missing"):
        GreedyTrace.from_json_dict({"steps": []})
    with pytest.raises(ValueError, match="must be an object"):
        GreedyTrace.from_json_dict([1, 2])
    d["steps"][0]["rule"] = "R9"
    with pytest.raises(ValueError, match="unknown rule 'R9'"):
        GreedyTrace.from_json_dict(d)
    # the whole trace JSON, in key order
    assert list(greedy_isolating_set(prism_k4().F, WV)[1].to_json_dict().items()) == [
        ("n", 8), ("initial_weight", "104/41"),
        ("steps", [{"rule": "R1", "set": [0], "xi": "103/82", "size": 1},
                   {"rule": "R5", "set": [7], "xi": "105/82", "size": 1}]),
        ("final_set", [0, 7])]


def test_trace_verification_holds_only_if_every_check_does():
    names = ("xi_matches", "desirable", "isolating", "partition_ok", "header_ok")
    assert TraceVerification(*[True] * 5)
    for i in range(5):
        flags = [j != i for j in range(5)]
        outcome = TraceVerification(*flags)
        assert not outcome
        assert list(outcome.to_json_dict().items()) == [*zip(names, flags), ("verified", False)]


def test_verify_trace_accepts_own_output():
    for seed in (0, 1, 2):
        g = random_min_degree_graph(30, 4, seed)
        _, trace = greedy_isolating_set(g, WV)
        assert bool(verify_trace(g, trace, WV))


def test_verify_trace_detects_tampering():
    g = random_min_degree_graph(30, 4, 11)
    _, trace = greedy_isolating_set(g, WV)
    step0 = trace.steps[0]
    extra = next(v for v in range(g.n) if v not in trace.D)
    forged = GreedyTrace(
        trace.n,
        (step0.__class__(step0.rule, tuple(sorted(step0.vertices + (extra,))), step0.xi),)
        + trace.steps[1:],
        trace.D,
        trace.initial_weight,
    )
    outcome = verify_trace(g, forged, WV)
    assert not outcome.xi_matches or not outcome.partition_ok
    assert not bool(outcome)


def test_verify_trace_separates_checks_below_precondition():
    # K2 has minimum degree 1: the run is isolating but one step cannot
    # pay for itself at these weights
    k2 = Graph(2, [(0, 1)])
    _, trace = greedy_isolating_set(k2, WV)
    outcome = verify_trace(k2, trace, WV)
    assert outcome.isolating and outcome.xi_matches
    assert not outcome.desirable
    assert not bool(outcome)


def test_verify_trace_rejects_unknown_vertices():
    k2 = Graph(2, [(0, 1)])
    _, trace = greedy_isolating_set(k2, WV)
    forged = GreedyTrace(2, trace.steps, (0, 9), trace.initial_weight)
    with pytest.raises(ValueError):
        verify_trace(k2, GreedyTrace(
            2, (trace.steps[0].__class__(GreedyRule.R7, (9,), F(1)),),
            (9,), trace.initial_weight), WV)
    assert not verify_trace(k2, forged, WV).partition_ok


def test_verify_trace_rejects_a_repeated_vertex():
    g = random_min_degree_graph(40, 4, 5)
    _, trace = greedy_isolating_set(g, WV)
    i, step = next((i, s) for i, s in enumerate(trace.steps) if len(s.vertices) == 1)
    doubled = step.__class__(step.rule, step.vertices * 2, step.xi)
    forged = GreedyTrace(trace.n, trace.steps[:i] + (doubled,) + trace.steps[i + 1:],
                         trace.D, trace.initial_weight)
    outcome = verify_trace(g, forged, WV)
    assert not outcome.partition_ok and not outcome
    # the from-scratch replay turned each step into a set and missed it
    old = verify_trace_from_scratch(g, forged, WV)
    assert old.partition_ok
    assert outcome.to_json_dict() | {"partition_ok": True, "verified": bool(old)} \
        == old.to_json_dict()


def _r6_touch_counts(G, trace):
    # White components touched by the Blue vertex of each R6 step, read
    # off a from-scratch state
    D, counts = set(), []
    for step in trace.steps:
        state = compute_residual(G, D)
        if step.rule is GreedyRule.R6:
            x = next(v for v in step.vertices if v in state.blues)
            comps = state.white_components()
            counts.append(sum(1 for c in comps if set(c) & set(G.adj[x])))
        D |= set(step.vertices)
    return counts


def test_r6_vertex_touching_three_components():
    # R1 takes 0 (five White neighbors), which dominates x = 1 and leaves
    # it Blue next to three components; in the first graph the C5 is one
    # of the two R6 uses, in the second it is the third one, which R6
    # splits into a P4 for R5
    hub = [(0, v) for v in range(1, 6)] + [(v, v + 4) for v in range(2, 6)]
    c5 = [(10, 11), (11, 12), (12, 13), (13, 14), (14, 10)]
    picked = Graph(19, hub + c5 + [(15, 16), (17, 18), (1, 10), (1, 15), (1, 17)])
    third = Graph(19, hub + [(10, 11), (12, 13)] + [(u + 4, v + 4) for u, v in c5]
                  + [(1, 10), (1, 12), (1, 14)])
    for g, rules in ((picked, [GreedyRule.R1, GreedyRule.R6]),
                     (third, [GreedyRule.R1, GreedyRule.R6, GreedyRule.R5])):
        S, trace = greedy_isolating_set(g, WV)
        assert [s.rule for s in trace.steps] == rules
        assert _r6_touch_counts(g, trace) == [3]
        assert (S, trace) == greedy_isolating_set_from_scratch(g, WV)
    assert trace.steps[1].vertices == (1,)
    assert greedy_isolating_set(picked, WV)[1].steps[1].vertices == (1, 12)


def _rows(state) -> list[int]:
    return [degree_row(state, v) for v in range(state.graph.n)]


def _only_later(before, after) -> bool:
    return all(a in (b, -1) or -1 < b < a for b, a in zip(before, after))


def test_degree_rows_only_move_later():
    # the R1-R4 scan rests on this: read off a from-scratch state, a
    # vertex's row only moves to a later row or to none (-1), along a run
    # and across an arbitrary set added at once after some steps; and the
    # engine, its scan part-way through, still picks what the oracle picks,
    # with the oracle's colors, White degrees and histograms after every add
    rng = random.Random(18)
    graphs = [random_graph(rng, rng.randrange(2, 50), rng.uniform(0.03, 0.4)) for _ in range(150)]
    graphs += [random_min_degree_graph(rng.randrange(6, 50), 4, seed) for seed in range(40)]
    for g in graphs:
        engine, D = _GreedyEngine(g, WV), set()
        rows = _rows(compute_residual(g, D))
        arbitrary_after = rng.randrange(g.n)
        while any(engine.white_hist):
            if arbitrary_after == 0:
                A = set(rng.sample(range(g.n), rng.randrange(g.n // 3 + 1)))
            else:
                A = engine.select()[1]
            arbitrary_after -= 1
            D |= A
            engine.add(A)
            state = compute_residual(g, D)
            kept = engine.white, engine.wdeg, engine.white_hist, engine.blue_hist
            assert kept == engine_fields(state)
            new = _rows(state)
            assert _only_later(rows, new)
            rows = new
            if any(engine.white_hist):
                assert engine.select() == select_desirable(state)


def test_greedy_and_replay_scale_linearly():
    # the from-scratch residual after every step took well over a minute here
    g = random_min_degree_graph(20000, 4, 1)
    t0 = time.perf_counter()
    S, trace = greedy_isolating_set(g, WV)
    assert verify_trace(g, trace, WV)
    assert time.perf_counter() - t0 < 15
    assert len(S) <= math.floor(WV.omega * g.n)


def _r6_r7_blocks(k: int) -> Graph:
    # k blocks of 20 vertices: a hub with four leaves and a spanner x,
    # x joined to one end of a K2 and to one vertex of a C5, plus a lone
    # K2 and a lone C5; labels are shuffled
    edges = []
    for b in range(0, 20 * k, 20):
        hub, x = b, b + 5
        edges += [(hub, v) for v in range(b + 1, b + 6)]
        edges += [(x, b + 6), (b + 6, b + 7), (x, b + 8), (b + 13, b + 14)]
        for c in (b + 8, b + 15):
            edges += [(c + i, c + (i + 1) % 5) for i in range(5)]
    label = list(range(20 * k))
    random.Random(21).shuffle(label)
    return Graph(20 * k, [(label[u], label[v]) for u, v in edges])


def test_r6_and_r7_scale_linearly():
    # R1 takes each hub and leaves its x Blue between a K2 and a C5 for
    # R6; R7 takes the lone K2s and C5s. Every R6 pick is found by one
    # upward scan; a scan that restarted from vertex 0 at each R6 step
    # reads about n/2 vertices 5,000 times. The lone K2s break the degree
    # precondition, so the steps are not all desirable
    g = _r6_r7_blocks(5000)
    t0 = time.perf_counter()
    S, trace = greedy_isolating_set(g, WV)
    outcome = verify_trace(g, trace, WV)
    assert time.perf_counter() - t0 < 10
    counts = {rule: sum(s.rule is rule for s in trace.steps) for rule in GreedyRule}
    assert {r: c for r, c in counts.items() if c} == {
        GreedyRule.R1: 5000, GreedyRule.R6: 5000, GreedyRule.R7: 10000}
    assert len(S) == 30000
    assert outcome.xi_matches and outcome.isolating and outcome.partition_ok
    assert outcome.header_ok and not outcome.desirable
    small = _r6_r7_blocks(30)
    assert greedy_isolating_set(small, WV) == greedy_isolating_set_from_scratch(small, WV)


def test_white_count_strictly_decreases():
    g = random_min_degree_graph(35, 4, 21)
    D = set()
    state = compute_residual(g, D)
    while state.whites:
        before = len(state.whites)
        _, A = select_desirable(state)
        D |= A
        state = compute_residual(g, D)
        assert len(state.whites) < before


# sha256 of json.dumps([t.to_json_dict() for t in traces], sort_keys=True)
# for three fixed corpora; any change to a rule, to the rule order or to a
# tie-break changes them
GOLDEN_MIN_DEGREE = "3a6f25ae5f2ade3edcf46f9af74f0197ff73d2bc97af5b0101c14e1b6507dbee"
GOLDEN_BIPARTITE = "7d6aa30e43d23cf397835ea935b88ffdb0ea30df09cfaa61d7dc3298d5eccc38"
GOLDEN_RANDOM = "f25928f49189fca1ba39a03864d1d7c66e5b076ecbc91c22565a80b6360ef6ab"


def _trace_digest(traces) -> str:
    text = json.dumps([t.to_json_dict() for t in traces], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_traces_min_degree_4():
    wv = solve_min_omega(build_constraints(4, "general")).witness
    graphs = [random_min_degree_graph(n, 4, s) for n in (400, 800, 1600) for s in (1, 2)]
    traces = [greedy_isolating_set(g, wv)[1] for g in graphs]
    assert _trace_digest(traces) == GOLDEN_MIN_DEGREE
    for g, trace in zip(graphs, traces):
        assert bool(verify_trace(g, trace, wv))


def test_golden_traces_bipartite():
    wv = solve_min_omega(build_constraints(4, "triangle-free")).witness
    graphs = [random_bipartite_min_degree_graph(n, 4, s)
              for n in (60, 120, 200) for s in (1, 2)]
    traces = [greedy_isolating_set(g, wv)[1] for g in graphs]
    assert _trace_digest(traces) == GOLDEN_BIPARTITE


def test_golden_traces_small_random_fire_every_rule():
    wv = solve_min_omega(build_constraints(4, "general")).witness
    traces = []
    for seed in range(200):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randrange(4, 60), rng.uniform(0.02, 0.3))
        traces.append(greedy_isolating_set(g, wv)[1])
    assert {s.rule for t in traces for s in t.steps} == set(GreedyRule)
    assert _trace_digest(traces) == GOLDEN_RANDOM
