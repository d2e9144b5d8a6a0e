import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from isobound import (Graph, Graph6ParseError, GreedyRule, GreedyStep, GreedyTrace,
                      WeightVector, emit_edge_list, emit_graph6, exact_isolation_number,
                      greedy_isolating_set, parse_edge_list, parse_graph6,
                      random_bipartite_min_degree_graph, random_min_degree_graph, verify_trace)

from isobound.greedy import _GreedyEngine

from graphs import TF, WV
from oracles import (compute_residual, emit_graph6_bitwise, engine_fields,
                     exact_isolation_number_recursive, greedy_isolating_set_from_scratch,
                     is_isolating_direct, parse_graph6_bitwise, random_graph,
                     remove_vertices, select_desirable, verify_trace_from_scratch, xi)

# fixed examples and no example database keep the suite's time and
# outcome the same on every run
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)


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


@st.composite
def graphs_of_density(draw, orders):
    # the density is drawn outright so that sparse and dense graphs are
    # as likely as the half-full ones a uniform edge subset gives
    n = draw(orders)
    percent = draw(st.integers(0, 100))
    return random_graph(random.Random(draw(st.integers(0, 2**32))), n, percent / 100)


@PROPERTY
@given(graphs_of_density(st.integers(0, 90) | st.sampled_from([62, 63, 64])))
def test_graph6_matches_bitwise_oracle(G):
    s = emit_graph6(G)
    assert s == emit_graph6_bitwise(G)
    H = parse_graph6(s)
    assert H == parse_graph6_bitwise(s) == G and _all_tuples(H)


def _all_tuples(G: Graph) -> bool:
    # the parsers build adj themselves, past __init__'s conversion
    return type(G.adj) is tuple and all(type(a) is tuple for a in G.adj)


def test_graph6_matches_bitwise_oracle_on_every_byte():
    # n = 4 has six pairs, one body byte: the 64 graphs give it every value
    for x in range(64):
        s = chr(63 + 4) + chr(63 + x)
        G = parse_graph6(s)
        assert G == parse_graph6_bitwise(s) and emit_graph6(G) == s
        assert _all_tuples(G)


def _parse_outcome(parse, s):
    try:
        return parse(s)
    except Graph6ParseError as e:
        return type(e), str(e), e.offset


# characters outside chr(63..126) that str.strip() keeps, so that the bad
# character stays where it was put
_BAD_CHARS = (st.integers(0, 62) | st.integers(127, 0x2FFF)).map(chr).filter(
    lambda ch: not ch.isspace())


@st.composite
def malformed_graph6(draw, kind):
    if kind == "size":
        # a four-byte size field beginning "~~" encodes an order above MAX_ORDER
        tail = draw(st.lists(st.integers(63, 126), max_size=8))
        return "~~" + "".join(map(chr, tail))
    if kind == "padding":
        orders = st.integers(2, 70).filter(lambda n: n * (n - 1) // 2 % 6)
    else:
        orders = st.integers(0, 70)
    G = draw(graphs_of_density(orders))
    s = emit_graph6(G)
    if kind == "char":
        i = draw(st.integers(0, len(s) - 1))
        return s[:i] + draw(_BAD_CHARS) + s[i + 1:]
    if kind == "truncate":
        return s[:draw(st.integers(0, len(s) - 1))]
    if kind == "trailing":
        return s + chr(draw(st.integers(63, 126)))
    bit = draw(st.integers(0, -(G.n * (G.n - 1) // 2) % 6 - 1))
    return s[:-1] + chr((ord(s[-1]) - 63 | 1 << bit) + 63)


@pytest.mark.parametrize("kind", ["char", "truncate", "trailing", "padding", "size"])
@PROPERTY
@given(data=st.data())
def test_graph6_errors_match_bitwise_oracle(kind, data):
    s = data.draw(malformed_graph6(kind))
    got = _parse_outcome(parse_graph6, s)
    assert isinstance(got, tuple), f"{s!r} parsed as {got!r}"
    assert got == _parse_outcome(parse_graph6_bitwise, s)
    # whitespace and a header before the string shift every offset by their length
    prefix = " \n>>graph6<<"
    error, message, offset = got
    moved = offset + len(prefix)
    assert _parse_outcome(parse_graph6, prefix + s) == (
        error, message.replace(f"offset {offset})", f"offset {moved})"), moved)


@PROPERTY
@given(graphs(max_n=70))
def test_edge_list_round_trip(G):
    H = parse_edge_list(emit_edge_list(G))
    assert H == G and _all_tuples(H)


def _build_outcome(build, *args):
    try:
        return build(*args)
    except ValueError as e:
        return type(e), str(e)


# a malformed edge line, three tokens or a non-integer one, with the
# error it raises
_MALFORMED = st.one_of(
    st.tuples(st.integers(-1, 12), st.integers(-1, 12), st.integers(-1, 12)).map(
        lambda t: ("%d %d %d" % t, "expected edge line 'u v', got '%d %d %d'" % t)),
    st.tuples(st.sampled_from(["x", "1.5"]), st.integers(-1, 12), st.booleans()).map(
        lambda t: (f"{t[0]} {t[1]}" if t[2] else f"{t[1]} {t[0]}",
                   f"invalid literal for int() with base 10: {t[0]!r}")))


@PROPERTY
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=40),
    st.lists(st.tuples(st.integers(0, 40), _MALFORMED), max_size=2))))
def test_edge_list_parse_matches_the_validating_constructor(case):
    # repeated, reversed, looped and out-of-range pairs in any order, with
    # malformed lines at any position: the parser gives Graph(n, pairs)'s
    # graph, or the error of the first faulty line, a bad pair's as Graph
    # gives it
    n, pairs, malformed = case
    lines = list(pairs)
    for at, bad in malformed:
        lines.insert(at, bad)
    first = next((i for i, ln in enumerate(lines) if isinstance(ln[0], str)), len(lines))
    want = _build_outcome(Graph, n, lines[:first])
    if first < len(lines) and isinstance(want, Graph):
        want = (ValueError, lines[first][1])
    text = f"{n} {len(lines)}\n" + "".join(
        (ln[0] if isinstance(ln[0], str) else "%d %d" % ln) + "\n" for ln in lines)
    got = _build_outcome(parse_edge_list, text)
    assert got == want
    assert not isinstance(got, Graph) or _all_tuples(got)


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


@PROPERTY
@given(graphs_of_density(st.integers(0, 12)), st.data())
def test_isolated_vertices_leave_iota_of_their_deletion(G, data):
    # certify_special_edge strips the dropped vertices of their edges
    # instead of deleting them: a vertex with no edge covers none
    flags = data.draw(st.lists(st.booleans(), min_size=G.n, max_size=G.n))
    drop = {v for v, dropped in enumerate(flags) if dropped}
    H = Graph(G.n, [e for e in G.edges() if drop.isdisjoint(e)])
    want = exact_isolation_number_recursive(remove_vertices(G, drop)[0]).iota
    assert exact_isolation_number(H).iota == want


@st.composite
def sparse_graphs(draw):
    # n < 60, general or bipartite, sparse enough that every rule fires
    n = draw(st.integers(1, 59))
    p = draw(st.integers(1, 30)) / 100
    rng = random.Random(draw(st.integers(0, 2**32)))
    if not draw(st.booleans()):
        return random_graph(rng, n, p)
    left = draw(st.integers(0, n))
    return Graph(n, [(u, v) for u in range(left) for v in range(left, n) if rng.random() < p])


@PROPERTY
@given(sparse_graphs(), st.sampled_from([WV, TF]))
def test_greedy_matches_from_scratch_oracle(G, wv):
    assert greedy_isolating_set(G, wv) == greedy_isolating_set_from_scratch(G, wv)


# primes, so that any five of them are pairwise coprime
_PRIMES = (2, 3, 5, 7, 11, 13, 41, 1009, 65537, 1000003, 2**31 - 1, 2**61 - 1)


@st.composite
def weight_vectors(draw):
    # omega > 0 and betas >= 0 over small assorted, large, or pairwise
    # coprime denominators; some beta is zero or equals the weight before it
    kind = draw(st.sampled_from(["assorted", "large", "coprime"]))
    if kind == "coprime":
        dens = draw(st.permutations(_PRIMES))[:5]
    else:
        top = 120 if kind == "assorted" else 10**18
        dens = draw(st.lists(st.integers(1, top), min_size=5, max_size=5))
    values = [F(draw(st.integers(1, 2 * d)), d) for d in dens]
    for i in range(1, 5):
        tweak = draw(st.sampled_from(["keep", "keep", "zero", "equal"]))
        if tweak != "keep":
            values[i] = F(0) if tweak == "zero" else values[i - 1]
    return WeightVector(*values)


def _scale(wv):
    """L, the lcm of the weights' denominators."""
    return math.lcm(*(x.denominator for x in wv))


@PROPERTY
@given(sparse_graphs(), weight_vectors())
def test_greedy_matches_from_scratch_oracle_over_arbitrary_weights(G, wv):
    # the engine sums integer weights over L; every xi is still the exact rational
    got = greedy_isolating_set(G, wv)
    assert got == greedy_isolating_set_from_scratch(G, wv)
    assert all(type(step.xi) is F for step in got[1].steps)


@pytest.mark.parametrize("where", ["xi", "initial_weight"])
@PROPERTY
@given(sparse_graphs(), weight_vectors(), st.data())
def test_replay_sees_nudges_finer_than_the_weights(where, G, wv, data):
    trace = greedy_isolating_set(G, wv)[1]
    assume(trace.steps)
    L = _scale(wv)
    nudge = data.draw(st.sampled_from([F(1, 7 * L), F(-1, L + 1)]))
    if where == "xi":
        i = data.draw(st.integers(0, len(trace.steps) - 1))
        steps = list(trace.steps)
        steps[i] = steps[i]._replace(xi=steps[i].xi + nudge)
        forged = trace._replace(steps=tuple(steps))
    else:
        forged = trace._replace(initial_weight=trace.initial_weight + nudge)
    got = verify_trace(G, forged, wv)
    assert got == verify_trace_from_scratch(G, forged, wv)
    assert got.xi_matches == (where != "xi") and got.header_ok == (where == "xi")


@PROPERTY
@given(sparse_graphs(), weight_vectors(), st.data())
def test_replay_prices_arbitrary_steps(G, wv, data):
    # disjoint sets of 1-3 vertices in any order rather than the greedy's
    # picks, so that steps also fall inside dominated regions; each xi is
    # the drop of the from-scratch residual weight
    order = data.draw(st.permutations(range(G.n)))
    sizes = data.draw(st.lists(st.integers(1, 3), max_size=G.n))
    steps, D = [], []
    for k in sizes:
        A = tuple(sorted(order[len(D):len(D) + k]))
        if not A:
            break
        steps.append(GreedyStep(GreedyRule.R1, A, xi(G, D, A, wv)))
        D.extend(A)
    trace = GreedyTrace(G.n, tuple(steps), tuple(sorted(D)), wv.omega * G.n)
    got = verify_trace(G, trace, wv)
    assert got.xi_matches
    assert got == verify_trace_from_scratch(G, trace, wv)


_UNITS = [WeightVector(*(F(int(j == k)) for j in range(5))) for k in range(5)]


@PROPERTY
@given(sparse_graphs(), st.lists(st.integers(0, 1000), min_size=4, max_size=4),
       st.integers(10**6, 10**15))
def test_replay_sees_a_drop_short_of_its_set_by_one_over_l(G, betas, start):
    # weights built so that the first step drops |A| - 1/L, the least
    # shortfall any drop can have when L is the lcm of the denominators;
    # c holds that step's Whites lost and Blues lost per class
    first = greedy_isolating_set(G, WV)[1].steps[:1]
    assume(first)
    A = first[0].vertices
    c = [int(xi(G, (), A, unit)) for unit in _UNITS]
    rest = sum(ci * b for ci, b in zip(c[1:], betas))
    for L in range(start, start + 200):
        a, r = divmod(len(A) * L - 1 - rest, c[0])
        if not r and math.gcd(a, L) == 1:
            break
    else:
        assume(False)
    wv = WeightVector(F(a, L), *(F(b, L) for b in betas))
    assert _scale(wv) == L
    step = greedy_isolating_set(G, wv)[1].steps[0]
    assert step.vertices == A and step.xi == len(A) - F(1, L)
    trace = GreedyTrace(G.n, (step,), A, wv.omega * G.n)
    got = verify_trace(G, trace, wv)
    assert got == verify_trace_from_scratch(G, trace, wv)
    assert got.xi_matches and got.partition_ok and not got.desirable


@st.composite
def white_cycle_graphs(draw):
    # disjoint cycles C_k (k = 3..14, k != 5) with short paths hung on
    # them; hubs of degree >= 5, mostly on the paths' first vertices, go
    # first under R1 and leave the cycles White for R5; labels are shuffled
    rng = random.Random(draw(st.integers(0, 2**32)))
    lengths = draw(st.lists(st.sampled_from([3, 4, *range(6, 15)]), min_size=1, max_size=4))
    edges, hung, n = [], [], 0
    for k in lengths:
        cycle = range(n, n + k)
        n += k
        edges += [(v, cycle[(i + 1) % k]) for i, v in enumerate(cycle)]
        for v in cycle:
            if rng.random() < 0.5:
                path = [v, *range(n, n + rng.randint(1, 3))]
                n += len(path) - 1
                edges += zip(path, path[1:])
                hung.append(path[1] if rng.random() < 0.8 else rng.choice(path[1:]))
    hubs = list(range(n, n + rng.randint(1, 3)))
    n += len(hubs)
    degree = dict.fromkeys(hubs, 0)
    for v in hung:
        hub = rng.choice(hubs)
        edges.append((v, hub))
        degree[hub] += 1
    for hub in hubs:  # leaves lift every hub to degree >= 5
        for _ in range(max(0, 5 - degree[hub]) + rng.randint(0, 1)):
            edges.append((hub, n))
            n += 1
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


@PROPERTY
@given(white_cycle_graphs(), st.sampled_from([WV, TF]))
def test_greedy_matches_from_scratch_oracle_on_white_cycles(G, wv):
    assert greedy_isolating_set(G, wv) == greedy_isolating_set_from_scratch(G, wv)


# (order, closed into a cycle): K2s, C5s and the paths P3, P4
SHORT = ((2, False), (2, False), (3, False), (4, False), (5, True), (5, True), (5, True))


@st.composite
def blue_spanner_graphs(draw, shapes=SHORT):
    # paths and cycles of the given shapes, with vertices x joined to one
    # to three of their vertices, often twice to one component; each x
    # hangs on a hub that leaves lift to degree >= 5, so R1 takes the hubs
    # first and the x turn Blue next to the components for R6; labels are
    # shuffled
    rng = random.Random(draw(st.integers(0, 2**32)))
    shapes = draw(st.lists(st.sampled_from(shapes), min_size=2, max_size=6))
    edges, comps, n = [], [], 0
    for k, closed in shapes:
        comp = range(n, n + k)
        n += k
        comps.append(comp)
        edges += zip(comp, comp[1:])
        if closed:
            edges.append((comp[-1], comp[0]))
    hubs = list(range(n, n + rng.randint(1, 2)))
    n += len(hubs)
    degree = dict.fromkeys(hubs, 0)
    for _ in range(rng.randint(1, 6)):
        x, hub = n, rng.choice(hubs)
        n += 1
        edges.append((x, hub))
        degree[hub] += 1
        picked = rng.sample(comps, min(2, len(comps)))
        at = [rng.choice(comp) for comp in picked for _ in range(rng.randint(1, 2))]
        edges += [(x, v) for v in set(at[:3])]
    for hub in hubs:
        for _ in range(max(0, 5 - degree[hub])):
            edges.append((hub, n))
            n += 1
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


@PROPERTY
@given(blue_spanner_graphs(), st.sampled_from([WV, TF]))
def test_greedy_matches_from_scratch_oracle_on_blue_spanners(G, wv):
    assert greedy_isolating_set(G, wv) == greedy_isolating_set_from_scratch(G, wv)


@PROPERTY
@given(blue_spanner_graphs(((2, False), (5, True), (7, False), (9, True), (12, False),
                            (6, True), (4, False), (5, True))),
       st.integers(0, 2**32))
def test_engine_matches_oracle_after_arbitrary_adds(G, seed):
    # long White paths and cycles beside K2s and C5s; at random steps one
    # or two random vertices go in place of the engine's pick and split
    # components anywhere, also once R6 has been reached. The R5 heap's
    # top check and the single R6 scan must still pick what the
    # from-scratch oracle picks, and after every add the engine's colors,
    # White degrees and histograms must be the oracle's
    rng = random.Random(seed)
    engine, D = _GreedyEngine(G, WV), set()
    state = compute_residual(G, D)
    while any(engine.white_hist):
        pick = engine.select()
        assert pick == select_desirable(state)
        A = set(rng.sample(range(G.n), rng.randint(1, 2))) if rng.random() < 0.3 else pick[1]
        D |= A
        engine.add(A)
        state = compute_residual(G, D)
        kept = engine.white, engine.wdeg, engine.white_hist, engine.blue_hist
        assert kept == engine_fields(state)


@st.composite
def certified_runs(draw):
    n = draw(st.integers(10, 59))
    seed = draw(st.integers(0, 2**32))
    if draw(st.booleans()):
        G, wv = random_bipartite_min_degree_graph(n, 4, seed), TF
    else:
        G, wv = random_min_degree_graph(n, 4, seed), WV
    trace = greedy_isolating_set(G, wv)[1]
    assume(len(trace.steps) >= 2)
    return G, wv, trace


def _replay_outcome(verify, G, trace, wv):
    try:
        return verify(G, trace, wv)
    except ValueError as e:
        return str(e)


@PROPERTY
@given(certified_runs(), st.sampled_from(["xi", "swap", "overlap", "range"]), st.data())
def test_verify_trace_matches_from_scratch_oracle(run, kind, data):
    G, wv, trace = run
    steps = list(trace.steps)
    i, j = sorted(data.draw(st.lists(st.integers(0, len(steps) - 1), min_size=2, max_size=2,
                                     unique=True)))
    rule, A, xi = steps[i].rule, steps[i].vertices, steps[i].xi
    if kind == "xi":
        steps[i] = GreedyStep(rule, A, xi + F(data.draw(st.integers(-5, 5).filter(bool)), 82))
    elif kind == "swap":
        steps[i], steps[j] = steps[j], steps[i]
    elif kind == "overlap":
        later = steps[j]
        shared = data.draw(st.sampled_from(A))
        steps[j] = GreedyStep(later.rule, tuple(sorted(later.vertices + (shared,))), later.xi)
    else:
        k = data.draw(st.integers(0, len(A) - 1))
        outside = data.draw(st.sampled_from([-1, G.n, G.n + 7]))
        steps[i] = GreedyStep(rule, A[:k] + (outside,) + A[k + 1:], xi)
    forged = GreedyTrace(trace.n, tuple(steps), trace.D, trace.initial_weight)
    got = _replay_outcome(verify_trace, G, forged, wv)
    assert got == _replay_outcome(verify_trace_from_scratch, G, forged, wv)
    if kind == "range":
        assert got == f"vertex {outside} is outside [0, {G.n})"
    elif kind != "swap":
        assert not got
