import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from isobound import (Graph, GadgetCertificate, SearchBudgetExceeded, exact, chain,
                      certify_special_edge, exact_isolation_number, greedy_isolating_set,
                      is_isolating, prism_k4, metacirculant_14, random_min_degree_graph,
                      random_regular_graph, verify_trace)
from isobound.exact import _edge_masks, _greedy_cover_seed
from isobound.greedy import _r5_set

from graphs import (COMPLEMENT_OF_C7, TF, TRIANGLE_FREE_12, WV, complete_graph, cycle_graph,
                    path_graph)
from oracles import (brute_force_isolation, exact_isolation_number_by_lists,
                     exact_isolation_number_recursive, girth, greedy_cover_seed_by_rescan,
                     greedy_cover_seed_by_scan, is_isolating_direct,
                     path_cycle_min_isolating, random_graph, remove_vertices)


def test_known_values():
    assert exact_isolation_number(Graph(2, [(0, 1)])).iota == 1
    assert exact_isolation_number(prism_k4().F).iota == 2
    assert exact_isolation_number(metacirculant_14().F).iota == 3
    assert exact_isolation_number(complete_graph(5)).iota == 1
    assert exact_isolation_number(Graph(3, [])).iota == 0


@pytest.mark.parametrize("G, g, wv, iota", [(COMPLEMENT_OF_C7, 3, WV, 2),
                                             (TRIANGLE_FREE_12, 4, TF, 3)])
def test_extremal_records_meet_the_certified_bound(G, g, wv, iota):
    # the best known iota/n for minimum degree 4 (2/7, and 1/4 with no
    # triangle) is exact, and the certified greedy reaches floor(omega*n)
    assert set(map(len, G.adj)) == {4} and girth(G) == g
    assert brute_force_isolation(G)[0] == exact_isolation_number(G).iota == iota
    S, trace = greedy_isolating_set(G, wv)
    assert len(S) == math.floor(wv.omega * G.n) == iota
    assert verify_trace(G, trace, wv)


def test_witness_is_isolating_and_minimal():
    rng = random.Random(77)
    for _ in range(120):
        g = random_graph(rng, rng.randrange(1, 10), rng.uniform(0.15, 0.8))
        res = exact_isolation_number(g)
        assert is_isolating(g, res.witness)
        assert res.iota == brute_force_isolation(g)[0]


def test_size_cap_decision_mode():
    g = cycle_graph(9)  # iota = 3
    hit = exact_isolation_number(g, size_cap=3)
    assert hit.witness is not None and len(hit.witness) <= 3
    assert is_isolating_direct(g, hit.witness)
    miss = exact_isolation_number(g, size_cap=2)
    assert miss.witness is None and miss.iota is None
    assert exact_isolation_number(g, size_cap=0).witness is None
    with pytest.raises(ValueError):
        exact_isolation_number(g, size_cap=-1)


def test_capped_hit_reports_no_iota():
    # iota is 6, but the first set found under cap 12 has 8 vertices:
    # an upper bound only, so a capped result names no iota
    g = random_regular_graph(32, 4, 3)
    assert exact_isolation_number(g).iota == 6
    hit = exact_isolation_number(g, size_cap=12)
    assert hit.iota is None and len(hit.witness) == 8 and is_isolating(g, hit.witness)
    # with no edge the root is a leaf: the capped search counts it as a hit
    edgeless = Graph(3, [])
    assert (exact_isolation_number(edgeless, size_cap=2)
            == exact.ExactResult(None, (), 1, None, 1, 0))
    assert exact_isolation_number(edgeless) == exact.ExactResult(0, (), 1, 0, 0, 0)


def test_non_isolating_witness_raises(monkeypatch):
    monkeypatch.setattr(exact, "is_isolating", lambda G, S: False)
    with pytest.raises(AssertionError, match="search returned a non-isolating witness"):
        exact_isolation_number(complete_graph(4))


def test_budget_error_is_distinct_from_none(monkeypatch):
    g = random_graph(random.Random(5), 14, 0.35)
    monkeypatch.setattr(exact, "NODE_BUDGET", 1)
    with pytest.raises(SearchBudgetExceeded):
        exact_isolation_number(g)
    # a capped miss is an answer, not an error
    assert exact_isolation_number(cycle_graph(8), size_cap=1).witness is None


def test_deletion_changes_iota_by_at_most_one_downward():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 9), 0.5)
        base = exact_isolation_number(g).iota
        for v in range(g.n):
            h, _ = remove_vertices(g, [v])
            assert base <= exact_isolation_number(h).iota + 1


def test_determinism():
    g = random_graph(random.Random(3), 9, 0.4)
    a = exact_isolation_number(g)
    b = exact_isolation_number(g)
    assert a == b


# ---------------------------------------------------------------------------
# differential: the bitmask search against the recursive frozenset search.
# Candidate dominance may swap a vertex of a set for one covering more, so
# the searches agree on iota and on each decision answer, not on witnesses


def _same_answer(g, got, want, cap):
    assert got.iota == want.iota
    assert (got.witness is None) == (want.witness is None)
    if got.witness is not None:
        size = len(got.witness)
        assert is_isolating_direct(g, got.witness)
        assert (size == got.iota) if cap is None else (size <= cap)
    assert got.explored <= want.explored


def _same_as_recursive(g, cap=None):
    got = exact_isolation_number(g, size_cap=cap)
    want = exact_isolation_number_recursive(g, size_cap=cap)
    _same_answer(g, got, want, cap)
    return got, want


def _corpus():
    # (graph, cap): the two chains, a decision run one below the prism
    # chain's iota = 6, and ten random 4-regular graphs
    out = [(chain(prism_k4(), 3), None), (chain(prism_k4(), 3), 5),
           (chain(metacirculant_14(), 2), None)]
    out += [(random_regular_graph(24, 4, seed), None) for seed in range(10)]
    return out


def test_bitmask_search_matches_recursive_search_on_corpus():
    pairs = [_same_as_recursive(g, cap) for g, cap in _corpus()]
    assert [got.iota for got, _ in pairs[:3]] == [6, None, 6]
    # one level below the incumbent only vertices covering every alive
    # edge become children, and further up no vertex whose alive cover
    # another candidate holds; without dominance the three chain runs take
    # 536, 536 and 862 nodes, and without the filter too 1,870, 1,870
    # and 4,056
    assert [got.explored for got, _ in pairs[:3]] == [91, 91, 273]
    assert [got.dominated for got, _ in pairs[:3]] == [101, 101, 234]
    # the packing bound prunes somewhere on the corpus
    assert sum(got.explored for got, _ in pairs) < sum(want.explored for _, want in pairs)


def test_bitmask_search_matches_recursive_search_one_below_and_at_iota():
    # a refutation at iota - 1 walks the whole tree; a hit at iota stops
    # at the first leaf, which the filter must not skip
    for g, _ in _corpus():
        iota = exact_isolation_number_recursive(g).iota
        for cap in (iota - 1, iota):
            got, _ = _same_as_recursive(g, cap)
            assert (got.witness is None) == (cap < iota)


def test_dominance_keeps_the_lowest_twin_and_the_wider_cover():
    # three K2's: both ends of an edge cover just that edge, so each frame
    # keeps the lower end; dropping both twins would lose every set
    res = exact_isolation_number(Graph(6, [(0, 1), (2, 3), (4, 5)]), size_cap=3)
    assert (res.witness, res.explored, res.dominated) == ((0, 2, 4), 4, 2)
    # the path 3-0-2-6 and the path 1-5-4: the root branches on edge 03,
    # whose candidates 0 and 2 cover the whole first path and 3 misses
    # edge 26, so 2 (a later twin) and 3 (narrower) are dropped; keeping
    # 3 in place of the wider 0 would lose the only 2-sets
    g = Graph(7, [(0, 2), (0, 3), (1, 5), (2, 6), (4, 5)])
    res = exact_isolation_number(g, size_cap=2)
    assert (res.witness, res.explored, res.dominated) == ((0, 1), 3, 2)


def test_gadget_certificates_match_recursive_search():
    # the four exact solves behind certify-edge, each against the oracle
    for gadget in (prism_k4(), metacirculant_14()):
        x, y = gadget.special_edge
        want = [exact_isolation_number_recursive(remove_vertices(gadget.F, drop)[0]).iota
                for drop in ((), (x,), (y,), (x, y))]
        assert certify_special_edge(gadget) == GadgetCertificate(gadget.b, *want)


def _cover_seed(g):
    return _greedy_cover_seed(_edge_masks(g), g.num_edges)


def test_optimal_seed_is_never_updated():
    # the greedy seed of the 4-copy prism chain already has iota = 8 vertices
    g = chain(prism_k4(), 4)
    res = exact_isolation_number(g)
    assert (res.iota, res.seed_size, res.incumbent_updates) == (8, 8, 0)
    assert res.witness == tuple(sorted(_cover_seed(g)))
    capped = exact_isolation_number(g, size_cap=8)
    assert (capped.seed_size, capped.incumbent_updates) == (None, 1)
    assert exact_isolation_number(Graph(3, [])).seed_size == 0


def test_cover_seed_matches_scan_seed_on_corpus():
    for g, _ in _corpus():
        closed = [frozenset({v, *g.adj[v]}) for v in range(g.n)]
        assert _cover_seed(g) == greedy_cover_seed_by_scan(g, closed)


def test_lazy_cover_seed_matches_rescan_at_n_2000():
    # gains only fall, so the lazy heap picks what a full rescan picks;
    # the frozenset scan oracle is cubic (about 5 s at n = 600), so it
    # checks the rescan at n = 200 and the rescan checks n = 2,000
    small = random_min_degree_graph(200, 4, 1)
    closed = [frozenset({v, *small.adj[v]}) for v in range(small.n)]
    assert greedy_cover_seed_by_rescan(small) == greedy_cover_seed_by_scan(small, closed)
    g = random_min_degree_graph(2000, 4, 1)
    seed = _cover_seed(g)
    assert seed == greedy_cover_seed_by_rescan(g)
    assert is_isolating(g, seed)


# ---------------------------------------------------------------------------
# differential: nodes within two of the incumbent decided from per-vertex
# edge masks, against the search that builds every node's alive-edge list


def _same_as_lists(g, cap=None):
    got = exact_isolation_number(g, size_cap=cap)
    want = exact_isolation_number_by_lists(g, size_cap=cap)
    _same_answer(g, got, want, cap)
    assert got.seed_size == want.seed_size
    return got


def test_mask_search_matches_list_search():
    graphs = [g for g, _ in _corpus()]
    graphs += [random_regular_graph(n, 4, seed) for n in (32, 40) for seed in range(3)]
    for gadget in (prism_k4(), metacirculant_14()):
        x, y = gadget.special_edge
        graphs += [remove_vertices(gadget.F, drop)[0] for drop in ((), (x,), (y,), (x, y))]
    for g in graphs:
        # no cap, a refutation one below iota and a hit at iota
        iota = _same_as_lists(g).iota
        for cap in (iota - 1, iota):
            _same_as_lists(g, cap)


def test_searches_starting_within_two_of_the_incumbent():
    # a seed of one or two vertices, or a cap of at most 2, puts the root
    # within two of the incumbent, so it too is decided from edge masks
    star = Graph(5, [(0, i) for i in range(1, 5)])
    graphs = [star, path_graph(5), cycle_graph(5), cycle_graph(6), complete_graph(4),
              Graph(4, [(0, 1), (2, 3)]), Graph(4, [(0, 1)])]
    for g in graphs:
        res = _same_as_lists(g)
        assert res.seed_size in (1, 2)
        for cap in (0, 1, 2):
            _same_as_lists(g, cap)
    # iota = 2 = seed size: no vertex covers every edge, so the root is
    # the only node
    for g in (cycle_graph(5), cycle_graph(6), Graph(4, [(0, 1), (2, 3)])):
        assert exact_isolation_number(g).explored == 1


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(0, 14), st.integers(0, 100), st.integers(0, 2**32),
       st.sampled_from([None, 0, 1, 2, 3, 4]))
def test_bitmask_search_matches_recursive_and_brute_force(n, percent, seed, cap):
    g = random_graph(random.Random(seed), n, percent / 100)
    got, _ = _same_as_recursive(g, cap)
    _same_as_lists(g, cap)
    if n <= 10:
        iota = brute_force_isolation(g)[0]
        if cap is None:
            assert got.iota == iota
        else:
            assert (got.witness is not None) == (iota <= cap)


# ---------------------------------------------------------------------------
# path / cycle closed form: the greedy's R5 set of a whole-graph component


def _r5(g):
    return tuple(sorted(_r5_set(g, tuple(range(g.n)))))


def test_dp_small_examples():
    assert len(_r5(path_graph(4))) == 1
    assert len(_r5(cycle_graph(4))) == 1
    assert len(_r5(cycle_graph(6))) == 2


def test_dp_equals_brute_force():
    for n in range(3, 13):
        p = path_graph(n)
        got = _r5(p)
        assert is_isolating_direct(p, got)
        assert len(got) == brute_force_isolation(p)[0]
    for n in range(3, 13):
        if n == 5:
            continue
        c = cycle_graph(n)
        got = _r5(c)
        assert is_isolating_direct(c, got)
        assert len(got) == brute_force_isolation(c)[0]


def test_dp_closed_forms():
    # frozen regression values observed from the brute-force runs:
    # paths need ceil((n-1)/4), cycles ceil(n/4)
    for n in range(3, 40):
        assert len(_r5(path_graph(n))) == -(-(n - 1) // 4)
    for n in range(3, 40):
        if n != 5:
            assert len(_r5(cycle_graph(n))) == -(-n // 4)
    # the chosen sets are pinned too, since greedy R5 traces record them
    for n, want in ((5, (2,)), (6, (2, 5)), (9, (2, 6)), (10, (2, 6, 9))):
        assert _r5(path_graph(n)) == want
    for n, want in ((3, (2,)), (4, (3,)), (8, (3, 7)), (9, (3, 7, 8))):
        assert _r5(cycle_graph(n)) == want
    relabeled = (
        (Graph(5, [(3, 0), (0, 4), (4, 1), (1, 2)]), (4,)),
        (Graph(7, [(5, 2), (2, 6), (6, 0), (0, 3), (3, 1), (1, 4)]), (3, 5)),
        (Graph(6, [(0, 4), (4, 2), (2, 5), (5, 1), (1, 3), (3, 0)]), (4, 5)),
    )
    for g, want in relabeled:
        assert _r5(g) == want


def test_dp_matches_relabeled_copy_oracle():
    rng = random.Random(41)
    for n in range(3, 40):
        for closed in (False, True):
            if closed and n == 5:
                continue
            perm = rng.sample(range(n), n)
            edges = [(perm[i], perm[i + 1]) for i in range(n - 1)]
            if closed:
                edges.append((perm[-1], perm[0]))
            g = Graph(n, edges)
            assert _r5(g) == path_cycle_min_isolating(g), g


def test_dp_rejects_non_path_cycle():
    chorded_path = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    # K1, K2 and C5 break 3|A| <= n, so R5 never takes them
    for g in (complete_graph(4), Graph(4, [(0, 1), (2, 3)]), star, chorded_path,
              path_graph(1), path_graph(2), cycle_graph(5)):
        with pytest.raises(AssertionError):
            _r5(g)


def test_dp_deterministic():
    c = cycle_graph(11)
    assert _r5(c) == _r5(c)
