import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from isobound import (LinearRow, RowViolation, WeightVector,
                      build_constraints, check_feasible, check_optimality,
                      solve_min_omega)
from isobound.check import parse_rational
from isobound.lpweights import FEASIBLE_PROBE, VARIANTS

from graphs import TF, WV
from oracles import (check_feasible_fraction, row_slack, solve_min_omega_by_enumeration,
                     solve_min_omega_fraction, solve_min_omega_two_phase)

GOLDEN = {
    (4, "general"): F(13, 41),
    (5, "general"): F(23, 78),
    (4, "triangle-free"): F(3, 10),
    (5, "triangle-free"): F(9, 31),
    (3, "girth5"): F(11, 34),
    (3, "general"): F(5, 14),
}


def tag_prefix_census(rows: tuple[LinearRow, ...]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for row in rows:
        prefix = row.tag.split("-")[0]
        counts[prefix] = counts.get(prefix, 0) + 1
    return counts


@pytest.mark.parametrize("delta", [3, 4, 5, 7])
def test_row_counts(delta):
    assert len(build_constraints(delta, "general")) == 22
    assert len(build_constraints(delta, "triangle-free")) == 20
    assert len(build_constraints(delta, "girth5")) == 19


def test_row_census_delta4_general():
    rows = build_constraints(4, "general")
    assert tag_prefix_census(rows) == {
        "r1": 2, "r2": 1, "r3": 1, "r4": 1, "r5": 1, "r6": 3, "r7": 5,
        "chain": 5, "step": 3,
    }
    tags = [r.tag for r in rows]
    assert tags[10] == "r7-k2-min-beta2"
    assert tags[13] == "r7-c5-min-beta3"
    assert tags.index("r1-white-degree-ge5") == 0


def test_rows_scale_with_delta():
    rows5 = build_constraints(5, "general")
    r3 = next(r for r in rows5 if r.tag == "r3-white-degree-3")
    assert r3.coeffs == tuple(F(x) for x in (4, 0, -3, -8, 8))
    r5 = next(r for r in rows5 if r.tag == "r5-component-per-vertex")
    assert r5.coeffs == tuple(F(x) for x in (1, 0, -3, 3, 0))
    assert r5.rhs == F(1, 3)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError, match="minimum degree"):
        build_constraints(2)
    with pytest.raises(ValueError, match="variant"):
        build_constraints(4, "chordal")


@pytest.mark.parametrize("key,expected", sorted(GOLDEN.items(), key=str))
def test_golden_optima(key, expected):
    delta, variant = key
    sol = solve_min_omega(build_constraints(delta, variant))
    assert sol.witness.omega == expected
    ok, bad = check_feasible(build_constraints(delta, variant), sol.witness)
    assert ok and not bad
    assert sol.witness.beta1 > 0
    assert sol.tight_rows, "an optimal vertex has tight rows"


def test_delta4_witness_is_known_vector():
    sol = solve_min_omega(build_constraints(4, "general"))
    assert sol.witness == WV


def test_delta3_general_exceeds_one_third():
    assert GOLDEN[(3, "general")] > F(1, 3)
    sol = solve_min_omega(build_constraints(3, "general"))
    assert sol.witness.omega > F(1, 3)


def test_known_vectors_feasible():
    ok, bad = check_feasible(build_constraints(4, "general"), WV)
    assert ok and bad == ()
    ok, bad = check_feasible(build_constraints(4, "triangle-free"), TF)
    assert ok and bad == ()


def test_tf_vector_in_general_system_fails_two_rows():
    rows = build_constraints(4, "general")
    ok, bad = check_feasible(rows, TF)
    assert not ok
    assert [v.index for v in bad] == [10, 13]
    by_tag = {v.row.tag: v.slack for v in bad}
    assert by_tag == {
        "r7-k2-min-beta2": F(-1, 10),
        "r7-c5-min-beta3": F(-1, 12),
    }


def test_omega_cannot_be_undercut():
    for (delta, variant), omega in GOLDEN.items():
        rows = build_constraints(delta, variant)
        wv = solve_min_omega(rows).witness
        for shave in (F(1, 10**6), F(1, 100)):
            worse = WeightVector(wv.omega - shave, wv.beta1, wv.beta2,
                                 wv.beta3, wv.beta4)
            ok, bad = check_feasible(rows, worse)
            assert not ok and len(bad) >= 1, (delta, variant, shave)


def test_min_term_expansion_matches_direct_minimum():
    # the pair of k2 rows is equivalent to 2w + 2(d-1)*min(b1, b2/2) >= 1,
    # the c5 triple to 5w + 5(d-2)*min(b1, b2/2, b3/3) >= 2
    rng = random.Random(99)
    for delta in (4, 5):
        rows = {r.tag: r for r in build_constraints(delta, "general")}
        for _ in range(200):
            p = tuple(F(rng.randrange(0, 40), rng.randrange(1, 60)) for _ in range(5))
            w, b1, b2, b3, _ = p
            k2_direct = 2 * w + 2 * (delta - 1) * min(b1, b2 / 2) >= 1
            k2_rows = (row_slack(rows["r7-k2-min-beta1"], p) >= 0
                       and row_slack(rows["r7-k2-min-beta2"], p) >= 0)
            assert k2_direct == k2_rows
            c5_direct = 5 * w + 5 * (delta - 2) * min(b1, b2 / 2, b3 / 3) >= 2
            c5_rows = all(row_slack(rows[t], p) >= 0 for t in
                          ("r7-c5-min-beta1", "r7-c5-min-beta2", "r7-c5-min-beta3"))
            assert c5_direct == c5_rows


def test_general_feasible_implies_relaxed_variants():
    # the triangle-free and girth5 endgame rows are subsets of the
    # general ones, so feasibility can only get easier
    wv = solve_min_omega(build_constraints(4, "general")).witness
    assert check_feasible(build_constraints(4, "triangle-free"), wv)[0]
    assert check_feasible(build_constraints(4, "girth5"), wv)[0]
    wv_tf = solve_min_omega(build_constraints(4, "triangle-free")).witness
    assert check_feasible(build_constraints(4, "girth5"), wv_tf)[0]


def test_tight_rows_have_zero_slack():
    # the solver reads tight rows off its reduced costs; this recomputes
    # every row's slack in Fraction
    for delta in range(3, 61):
        for variant in VARIANTS:
            rows = build_constraints(delta, variant)
            sol = solve_min_omega(rows)
            assert len(sol.tight_rows) >= 5, (delta, variant)
            pt = tuple(sol.witness)
            for i, row in enumerate(rows):
                if i in sol.tight_rows:
                    assert row_slack(row, pt) == 0, (delta, variant, i)
                else:
                    assert row_slack(row, pt) > 0, (delta, variant, i)


def test_row_evaluate_and_str():
    row = LinearRow(tuple(F(x) for x in (2, 3, 0, 0, 0)), F(1), "r7-k2-min-beta1")
    assert row_slack(row, (F(1, 2), F(1, 3), F(0), F(0), F(0))) == 1
    assert row_slack(row, (F(1, 2), F(0), F(0), F(0), F(0))) == 0
    assert "2*omega" in str(row) and "beta2" not in str(row)


def _rational_outcome(read, value):
    try:
        return read(value)
    except (ValueError, ZeroDivisionError) as e:
        return type(e)


@pytest.mark.parametrize("value", ["3/10", "03/10", "0/7", "3/0", "-3/10", "+3/10", "3/-10",
                                   "/3", "3/", "/", "3/10/2", " 3/10", "3 /10", "3",
                                   "\u0663/\u0661\u0660", "3/\u00b2", 7])
def test_parse_rational_reads_as_fraction_does(value):
    # the ASCII "p/q" shortcut gives Fraction(value)'s value or its error
    got = _rational_outcome(parse_rational, value)
    assert got == _rational_outcome(F, value)
    assert type(got) is F or got in (ValueError, ZeroDivisionError)


def test_weight_vector_reads_each_weight_as_a_fraction():
    wv = WeightVector(1, "1/10", F(1, 10), 0, 0)
    assert tuple(wv) == (F(1), F(1, 10), F(1, 10), F(0), F(0))
    assert all(type(x) is F for x in wv)
    assert repr(wv) == ("WeightVector(omega=Fraction(1, 1), beta1=Fraction(1, 10), "
                        "beta2=Fraction(1, 10), beta3=Fraction(0, 1), beta4=Fraction(0, 1))")


def test_weight_json_rejects_bad_rationals():
    assert parse_rational("1/" + "7" * 998) == F(1, int("7" * 998))  # 1,000 characters
    with pytest.raises(ValueError, match="longer than 1000 characters"):
        parse_rational("1" * 1001)
    with pytest.raises(ValueError, match="must be an object"):
        WeightVector.from_json_dict([1, 2])
    for omega in ([1], "1/0"):
        d = dict(TF.to_json_dict(), omega=omega)
        with pytest.raises(ValueError, match="malformed weight vector JSON"):
            WeightVector.from_json_dict(d)


def test_solution_and_system_json():
    rows = build_constraints(4, "general")
    sol = solve_min_omega(rows)
    d = sol.to_json_dict()
    assert d["status"] == "optimal"
    assert d["optimal_omega"] == "13/41"
    assert WeightVector.from_json_dict(d["witness"]) == sol.witness
    assert d["tight_rows"] == list(sol.tight_rows)
    assert d["dual"] == [str(y) for y in sol.dual] and len(d["dual"]) == 22
    # the whole report, in key order, with the witness nested
    assert list(solve_min_omega(build_constraints(4, "triangle-free")).to_json_dict().items()) == [
        ("status", "optimal"), ("optimal_omega", "3/10"),
        ("witness", {"omega": "3/10", "beta1": "1/15", "beta2": "1/10", "beta3": "1/8",
                     "beta4": "3/20"}),
        ("tight_rows", [1, 3, 9, 11, 17]),
        ("dual", ["0", "1/16", "0", "1/16", "0", "0", "0", "0", "0", "0", "0", "7/80", "0", "0",
                  "0", "0", "0", "1/4", "0", "0"])]


@pytest.mark.parametrize("key", sorted(GOLDEN, key=str))
def test_simplex_matches_basis_enumeration(key):
    rows = build_constraints(*key)
    fast, slow = solve_min_omega(rows), solve_min_omega_by_enumeration(rows)
    assert (fast.witness, fast.tight_rows) == (slow.witness, slow.tight_rows)


@pytest.mark.parametrize("variant", VARIANTS)
def test_dual_simplex_matches_two_phase(variant):
    # the largest delta carry the largest integers in the tableau
    for delta in (*range(3, 61), 100, 200, 299):
        rows = build_constraints(delta, variant)
        sol = solve_min_omega(rows)
        assert sol == solve_min_omega_fraction(rows) == solve_min_omega_two_phase(rows), delta
        assert check_optimality(rows, sol), delta


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(3, 12), st.sampled_from(VARIANTS), st.data())
def test_dual_simplex_matches_two_phase_on_degenerate_systems(delta, variant, data):
    # extra rows the probe satisfies keep the optimum below 1/2, so the
    # witness stays positive and both duals must certify; duplicates and
    # rows through the probe make the system degenerate
    rows = build_constraints(delta, variant)
    n = len(rows)
    extra = [rows[i] for i in data.draw(st.lists(st.integers(0, n - 1), max_size=6))]
    probe = tuple(FEASIBLE_PROBE)
    for coeffs in data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 5), max_size=6)):
        below = data.draw(st.sampled_from([F(0), F(1, 20), F(1, 10), F(1)]))
        rhs = sum((c * x for c, x in zip(coeffs, probe)), -below)
        extra.append(LinearRow(tuple(map(F, coeffs)), rhs, "random"))
    rows += tuple(extra)
    # the two-phase dual may differ on a degenerate optimum; the Fraction
    # dual simplex pivots like the integer one, so its dual must match
    fast, slow = solve_min_omega(rows), solve_min_omega_two_phase(rows)
    assert fast == solve_min_omega_fraction(rows)
    assert (fast.witness, fast.tight_rows) == (slow.witness, slow.tight_rows)
    assert check_optimality(rows, fast) and check_optimality(rows, slow)


def test_feasible_probe_satisfies_every_system():
    # solve_min_omega raises without it, and beta1 > 0 at the optimum
    # (see build_constraints) rests on omega* <= 9/20
    for delta in range(3, 300):
        for variant in VARIANTS:
            assert check_feasible(build_constraints(delta, variant), FEASIBLE_PROBE)[0], \
                (delta, variant)


def test_solve_rejects_system_the_probe_violates():
    rows = build_constraints(4, "general")
    half = LinearRow((F(1), F(0), F(0), F(0), F(0)), F(1, 2), "omega-ge-half")
    with pytest.raises(AssertionError, match="^constraint system rejected the feasible probe$"):
        solve_min_omega(rows + (half,))


@pytest.mark.parametrize("variant", VARIANTS)
def test_check_feasible_matches_fraction_oracle(variant):
    for delta in (*range(3, 61), 100, 200, 299):
        rows = build_constraints(delta, variant)
        wv = solve_min_omega(rows).witness
        shaved = [WeightVector(*(x - F(1, 10**6) * (j == k) for j, x in enumerate(wv)))
                  for k in range(5)]
        for point in (FEASIBLE_PROBE, wv, WV, TF, *shaved):
            want = check_feasible_fraction(rows, point)
            assert check_feasible(rows, point) == want, (delta, point)


RATIONALS = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.tuples(*[RATIONALS] * 5), st.data())
def test_check_feasible_matches_fraction_oracle_on_random_rows(point, data):
    # a row's rhs is drawn, or set so that its slack at the point is a
    # drawn value: zero, or as small as 1/10**6 of either sign
    rows = []
    for i, coeffs in enumerate(data.draw(st.lists(st.tuples(*[RATIONALS] * 5), max_size=8))):
        if data.draw(st.booleans()):
            rhs = data.draw(RATIONALS)
        else:
            offset = data.draw(st.sampled_from([F(0), F(1, 10**6), F(-1, 10**6)]) | RATIONALS)
            rhs = sum((c * x for c, x in zip(coeffs, point)), -offset)
        rows.append(LinearRow(coeffs, rhs, f"random-{i}"))
    rows, wv = tuple(rows), WeightVector(*point)
    assert check_feasible(rows, wv) == check_feasible_fraction(rows, wv)


def test_check_feasible_exact_at_coprime_denominators():
    p, q = 999983, 1000003
    row = LinearRow((F(1, p), F(-1, q), F(0), F(0), F(0)), F(0), "coprime")
    rows = (row,)
    assert check_feasible(rows, WeightVector(F(1, q), F(1, p), 0, 0, 0)) == (True, ())
    # q*x - p*k = 1, so the point below has slack -1/(7pq), the least
    # nonzero slack of a point with denominator 7
    x = pow(q, -1, p)
    k = (q * x - 1) // p
    miss = WeightVector(F(p - x, 7), F(q - k, 7), 0, 0, 0)
    assert check_feasible(rows, miss) == (False, (RowViolation(0, row, F(-1, 7 * p * q)),))


def test_check_optimality_accepts_and_rejects():
    sols = {key: solve_min_omega(build_constraints(*key)) for key in GOLDEN}
    for key, sol in sols.items():
        rows = build_constraints(*key)
        assert check_optimality(rows, sol), key
        i = next(i for i, y in enumerate(sol.dual) if y)
        negated = sol.dual[:i] + (-sol.dual[i],) + sol.dual[i + 1:]
        assert not check_optimality(rows, sol._replace(dual=negated)), key
        dropped = sol.dual[:i] + (F(0),) + sol.dual[i + 1:]
        assert not check_optimality(rows, sol._replace(dual=dropped)), key
        # an all-zero dual has an empty support, so A^T y = 0
        assert not check_optimality(rows, sol._replace(dual=(F(0),) * len(sol.dual))), key
        # the shifted witness stays feasible, so only b.y = omega* fails
        up = sol.witness.omega + F(1, 10**6)
        shifted = sol._replace(witness=sol.witness._replace(omega=up))
        assert check_feasible(rows, shifted.witness)[0]
        assert not check_optimality(rows, shifted), key
        for other, theirs in sols.items():
            if other != key:
                assert not check_optimality(rows, sol._replace(dual=theirs.dual)), (key, other)
        # step-eps2-le-beta1 is chain-beta1-nonneg minus chain-beta2-ge-beta1,
        # so this y still has A^T y = e_omega and b.y = omega*, but y < 0
        tags = [row.tag for row in rows]
        moved = list(sol.dual)
        moved[tags.index("chain-beta1-nonneg")] += 1
        moved[tags.index("chain-beta2-ge-beta1")] -= 1
        moved[tags.index("step-eps2-le-beta1")] -= 1
        assert min(moved) < 0
        assert not check_optimality(rows, sol._replace(dual=tuple(moved))), key
        # a rhs-0 row keeps y >= 0 and b.y = omega* but breaks A^T y = e_omega
        extra = list(sol.dual)
        extra[tags.index("chain-beta1-nonneg")] += 1
        assert not check_optimality(rows, sol._replace(dual=tuple(extra))), key
        infeasible = sol._replace(witness=sol.witness._replace(beta1=F(0)))
        assert not check_optimality(rows, infeasible), key
