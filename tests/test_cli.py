import argparse
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from isobound import (__version__, chain, cli, emit_edge_list, emit_graph6, exact,
                      metacirculant_14, prism_k4, random_bipartite_min_degree_graph,
                      random_min_degree_graph, random_regular_graph)
from isobound.cli import main

from graphs import (COMPLEMENT_OF_C7, INPUT_FORMS, TF, TRIANGLE_FREE_12, complete_graph,
                    cycle_graph, path_graph)


@pytest.fixture
def prism_file(tmp_path):
    p = tmp_path / "prism.g6"
    p.write_text(emit_graph6(prism_k4().F) + "\n")
    return str(p)


@pytest.fixture
def chain_file(tmp_path):
    p = tmp_path / "chain2.g6"
    p.write_text(emit_graph6(chain(prism_k4(), 2)) + "\n")
    return str(p)


def test_lp_weights_golden(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["lp-weights", "--delta", "4", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "omega = 13/41" in text
    assert text.splitlines()[-1] == "certified: true"
    report = json.loads(out.read_text())
    assert report["command"] == "lp-weights"
    assert report["version"]
    assert report["argv"][0] == "lp-weights"
    assert report["results"]["optimal_omega"] == "13/41"
    assert report["results"]["witness"]["omega"] == "13/41"
    assert report["results"]["tight_row_tags"]
    assert len(report["results"]["dual"]) == 22
    assert report["timing_seconds"] >= 0


def test_lp_weights_uncertified_exits_1(monkeypatch, capsys):
    solve = cli.solve_min_omega

    def no_dual(rows):
        return solve(rows)._replace(dual=())

    # warm the lp-weights parser first: the patch must still take effect
    assert main(["lp-weights", "--delta", "4"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "solve_min_omega", no_dual)
    assert main(["lp-weights", "--delta", "4"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "certified: false"


def test_exact_prism(prism_file, capsys):
    assert main(["exact", "--in", prism_file]) == 0
    text = capsys.readouterr().out
    assert "iota = 2" in text
    assert "explored" in text


def test_exact_cap_miss_is_still_success(chain_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["exact", "--in", chain_file, "--cap", "3", "--out", str(out)]) == 0
    assert "no isolating set of size <= 3" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["results"]["iota"] is None
    assert report["results"]["size_cap"] == 3
    assert report["results"]["seed_size"] is None
    assert report["results"]["incumbent_updates"] == 0


def test_exact_report_counts_incumbent_updates(tmp_path, capsys):
    p, out = tmp_path / "chain4.g6", tmp_path / "r.json"
    p.write_text(emit_graph6(chain(prism_k4(), 4)) + "\n")
    assert main(["exact", "--in", str(p), "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    # the greedy seed is already optimal, so the search only refutes 7
    assert (results["seed_size"], results["incumbent_updates"]) == (8, 0)
    # stdout keeps its three lines; the new counts are in the report only
    assert capsys.readouterr().out.splitlines() == [
        "iota = 8", f"witness = {results['witness']}", "explored = 494"]


# the results are ExactResult's fields in order, then size_cap
@pytest.mark.parametrize("cap,results", [
    (None, {"iota": 3, "witness": [0, 6, 9], "explored": 18, "seed_size": 4,
            "incumbent_updates": 1, "dominated": 2}),
    (3, {"iota": None, "witness": [0, 6, 9], "explored": 10, "seed_size": None,
         "incumbent_updates": 1, "dominated": 2}),
    (2, {"iota": None, "witness": None, "explored": 7, "seed_size": None,
         "incumbent_updates": 0, "dominated": 0}),
], ids=["exact", "cap-hit", "cap-miss"])
def test_exact_report_results_are_golden(cap, results, tmp_path, capsys):
    p, out = tmp_path / "rr16.g6", tmp_path / "r.json"
    p.write_text(emit_graph6(random_regular_graph(16, 4, 3)) + "\n")
    argv = ["exact", "--in", str(p), "--out", str(out)]
    assert main(argv + ["--cap", str(cap)] * (cap is not None)) == 0
    got = json.loads(out.read_text())["results"]
    assert list(got.items()) == [*results.items(), ("size_cap", cap)]


def test_greedy_below_precondition_still_isolates(tmp_path, capsys):
    p = tmp_path / "k2.el"
    p.write_text("2 1\n0 1\n")
    assert main(["greedy", "--in", str(p), "--delta", "4"]) == 0
    text = capsys.readouterr().out
    assert "|S| = 1" in text
    assert "isolating: true" in text
    assert "precondition (min degree >= 4, general): false" in text


def test_greedy_verify_roundtrip(chain_file, tmp_path, capsys):
    wfile = tmp_path / "w.json"
    run = tmp_path / "run.json"
    assert main(["lp-weights", "--delta", "4", "--out", str(wfile)]) == 0
    assert main(["greedy", "--in", chain_file, "--delta", "4",
                 "--weights", str(wfile), "--out", str(run)]) == 0
    text = capsys.readouterr().out
    assert "precondition (min degree >= 4, general): true" in text
    report = json.loads(run.read_text())
    assert report["results"]["isolating"] is True
    assert report["results"]["size"] <= report["results"]["bound"]

    # the run report doubles as the trace and the weights input
    assert main(["verify-bound", "--in", chain_file, "--trace", str(run),
                 "--weights", str(run)]) == 0
    assert "verified: true" in capsys.readouterr().out


def test_greedy_report_counts_rules_and_least_slack(tmp_path, capsys):
    p = tmp_path / "g.el"
    p.write_text(emit_edge_list(random_min_degree_graph(300, 4, 1)))
    run = tmp_path / "run.json"
    assert main(["greedy", "--in", str(p), "--delta", "4", "--out", str(run)]) == 0
    results = json.loads(run.read_text())["results"]
    steps = results["trace"]["steps"]
    counts = Counter(s["rule"] for s in steps)
    assert {k: v["count"] for k, v in results["rules"].items()} == counts
    assert list(results["rules"]) == sorted(counts)
    for rule, entry in results["rules"].items():
        least = min(Fraction(s["xi"]) - s["size"] for s in steps if s["rule"] == rule)
        assert Fraction(entry["min_slack"]) == least >= 0
    line = ", ".join(f"{k} x{v}" for k, v in sorted(counts.items()))
    assert f"steps: {line}" in capsys.readouterr().out


def test_greedy_asks_in_class_for_the_delta_and_variant_girth(chain_file, monkeypatch, capsys):
    # the precondition line is in_class's answer for --delta and the
    # variant's girth, and nothing else
    calls = []

    def counted_in_class(G, delta, g):
        calls.append((G.n, delta, g))
        return True

    monkeypatch.setattr(cli, "in_class", counted_in_class)
    assert main(["greedy", "--in", chain_file, "--delta", "4"]) == 0
    assert "precondition (min degree >= 4, general): true" in capsys.readouterr().out
    assert calls == [(16, 4, 3)]
    main(["greedy", "--in", chain_file, "--delta", "4", "--variant", "triangle-free"])
    assert "triangle-free): true" in capsys.readouterr().out
    assert calls == [(16, 4, 3), (16, 4, 4)]
    main(["greedy", "--in", chain_file, "--delta", "4", "--variant", "girth5"])
    assert "girth5): true" in capsys.readouterr().out
    assert calls == [(16, 4, 3), (16, 4, 4), (16, 4, 5)]


def test_verify_bound_states_the_bound_it_proves(chain_file, tmp_path, capsys):
    run, ver = tmp_path / "run.json", tmp_path / "ver.json"
    assert main(["greedy", "--in", chain_file, "--delta", "4", "--out", str(run)]) == 0
    greedy = json.loads(run.read_text())["results"]
    capsys.readouterr()
    assert main(["verify-bound", "--in", chain_file, "--trace", str(run),
                 "--weights", str(run), "--out", str(ver)]) == 0
    size, bound = greedy["size"], greedy["bound"]
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "verified: true", f"bound: |S| = {size} <= floor(omega*n) = {bound}"]
    results = json.loads(ver.read_text())["results"]
    assert (results["size"], results["bound"]) == (size, bound)
    # a replay that fails proves nothing, so it states no bound
    report = json.loads(run.read_text())
    step = report["results"]["trace"]["steps"][0]
    step["xi"] = str(Fraction(step["xi"]) + Fraction(1, 1000003))
    run.write_text(json.dumps(report))
    assert main(["verify-bound", "--in", chain_file, "--trace", str(run),
                 "--weights", str(run)]) == 1
    out = capsys.readouterr().out
    assert "verified: false" in out and "bound:" not in out


def test_verify_bound_reads_each_distinct_report_once(chain_file, tmp_path, monkeypatch,
                                                     capsys):
    # a greedy report passed as both --trace and --weights is read once, and
    # the outcome is that of reading the same weights from another file
    run, lp = tmp_path / "run.json", tmp_path / "lp.json"
    assert main(["greedy", "--in", chain_file, "--delta", "4", "--out", str(run)]) == 0
    assert main(["lp-weights", "--delta", "4", "--out", str(lp)]) == 0
    capsys.readouterr()
    reads = []
    read = cli._read_json
    monkeypatch.setattr(cli, "_read_json", lambda path: reads.append(path) or read(path))
    outcomes = []
    for weights, expected in ((run, [run]), (lp, [lp, run])):
        reads.clear()
        ver = tmp_path / f"ver-{weights.stem}.json"
        assert main(["verify-bound", "--in", chain_file, "--trace", str(run),
                     "--weights", str(weights), "--out", str(ver)]) == 0
        assert reads == list(map(str, expected))
        report = json.loads(ver.read_text())
        outcomes.append((capsys.readouterr(), report["input"], report["results"]))
    assert outcomes[0] == outcomes[1]
    # the weights are checked before the trace is read
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"results": {}}))
    reads.clear()
    assert main(["verify-bound", "--in", chain_file, "--trace", str(tmp_path / "missing.json"),
                 "--weights", str(empty)]) == 1
    assert reads == [str(empty)]
    assert capsys.readouterr().err == "error: report JSON carries no weight vector\n"


def test_verify_rejects_repeated_vertex_in_a_step(chain_file, tmp_path, capsys):
    run = tmp_path / "run.json"
    main(["greedy", "--in", chain_file, "--delta", "4", "--out", str(run)])
    trace = json.loads(run.read_text())["results"]["trace"]
    step = next(s for s in trace["steps"] if s["size"] == 1)
    step["set"] = step["set"] * 2
    bad = tmp_path / "repeated.json"
    bad.write_text(json.dumps(trace))
    capsys.readouterr()
    assert main(["verify-bound", "--in", chain_file, "--trace", str(bad),
                 "--weights", str(run)]) == 1
    assert "partition_ok: false" in capsys.readouterr().out


def test_verify_rejects_tampered_trace(chain_file, tmp_path, capsys):
    wfile = tmp_path / "w.json"
    run = tmp_path / "run.json"
    main(["lp-weights", "--delta", "4", "--out", str(wfile)])
    main(["greedy", "--in", chain_file, "--delta", "4",
          "--weights", str(wfile), "--out", str(run)])
    report = json.loads(run.read_text())
    trace = report["results"]["trace"]
    spare = next(v for v in range(16) if v not in trace["final_set"])
    trace["final_set"].append(spare)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(trace))
    capsys.readouterr()
    assert main(["verify-bound", "--in", chain_file, "--trace", str(bad),
                 "--weights", str(wfile)]) == 1
    assert "partition_ok: false" in capsys.readouterr().out


def test_verify_rejects_wrong_header(chain_file, tmp_path, capsys):
    wfile = tmp_path / "w.json"
    run = tmp_path / "run.json"
    main(["lp-weights", "--delta", "4", "--out", str(wfile)])
    main(["greedy", "--in", chain_file, "--delta", "4",
          "--weights", str(wfile), "--out", str(run)])
    trace = json.loads(run.read_text())["results"]["trace"]
    trace["n"], trace["initial_weight"] = 999, "0"
    bad = tmp_path / "header.json"
    bad.write_text(json.dumps(trace))
    capsys.readouterr()
    assert main(["verify-bound", "--in", chain_file, "--trace", str(bad),
                 "--weights", str(wfile)]) == 1
    text = capsys.readouterr().out
    assert "header_ok: false" in text and "verified: false" in text
    assert "xi_matches: true" in text and "partition_ok: true" in text


@pytest.mark.parametrize("G, weights", [
    (chain(prism_k4(), 3), None), (chain(metacirculant_14(), 2), None),
    (random_regular_graph(40, 4, 1), None), (random_min_degree_graph(120, 5, 2), None),
    (random_bipartite_min_degree_graph(80, 4, 3), TF), (COMPLEMENT_OF_C7, None),
    (TRIANGLE_FREE_12, TF), (cycle_graph(100), None), (path_graph(100), None),
])
def test_greedy_report_least_slack_is_the_traces(G, weights, tmp_path):
    # the report keeps each rule's least slack as an integer pair; its
    # text must be the Fraction minimum over the trace's own steps
    graph, run = tmp_path / "g.el", tmp_path / "run.json"
    graph.write_text(emit_edge_list(G))
    argv = ["greedy", "--in", str(graph), "--delta", "4", "--out", str(run)]
    if weights is not None:
        (tmp_path / "w.json").write_text(json.dumps(weights.to_json_dict()))
        argv += ["--weights", str(tmp_path / "w.json")]
    assert main(argv) == 0
    results = json.loads(run.read_text())["results"]
    steps = results["trace"]["steps"]
    want = {}
    for s in steps:
        want.setdefault(s["rule"], []).append(Fraction(s["xi"]) - len(s["set"]))
    assert results["rules"] == {rule: {"count": len(slacks), "min_slack": str(min(slacks))}
                                for rule, slacks in sorted(want.items())}


def test_greedy_and_verify_reports_time_their_phases(chain_file, tmp_path):
    run, ver = tmp_path / "run.json", tmp_path / "ver.json"
    assert main(["greedy", "--in", chain_file, "--delta", "4", "--out", str(run)]) == 0
    assert main(["verify-bound", "--in", chain_file, "--trace", str(run),
                 "--weights", str(run), "--out", str(ver)]) == 0
    for path, names in ((run, ["load_s", "run_s", "check_s", "report_s"]),
                        (ver, ["load_s", "replay_s", "report_s"])):
        report = json.loads(path.read_text())
        phases = report["timing"]["phases"]
        assert list(phases) == names
        assert all(t >= 0 for t in phases.values())
        assert sum(phases.values()) <= report["timing_seconds"]


def test_report_fingerprints_the_input(chain_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["exact", "--in", chain_file, "--out", str(out)]) == 0
    G = chain(prism_k4(), 2)
    digest = hashlib.sha256(emit_edge_list(G).encode()).hexdigest()
    report = json.loads(out.read_text())
    assert report["input"] == {"graph": {"n": 16, "m": 32, "sha256": digest}}


@pytest.mark.parametrize("argv, payload", [
    (["verify-bound", "--trace", "{bad}", "--weights", "{weights}"], {"n": 16, "steps": 5}),
    (["verify-bound", "--trace", "{bad}", "--weights", "{weights}"], [1, 2]),
    (["verify-bound", "--trace", "{bad}", "--weights", "{weights}"],
     {"n": 16, "initial_weight": "1", "final_set": [0],
      "steps": [{"rule": "R1", "set": [0], "xi": "1/0"}]}),
    (["verify-bound", "--trace", "{bad}", "--weights", "{weights}"],
     {"n": 16, "initial_weight": "1", "final_set": [0],
      "steps": [{"rule": "R9", "set": [0], "xi": "1"}]}),
    (["check-weights", "--delta", "4", "--weights", "{bad}"], [1]),
    (["check-weights", "--delta", "4", "--weights", "{bad}"], 5),
    (["check-weights", "--delta", "4", "--weights", "{bad}"],
     dict(TF.to_json_dict(), omega=float("inf"))),
    (["check-weights", "--delta", "4", "--weights", "{bad}"],
     dict(TF.to_json_dict(), omega="1e5000")),
    (["verify-bound", "--trace", "{bad}", "--weights", "{weights}"],
     {"n": 16, "initial_weight": "1", "final_set": [0],
      "steps": [{"rule": "R1", "set": [0], "xi": "1e5000"}]}),
    (["verify-bound", "--trace", "{bad}", "--weights", "{weights}"],
     {"n": 16.9, "initial_weight": "1", "final_set": [0], "steps": []}),
    # JSON true is not 1: a trace replayed it as vertex 1 (or n = 1), and
    # omega = true with zero betas passed check-weights --delta 4
    (["verify-bound", "--trace", "{bad}", "--weights", "{weights}"],
     {"n": 16, "initial_weight": "1", "final_set": [1],
      "steps": [{"rule": "R1", "set": [True], "xi": "1"}]}),
    (["verify-bound", "--trace", "{bad}", "--weights", "{weights}"],
     {"n": 16, "initial_weight": "1", "final_set": [True],
      "steps": [{"rule": "R1", "set": [1], "xi": "1"}]}),
    (["verify-bound", "--trace", "{bad}", "--weights", "{weights}"],
     {"n": True, "initial_weight": "1", "final_set": [], "steps": []}),
    (["check-weights", "--delta", "4", "--weights", "{bad}"],
     {"omega": True, "beta1": "0", "beta2": "0", "beta3": "0", "beta4": "0"}),
    # a JSON float is a binary fraction: omega 0.3171 was checked, and
    # echoed in the report, as 5712365767356737/18014398509481984
    (["check-weights", "--delta", "4", "--weights", "{bad}"],
     dict(TF.to_json_dict(), omega=0.3171)),
    (["verify-bound", "--trace", "{bad}", "--weights", "{weights}"],
     {"n": 16, "initial_weight": "1", "final_set": [0],
      "steps": [{"rule": "R1", "set": [0], "xi": 0.5}]}),
    (["check-weights", "--delta", "4", "--weights", "{bad}"], dict(TF.to_json_dict(), omega=[1])),
    (["check-weights", "--delta", "4", "--weights", "{bad}"],
     dict(TF.to_json_dict(), omega="1/0")),
    (["check-weights", "--delta", "4", "--weights", "{bad}"],
     dict(TF.to_json_dict(), omega="1" * 1001)),
], ids=["steps-not-list", "trace-is-array", "xi-divides-by-zero", "unknown-rule",
        "weights-is-array", "weights-is-number", "weight-is-infinite",
        "weight-has-exponent", "xi-has-exponent", "trace-n-is-float",
        "set-holds-boolean", "final-set-holds-boolean", "trace-n-is-boolean",
        "weight-is-boolean", "weight-is-float", "xi-is-float",
        "weight-is-list", "weight-divides-by-zero", "weight-is-too-long"])
def test_malformed_json_is_one_line_error(argv, payload, chain_file, tmp_path, capsys):
    bad, weights = tmp_path / "bad.json", tmp_path / "w.json"
    bad.write_text(json.dumps(payload))
    weights.write_text(json.dumps(TF.to_json_dict()))
    argv = [a.format(bad=bad, weights=weights) for a in argv]
    if argv[0] == "verify-bound":
        argv += ["--in", chain_file]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check-weights", "--delta", "4", "--weights", "{deep}"],
    ["greedy", "--delta", "4", "--weights", "{deep}"],
    ["verify-bound", "--trace", "{deep}", "--weights", "{weights}"],
], ids=["check-weights", "greedy", "verify-bound"])
def test_deeply_nested_json_is_one_line_error(argv, chain_file, tmp_path, capsys):
    # json.dumps cannot build this payload: it recurses as deep as the parser
    deep, weights = tmp_path / "deep.json", tmp_path / "w.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    weights.write_text(json.dumps(TF.to_json_dict()))
    argv = [a.format(deep=deep, weights=weights) for a in argv]
    if argv[0] != "check-weights":
        argv += ["--in", chain_file]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_exact_search_deeper_than_the_recursion_limit_answers(tmp_path, capsys):
    # 1,000 disjoint edges need 1,000 chosen vertices, one search level each
    p = tmp_path / "match.txt"
    p.write_text("2000 1000\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(1000)))
    assert main(["exact", "--in", str(p), "--cap", "1000"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[0] == "isolating set of size 1000 <= 1000"
    assert out.splitlines()[-1] == "explored = 1001"


def test_exact_cap_hit_prints_a_size_not_iota(tmp_path, capsys):
    # iota is 6, but the first set the search finds under cap 12 has 8
    # vertices, which bounds iota from above only
    p, out = tmp_path / "reg.g6", tmp_path / "r.json"
    assert main(["gen", "--random", "regular", "--n", "32", "--param", "4", "--seed", "3",
                 "--out", str(p)]) == 0
    assert main(["exact", "--in", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "iota = 6"
    assert main(["exact", "--in", str(p), "--cap", "12", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    results = json.loads(out.read_text())["results"]
    assert lines[0] == "isolating set of size 8 <= 12"
    assert lines[1] == f"witness = {results['witness']}" and len(results["witness"]) == 8
    assert results["iota"] is None and results["size_cap"] == 12


def test_reports_hold_every_key_the_benchmark_reads(prism_file, chain_file, tmp_path):
    # bench/workloads.py checks each run through these "results" keys, so
    # a report that drops one would fail the benchmark, not these tests.
    # A list is the whole key list, in order: those results are derived
    # from a record's fields, so a new field must show up here
    runs = {
        "lp-weights": (["--delta", "4"], {"status", "optimal_omega", "witness",
                                          "tight_rows", "tight_row_tags"}),
        "check-weights": (["--delta", "4", "--weights", "{lp}"], {"feasible", "violations"}),
        "exact": (["--in", chain_file, "--cap", "3"],
                  ["iota", "witness", "explored", "seed_size", "incumbent_updates", "dominated",
                   "size_cap"]),
        "greedy": (["--in", chain_file, "--delta", "4", "--weights", "{lp}"],
                   {"set", "size", "bound", "isolating", "precondition", "trace"}),
        "verify-bound": (["--in", chain_file, "--trace", "{greedy}", "--weights", "{lp}"],
                         ["xi_matches", "desirable", "isolating", "partition_ok", "header_ok",
                          "verified", "size", "bound"]),
        "certify-edge": (["--in", prism_file, "--x", "0", "--y", "4", "--b", "2"],
                         ["b", "iota_f", "iota_f_minus_x", "iota_f_minus_y", "iota_f_minus_xy",
                          "valid"]),
    }
    results = {}
    for command, (args, keys) in runs.items():
        out = tmp_path / f"{command}.json"
        args = [a.format(lp=tmp_path / "lp-weights.json", greedy=tmp_path / "greedy.json")
                for a in args]
        assert main([command, *args, "--out", str(out)]) == 0, command
        results[command] = json.loads(out.read_text())["results"]
        if isinstance(keys, list):
            assert list(results[command]) == keys, command
        else:
            assert keys <= results[command].keys(), command
    trace = results["greedy"]["trace"]
    assert {"n", "final_set", "initial_weight", "steps"} <= trace.keys()
    assert trace["steps"] and all({"rule", "set", "xi"} <= s.keys() for s in trace["steps"])


def test_check_weights_feasible_and_not(tmp_path, capsys):
    wfile = tmp_path / "tf.json"
    wfile.write_text(json.dumps(TF.to_json_dict()))
    assert main(["check-weights", "--delta", "4", "--variant", "triangle-free",
                 "--weights", str(wfile)]) == 0
    assert "feasible: true" in capsys.readouterr().out

    out = tmp_path / "report.json"
    assert main(["check-weights", "--delta", "4", "--weights", str(wfile),
                 "--out", str(out)]) == 1
    text = capsys.readouterr().out
    assert "feasible: false" in text
    assert "violated row 10 [r7-k2-min-beta2]" in text
    assert "violated row 13 [r7-c5-min-beta3]" in text
    report = json.loads(out.read_text())
    assert [v["index"] for v in report["results"]["violations"]] == [10, 13]
    assert report["results"]["violations"][0]["slack"] == "-1/10"


def test_gen_family(tmp_path, capsys):
    out = tmp_path / "f.g6"
    assert main(["gen", "--family", "prism-chain", "--s", "2",
                 "--out", str(out)]) == 0
    assert out.read_text() == emit_graph6(chain(prism_k4(), 2)) + "\n"
    assert "n = 16, m = 32" in capsys.readouterr().err


def test_gen_to_stdout(capsys):
    assert main(["gen", "--family", "meta-chain", "--s", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip()
    assert "n = 28" in captured.err


def test_gen_random_is_deterministic(tmp_path):
    a, b = tmp_path / "a.g6", tmp_path / "b.g6"
    args = ["gen", "--random", "min-degree", "--n", "30", "--param", "4",
            "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_gen_flag_validation(tmp_path, capsys):
    assert main(["gen"]) == 2
    assert main(["gen", "--family", "prism-chain", "--s", "2",
                 "--random", "regular"]) == 2
    assert main(["gen", "--family", "prism-chain"]) == 2
    assert main(["gen", "--random", "regular", "--n", "10"]) == 2
    err = capsys.readouterr().err
    assert "--param" in err and "--seed" in err
    for kind in ("min-degree", "regular", "bipartite-min-degree"):
        assert main(["gen", "--random", kind, "--n", "10", "--param", "-4",
                     "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # one past MAX_ORDER = 258047, as a random order and as a chain length
    for oversized in (["--random", "min-degree", "--n", "258048", "--param", "4",
                       "--seed", "1"], ["--family", "prism-chain", "--s", "32256"]):
        assert main(["gen"] + oversized) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_bipartite_feeds_the_triangle_free_bound(tmp_path, capsys):
    # the CLI builds an input for the 3/10 claim end to end
    graph, weights, run = tmp_path / "g.txt", tmp_path / "w.json", tmp_path / "run.json"
    assert main(["gen", "--random", "bipartite-min-degree", "--n", "60", "--param", "4",
                 "--seed", "5", "--format", "edgelist", "--out", str(graph)]) == 0
    assert graph.read_text() == emit_edge_list(random_bipartite_min_degree_graph(60, 4, 5))
    weights.write_text(json.dumps(TF.to_json_dict()))
    assert main(["greedy", "--in", str(graph), "--delta", "4", "--variant", "triangle-free",
                 "--weights", str(weights), "--out", str(run)]) == 0
    assert "precondition (min degree >= 4, triangle-free): true" in capsys.readouterr().out
    assert main(["verify-bound", "--in", str(graph), "--trace", str(run),
                 "--weights", str(weights)]) == 0
    assert "bound: |S| = " in capsys.readouterr().out


def test_every_report_is_one_compact_json_line(prism_file, chain_file, tmp_path):
    lp, run = tmp_path / "lp.json", tmp_path / "run.json"
    calls = {
        lp: ["lp-weights", "--delta", "4"],
        tmp_path / "check.json": ["check-weights", "--delta", "4", "--weights", str(lp)],
        tmp_path / "exact.json": ["exact", "--in", chain_file, "--cap", "3"],
        run: ["greedy", "--in", chain_file, "--delta", "4", "--weights", str(lp)],
        tmp_path / "verify.json": ["verify-bound", "--in", chain_file, "--trace", str(run),
                                   "--weights", str(lp)],
        tmp_path / "edge.json": ["certify-edge", "--in", prism_file,
                                 "--x", "0", "--y", "4", "--b", "2"],
    }
    assert {argv[0] for argv in calls.values()} == set(cli.COMMANDS) - {"gen"}
    for out, argv in calls.items():
        assert main([*argv, "--out", str(out)]) == 0, argv[0]
        text = out.read_text()
        assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n", argv[0]


def test_gen_edgelist_route_matches_graph6(tmp_path, capsys):
    # the same graph through either format gives the same runs and fingerprint
    gen = ["gen", "--random", "min-degree", "--n", "60", "--param", "4", "--seed", "3"]
    g6, el = tmp_path / "g.g6", tmp_path / "g.txt"
    assert main(gen + ["--out", str(g6)]) == 0
    assert main(gen + ["--format", "edgelist", "--out", str(el)]) == 0
    assert el.read_text() == emit_edge_list(cli.parse_graph6(g6.read_text()))
    wfile = tmp_path / "w.json"
    assert main(["lp-weights", "--delta", "4", "--out", str(wfile)]) == 0
    runs = {}
    for path in (g6, el):
        greedy, verify = tmp_path / f"{path.name}.run.json", tmp_path / f"{path.name}.ver.json"
        capsys.readouterr()
        assert main(["greedy", "--in", str(path), "--delta", "4",
                     "--weights", str(wfile), "--out", str(greedy)]) == 0
        assert main(["verify-bound", "--in", str(path), "--trace", str(greedy),
                     "--weights", str(wfile), "--out", str(verify)]) == 0
        reports = [json.loads(p.read_text()) for p in (greedy, verify)]
        runs[path] = (capsys.readouterr().out,
                      [(r["results"], r["input"]["graph"]) for r in reports])
    assert runs[g6] == runs[el]


def test_certify_edge(prism_file, tmp_path, capsys):
    assert main(["certify-edge", "--in", prism_file,
                 "--x", "0", "--y", "4", "--b", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True

    k4 = tmp_path / "k4.g6"
    k4.write_text(emit_graph6(complete_graph(4)) + "\n")
    assert main(["certify-edge", "--in", str(k4),
                 "--x", "0", "--y", "1", "--b", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["valid"] is False


def test_edgelist_format_flag(tmp_path, capsys):
    # the input format is detected, so both encodings of a graph run alike
    runs = []
    for name, text in (("prism.el", emit_edge_list(prism_k4().F)),
                       ("prism.g6", emit_graph6(prism_k4().F) + "\n")):
        p = tmp_path / name
        p.write_text(text)
        assert main(["exact", "--in", str(p)]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert "iota = 2" in runs[0]


@pytest.mark.parametrize("form", INPUT_FORMS)
def test_auto_format_reads_tab_separated_edge_list(form, tmp_path, capsys):
    plain, p = tmp_path / "p3.el", tmp_path / "p3.txt"
    plain.write_text("3 2\n0 1\n1 2\n")
    p.write_bytes(INPUT_FORMS[form](path_graph(3)).encode())
    runs = []
    for path in (plain, p):
        assert main(["exact", "--in", str(path)]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert "iota = 1" in runs[1]


def test_missing_file_is_domain_error(capsys):
    assert main(["exact", "--in", "/nonexistent/g.g6"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    # one token: detected as graph6, and '!' (33) is below the first
    # graph6 byte '?' (63)
    ("A!\n", "error: invalid graph6 byte 33 (byte offset 1)"),
    # two tokens on the first line: detected as an edge list header
    ("@@@not graph6\n", "error: expected integer header 'n m', got '@@@not graph6'"),
    ("3 1\n0 1 2\n", "error: expected edge line 'u v', got '0 1 2'"),
], ids=["graph6-bad-byte", "edge-list-header", "edge-line-three-tokens"])
def test_bad_graph6_is_domain_error(tmp_path, capsys, text, message):
    p = tmp_path / "bad.g6"
    p.write_text(text)
    assert main(["exact", "--in", str(p)]) == 1
    assert capsys.readouterr().err == message + "\n"


CHAIN_BUDGET = "exceeded 1 branch nodes on n=16, m=32"


@pytest.mark.parametrize("argv,message", [
    (["exact", "--in", "{chain}"], CHAIN_BUDGET),
    # each of the prism's four variants solves at its first node, so the
    # chain is the gadget here
    (["certify-edge", "--in", "{chain}", "--x", "0", "--y", "1", "--b", "4"], CHAIN_BUDGET),
    (["gen", "--random", "regular", "--n", "20", "--param", "9", "--seed", "0"],
     "no simple 9-regular pairing on 20 vertices after 5000 draws"),
], ids=["exact", "certify-edge", "gen"])
def test_spent_budget_is_one_line_error(argv, message, chain_file, monkeypatch, capsys):
    monkeypatch.setattr(exact, "NODE_BUDGET", 1)
    assert main([a.format(chain=chain_file) for a in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_weights_report_without_vector(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"results": {}}))
    assert main(["check-weights", "--delta", "4", "--weights", str(p)]) == 1
    assert "no weight vector" in capsys.readouterr().err


@pytest.mark.parametrize("flag,what,results", [
    ("--weights", "weight vector", {"size": 3}),
    ("--weights", "weight vector", []),
    ("--trace", "trace", {"size": 3}),
    ("--trace", "trace", []),
    ("--trace", "trace", "lp-weights"),
], ids=["weights-no-field", "weights-results-list", "trace-no-field", "trace-results-list",
        "trace-from-lp-weights"])
def test_report_without_the_field_names_it(flag, what, results, chain_file, tmp_path,
                                           capsys):
    # --weights and --trace read a bare value or one field of a run report
    weights, report = tmp_path / "w.json", tmp_path / "report.json"
    weights.write_text(json.dumps(TF.to_json_dict()))
    if results == "lp-weights":
        assert main(["lp-weights", "--delta", "4", "--out", str(report)]) == 0
        capsys.readouterr()
    else:
        report.write_text(json.dumps({"results": results}))
    argv = ["verify-bound", "--in", chain_file, "--trace", str(weights), "--weights", str(weights)]
    argv[argv.index(flag) + 1] = str(report)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: report JSON carries no {what}\n"


def test_usage_errors_exit_2():
    for argv in (["frobnicate"], ["exact"], ["greedy", "--in", "x"],
                 ["lp-weights", "--delta", "4", "--bogus"],
                 ["exact", "--in", "x", "--format", "graph6"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_module_entry_point_runs_main():
    src = Path(cli.__file__).parents[1]
    run = subprocess.run([sys.executable, "-m", "isobound.cli", "--version"],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == __version__


COMMAND_NAMES = ["greedy", "exact", "lp-weights", "check-weights", "gen", "certify-edge",
                 "verify-bound"]


def _outcome(run, argv, capsys):
    try:
        code = run(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_full_parser(argv):
    args = cli.build_parser().parse_args(argv)
    cmd = cli.COMMANDS[args.command][0]
    return cmd(args) if args.command == "gen" else cli._run_reported(cmd, args, argv)


@pytest.fixture
def cold_parsers():
    # main's parsers are built on first use and kept; start and end empty
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


@pytest.mark.parametrize("argv", [
    ["-h"], [], ["foo"], ["--version"],
    *([name, "-h"] for name in COMMAND_NAMES),
    ["exact"], ["greedy", "--in", "x"], ["certify-edge", "--in", "x"],
    ["lp-weights", "--delta", "four"], ["exact", "--in", "x", "--cap", "z"],
    ["lp-weights", "--delta", "4", "--variant", "nope"],
    ["lp-weights", "--delta", "4", "--bogus"], ["exact", "--in", "x", "--format", "graph6"],
    ["greedy", "--in", "x", "--delta", "4", "extra"], ["gen", "--format", "x"],
], ids=" ".join)
def test_one_command_parser_answers_as_the_full_parser(argv, cold_parsers, capsys):
    # main builds only argv[0]'s subparser; exit code, stdout and stderr
    # (help, usage and every error message) must read as the full one's,
    # from the parser's first call (cold) and from its second (warm)
    want = _outcome(_run_full_parser, argv, capsys)
    assert _outcome(main, argv, capsys) == want
    assert _outcome(main, argv, capsys) == want
    assert want[0] in (0, 2)


@pytest.mark.parametrize("calls", [
    (["lp-weights", "--delta", "four"], ["lp-weights", "--delta", "4"]),
    (["gen", "--random", "regular", "--n", "x"],
     ["gen", "--random", "regular", "--n", "10", "--param", "4", "--seed", "1"]),
    (["check-weights", "--delta", "4"], ["check-weights", "-h"]),
], ids=lambda calls: calls[0][0])
def test_warm_parser_answers_an_error_then_a_success(calls, cold_parsers, capsys):
    # a usage error leaves nothing behind in the kept parser
    codes = []
    for argv in calls:
        want = _outcome(_run_full_parser, argv, capsys)
        assert _outcome(main, argv, capsys) == want
        codes.append(want[0])
    assert codes == [2, 0]


def test_kept_parser_carries_no_report_path(chain_file, tmp_path, capsys):
    run = tmp_path / "r.json"
    argv = ["greedy", "--in", chain_file, "--delta", "4"]
    assert main([*argv, "--out", str(run)]) == 0
    run.unlink()
    assert main(argv) == 0
    assert list(tmp_path.glob("*.json")) == [] and "isolating: true" in capsys.readouterr().out


def test_each_subparser_is_built_once_per_process(monkeypatch, cold_parsers, capsys):
    built = []
    cmd, add_args, help = cli.COMMANDS["lp-weights"]

    def counted(p):
        built.append(p.prog)
        add_args(p)

    monkeypatch.setitem(cli.COMMANDS, "lp-weights", (cmd, counted, help))
    for _ in range(3):
        code, out, _ = _outcome(main, ["lp-weights", "--delta", "4"], capsys)
        assert code == 0 and out.endswith("certified: true\n")
        assert _outcome(main, ["check-weights", "-h"], capsys)[0] == 0
    assert built == ["isobound lp-weights"]


def test_warm_parser_runs_the_command_in_the_table_now(monkeypatch, cold_parsers, capsys):
    # the kept parser holds flags only; main looks the command up per call
    argv = ["lp-weights", "--delta", "4"]
    assert _outcome(main, argv, capsys)[0] == 0
    _, add_args, help = cli.COMMANDS["lp-weights"]

    def swapped(args, report):
        print(f"swapped: delta {args.delta}")
        return 1

    monkeypatch.setitem(cli.COMMANDS, "lp-weights", (swapped, add_args, help))
    assert _outcome(main, argv, capsys) == (1, "swapped: delta 4\n", "")


def test_full_parser_names_the_command_by_its_dest(capsys):
    # a metavar on the full parser would name it {greedy,...} in both errors
    assert "arguments are required: command" in _outcome(main, [], capsys)[2]
    assert "argument command: invalid choice: 'foo'" in _outcome(main, ["foo"], capsys)[2]


def test_command_table_lists_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli.COMMANDS) == COMMAND_NAMES


def test_one_command_builds_no_other_subparser(chain_file, monkeypatch, cold_parsers, capsys):
    def refuse(p):
        raise AssertionError(f"built the parser of {p.prog}")

    for name, (cmd, _, help) in list(cli.COMMANDS.items()):
        if name != "greedy":
            monkeypatch.setitem(cli.COMMANDS, name, (cmd, refuse, help))
    assert main(["greedy", "--in", chain_file, "--delta", "4"]) == 0
    assert "isolating: true" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="isobound exact"):
        cli.build_parser()
