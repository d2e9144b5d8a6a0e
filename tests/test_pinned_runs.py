"""The command outputs the CI workflow pins, asserted in-process.

Each test calls `cli.main` with the arguments of a workflow step and
asserts the lines and figures that step greps for: the exact search's
witnesses and node counts, the n = 10,000 greedy trace digest from
either input format, and the triangle-free 3/10 bound. So an unplanned
change to one of them fails the test suite, not only a CI run.
"""

import hashlib
import json

import pytest

from isobound import parse_edge_list, parse_graph6
from isobound.cli import main

from graphs import TF


def _lines(capsys, *argv):
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out.splitlines()


def _trace_digest(report_path):
    trace = json.loads(report_path.read_text())["results"]["trace"]
    return hashlib.sha256(json.dumps(trace, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed, witness, explored, refuted", [
    (1, [1, 3, 4, 16, 35, 37, 39], 5275, 2092),
    (2, [1, 6, 8, 11, 15, 34, 36], 3707, 2699),
])
def test_exact_on_random_4_regular_graphs(tmp_path, capsys, seed, witness, explored, refuted):
    g6 = tmp_path / "reg.g6"
    _lines(capsys, "gen", "--random", "regular", "--n", 40, "--param", 4,
           "--seed", seed, "--out", g6)
    assert _lines(capsys, "exact", "--in", g6) == [
        "iota = 7", f"witness = {witness}", f"explored = {explored}"]
    assert _lines(capsys, "exact", "--in", g6, "--cap", 6) == [
        "no isolating set of size <= 6", f"explored = {refuted}"]


def test_exact_on_the_prism_chain(tmp_path, capsys):
    g6 = tmp_path / "chain6.g6"
    _lines(capsys, "gen", "--family", "prism-chain", "--s", 6, "--out", g6)
    lines = _lines(capsys, "exact", "--in", g6)
    assert lines[0] == "iota = 12" and lines[-1] == "explored = 10955"


def test_greedy_trace_at_n_10000_from_either_format(tmp_path, capsys):
    gen = ["gen", "--random", "min-degree", "--n", 10000, "--param", 4, "--seed", 1]
    g6, txt = tmp_path / "big.g6", tmp_path / "big.txt"
    _lines(capsys, *gen, "--out", g6)
    _lines(capsys, *gen, "--format", "edgelist", "--out", txt)
    assert parse_graph6(g6.read_text()) == parse_edge_list(txt.read_text())
    for graph in (g6, txt):
        report = tmp_path / "run.json"
        _lines(capsys, "greedy", "--in", graph, "--delta", 4, "--out", report)
        assert _trace_digest(report) == (
            "09cbdb2d4f526781757e9d98140fb0ea3fb5594cf4abd2d4416ddf300dd4ba8d")


def test_triangle_free_bound_at_n_10000(tmp_path, capsys):
    bip, weights, report = tmp_path / "bip.txt", tmp_path / "tf.json", tmp_path / "bip.json"
    weights.write_text(json.dumps(TF.to_json_dict()))
    _lines(capsys, "gen", "--random", "bipartite-min-degree", "--n", 10000, "--param", 4,
           "--seed", 1, "--format", "edgelist", "--out", bip)
    assert "precondition (min degree >= 4, triangle-free): true" in _lines(
        capsys, "greedy", "--in", bip, "--delta", 4, "--variant", "triangle-free",
        "--weights", weights, "--out", report)
    lines = _lines(capsys, "verify-bound", "--in", bip, "--trace", report, "--weights", weights)
    assert lines[-2:] == ["verified: true", "bound: |S| = 1763 <= floor(omega*n) = 3000"]
