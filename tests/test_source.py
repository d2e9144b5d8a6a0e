import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import isobound
from isobound import emit_edge_list, emit_graph6, random_min_degree_graph
from isobound.cli import main

from graphs import INPUT_FORMS

SRC = Path(isobound.__file__).parent


def test_no_assert_statements_in_package():
    # invariants must survive python -O, so they raise instead of assert
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
    assert offenders == []


# replays the report's trace as written and with its first xi raised by
# 1/1000003; prints the optimize flag, whether the genuine trace
# verifies, whether the forged one's xi matches, and two class answers
OPTIMIZED_REPLAY = """
import json, sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from isobound import check
G = check.parse_edge_list(open(sys.argv[2]).read())
results = json.load(open(sys.argv[3]))["results"]
wv = check.WeightVector.from_json_dict(results["weights"])
genuine = check.verify_trace(G, check.GreedyTrace.from_json_dict(results["trace"]), wv)
step = results["trace"]["steps"][0]
step["xi"] = str(Fraction(step["xi"]) + Fraction(1, 1000003))
forged = check.verify_trace(G, check.GreedyTrace.from_json_dict(results["trace"]), wv)
print(json.dumps([sys.flags.optimize, bool(genuine), forged.xi_matches,
                  check.in_class(G, 4, 3), check.in_class(G, G.n, 3)]))
"""


def test_replay_verifies_with_asserts_stripped(tmp_path):
    # the checks raise rather than assert, so python -O judges a genuine
    # and a forged trace as the default interpreter does; -B keeps
    # src/ free of the optimized bytecode
    graph_file, report = tmp_path / "g.txt", tmp_path / "run.json"
    graph_file.write_text(emit_edge_list(random_min_degree_graph(60, 4, 1)))
    assert main(["greedy", "--in", str(graph_file), "--delta", "4", "--out", str(report)]) == 0
    run = subprocess.run([sys.executable, "-O", "-B", "-c", OPTIMIZED_REPLAY, str(SRC.parent),
                          str(graph_file), str(report)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [1, True, False, True, False]


CHECKERS = {"verify_trace", "TraceVerification", "check_feasible", "check_optimality",
            "RowViolation", "is_isolating"}
# the certificate types the checkers read, with their JSON readers
CERTIFICATES = {"WEIGHT_NAMES", "_MAX_RATIONAL_CHARS", "parse_rational", "WeightVector",
                "LinearRow", "LPSolution", "GreedyRule", "GreedyStep", "_index", "GreedyTrace"}
# the graph type, its two parsers with the graph6 tables, the format
# rule that picks between them, and the class test
GRAPH = {"Graph6ParseError", "Graph", "_from_sorted", "_edge_error", "MAX_ORDER", "_G6_HEADER",
         "_G6_BYTES", "_G6_MARKS", "_G6_BITS", "parse_graph6", "is_edge_list",
         "parse_edge_list", "in_class"}


def _defined(tree: ast.AST) -> set[str]:
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return names | {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def test_checkers_import_no_producer():
    # check.py is the trusted base: in any block it imports the standard
    # library only, so no check can call the code whose output it checks
    tree = ast.parse((SRC / "check.py").read_text())
    imported = {"." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert {m for m in imported if m.partition(".")[0] not in sys.stdlib_module_names} == set()
    # and every checker, certificate type and graph reader lives there alone
    trusted = CHECKERS | CERTIFICATES | GRAPH
    assert trusted <= _defined(tree)
    for path in sorted(SRC.glob("*.py")):
        if path.name != "check.py":
            assert _defined(ast.parse(path.read_text())) & trusted == set(), path.name


def test_cli_import_skips_dataclasses_and_inspect():
    # the records are NamedTuples, so a one-shot process never pays for
    # dataclasses and the inspect module it imports. -I -S keep
    # site-packages, whose start-up hooks may import either, out of it;
    # -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps src/ free of bytecode
    probe = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import isobound.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


REPLAY_ALONE = Path(__file__).with_name("replay_alone.py")


def test_trusted_base_runs_alone(tmp_path):
    # the replay script loads check.py by path, from a directory that
    # holds a copy of it and nothing else, without the package, and
    # replays each report's trace as written and forged. It reads a graph
    # by check.is_edge_list, the CLI's format rule, so each form the CLI
    # reads goes through it; -I ignores PYTHONDONTWRITEBYTECODE, so -B
    # keeps the directory free of bytecode
    base = tmp_path / "base"
    base.mkdir()
    shutil.copy(SRC / "check.py", base)
    G = random_min_degree_graph(60, 4, 1)
    texts = {"graph6": emit_graph6(G) + "\n", "edgelist": emit_edge_list(G),
             **{form: write(G) for form, write in INPUT_FORMS.items()}}
    for form, text in texts.items():
        graph_file, report = tmp_path / f"{form}.txt", tmp_path / f"{form}.json"
        graph_file.write_bytes(text.encode())
        assert main(["greedy", "--in", str(graph_file), "--delta", "4", "--out", str(report)]) == 0
        run = subprocess.run([sys.executable, "-I", "-S", "-B", str(REPLAY_ALONE), str(base),
                              str(graph_file), str(report)],
                             cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, (form, run.stderr)
        genuine, forged = json.loads(run.stdout)
        assert genuine["verified"]
        assert not forged["xi_matches"] and not forged["verified"]
    assert [p.name for p in base.iterdir()] == ["check.py"]


def test_all_names_exist_once():
    names = isobound.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(isobound, name)] == []
