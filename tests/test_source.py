import ast
from pathlib import Path

import isobound

SRC = Path(isobound.__file__).parent


def test_no_assert_statements_in_package():
    # invariants must survive python -O, so they raise instead of assert
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
    assert offenders == []


def test_verify_trace_shares_no_code_with_the_greedy():
    # the replay must stay an independent check: it may not call the
    # engine, the rule helpers, or the from-scratch residual path
    tree = ast.parse((SRC / "greedy.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    shared_types = {"verify_trace", "TraceVerification", "GreedyTrace", "GreedyStep",
                    "GreedyRule"}
    engine = defined - shared_types
    assert {"_GreedyEngine", "greedy_isolating_set"} <= engine
    verify = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "verify_trace")
    names = {node.id for node in ast.walk(verify) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(verify) if isinstance(node, ast.Attribute)}
    assert names & (engine | {"compute_residual", "total_weight", "xi"}) == set()
    assert attrs & engine == set()


def test_all_names_exist_once():
    names = isobound.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(isobound, name)] == []
