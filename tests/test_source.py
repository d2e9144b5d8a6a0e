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


CHECKERS = {"verify_trace", "TraceVerification", "check_feasible", "check_optimality",
            "RowViolation", "is_isolating"}


def _defined(tree: ast.AST) -> set[str]:
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return names | {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def test_checkers_import_no_producer():
    # check.py is the trusted base: at run time it imports the standard
    # library only, so no check can call the code whose output it checks;
    # the TYPE_CHECKING block imports package types for annotations only
    tree = ast.parse((SRC / "check.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            node.body = []
    offenders = [ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and (node.level or node.module.partition(".")[0] == "isobound")
                 or isinstance(node, ast.Import)
                 and any(a.name.partition(".")[0] == "isobound" for a in node.names)]
    assert offenders == []
    # and every checker lives there alone
    assert CHECKERS <= _defined(tree)
    for path in sorted(SRC.glob("*.py")):
        if path.name != "check.py":
            assert _defined(ast.parse(path.read_text())) & CHECKERS == set(), path.name


def test_all_names_exist_once():
    names = isobound.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(isobound, name)] == []
