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
