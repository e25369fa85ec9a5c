"""Properties of the engine source itself."""

import ast
from pathlib import Path

import hk4

SOURCES = sorted(Path(hk4.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "h4.py", "ledger.py", "lattices.py"}


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check may rely on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_indented_json_dumps():
    # report.dumps_canonical is the one serializer; json.dumps(indent=...) is only its test oracle
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)
    ]
    assert found == []
