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


def unused_imports(tree: ast.AST) -> list[str]:
    """Names an import binds that no ``Name`` node of the module reads."""
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path, json\n"
        "from typing import Optional, Sequence as Seq\n"
        "def f(x: Seq) -> None:\n"
        "    import random\n"
        "    return json.loads(x)\n"
    )
    assert unused_imports(tree) == ["Optional", "os", "random"]


def test_no_unused_imports():
    # no linter is installed, so this is the check; __init__.py imports in order to re-export
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for name in unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
