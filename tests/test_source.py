"""Properties of the engine source itself."""

import ast
import os
import subprocess
import sys
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


def test_certificate_engine_loads_without_dataclasses():
    # only the classifier keeps dataclass records; the certificate engine (rationals,
    # lattices, fujiki, h4, ledger) must not pull in dataclasses and its inspect/ast/dis
    code = ("import sys, hk4.h4, hk4.ledger\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(hk4.__file__).parent.parent))
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


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
    # no linter is installed, so this is the check
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


ROOT = Path(__file__).resolve().parent.parent
#: Everything a command, script or benchmark runs; the benchmark's own smoke test is a test.
CALLERS = SOURCES + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_smoke.py"
)
#: Reached from outside the walked sources: argparse calls ``error`` on a usage error.
CALLED_BY_THE_LIBRARY = {"_Parser.error"}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """(qualified name, node, kind) per top-level def, class, constant and method.

    The kind is "name", or for a method "plain" or "decorated" (property, staticmethod).
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, "name"
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    kind = "decorated" if item.decorator_list else "plain"
                    yield f"{node.name}.{item.name}", item, kind
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                if isinstance(t, ast.Name) and not _dunder(t.id):
                    yield t.id, node, "name"


def references(tree: ast.Module, *, count_imports: bool):
    """(name, node, called?) per loaded Name, Attribute, import alias and identifier string."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node, id(node) in called
        elif isinstance(node, ast.Attribute):
            yield node.attr, node, id(node) in called
        elif isinstance(node, ast.alias) and count_imports:
            yield node.name, node, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")  # "RatPoly.__call__", or a SPANS entry
            if all(p.isidentifier() for p in parts):
                for part in parts:
                    yield part, node, False


def counts(kind: str, node: ast.AST, called: bool) -> bool:
    """Whether a reference can reach a definition of this kind.

    A method is reached through an attribute (or a string naming it), never a
    bare name; a plain method only when the attribute is called, since an
    uncalled read may be a field of the same name (``QOption.c_X``).
    """
    if kind == "name" or isinstance(node, ast.Constant):
        return True
    return isinstance(node, ast.Attribute) and (called or kind == "decorated")


def unreferenced(sources, callers) -> list[str]:
    """Names defined in ``sources`` that nothing in ``callers`` refers to outside the definition."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in {*sources, *callers}}
    refs = [ref for path in callers
            for ref in references(trees[path], count_imports=path.name != "__init__.py")]
    out = []
    for path in sources:
        for name, node, kind in definitions(trees[path]):
            short = name.rsplit(".", 1)[-1]
            inside = {id(n) for n in ast.walk(node)}
            if not any(r == short and id(n) not in inside and counts(kind, n, called)
                       for r, n, called in refs):
                out.append(f"{path.name}: {name}")
    return out


def test_unreferenced_definitions_are_found(tmp_path):
    engine, caller = tmp_path / "engine.py", tmp_path / "caller.py"
    engine.write_text(
        "LIMIT = 3\n"
        "GOLDEN = 70785\n"
        "def rec(n):\n"
        "    return rec(n - 1) if n else LIMIT\n"
        "def traced():\n"
        "    pass\n"
        "class Record:\n"
        "    violations: tuple = ()\n"
        "    def check(self):\n"
        "        return self.violations\n"
        "    def violations_of(self):\n"
        "        return ()\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 0\n"
    )
    caller.write_text(
        "from engine import Record\n"
        "SPANS = ('traced',)\n"
        "r = Record()\n"
        "r.check(); r.size; r.violations_of\n"
        "def f(violations_of):\n"
        "    return violations_of\n"
    )
    # rec calls only itself; GOLDEN is never read; violations_of is read but never called,
    # and the parameter of that name is no method reference
    assert unreferenced([engine], [engine, caller]) == [
        "engine.py: GOLDEN", "engine.py: rec", "engine.py: Record.violations_of"]


def test_engine_defines_only_what_a_command_runs():
    # tests do not count: a name only they reach belongs in the test that needs it
    found = [n for n in unreferenced(SOURCES, CALLERS)
             if n.split(": ", 1)[1] not in CALLED_BY_THE_LIBRARY]
    assert found == []
