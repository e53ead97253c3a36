"""Every name a module under src/ imports is used in that module, and every
function, class and method defined under src/ is used somewhere in src/."""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_reject_a_dead_name():
    tree = ast.parse("import os\nfrom re import sub, match\nmatch('a', 'b')\n")
    assert unused_imports(tree) == ["os (line 1)", "sub (line 2)"]


def test_src_has_no_unused_imports():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        names = unused_imports(ast.parse(path.read_text(), str(path)))
        if names:
            found[str(path.relative_to(SRC))] = names
    assert found == {}


# Public entry points kept without an in-package caller (ROADMAP item 3).
UNCALLED_API = {"nonformality_witness", "witness_certificate"}


def dead_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Functions, classes and methods whose name no Name or Attribute node
    in any of the trees mentions; dunders are exempt."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for where, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{where}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{name} ({where})" for name, where in defined
            if name not in used and not (name.startswith("__") and name.endswith("__"))]


def test_dead_definitions_flag_an_unused_def():
    tree = ast.parse("class A:\n    def used(self): pass\n    def dead(self): pass\n"
                     "    def __eq__(self, o): pass\n"
                     "def helper(): pass\nA().used()\nhelper()\n")
    assert dead_definitions({"m.py": tree}) == ["dead (m.py:3)"]


def test_src_has_no_dead_definitions():
    trees = {str(path.relative_to(SRC)): ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.rglob("*.py"))}
    found = [d for d in dead_definitions(trees) if d.split()[0] not in UNCALLED_API]
    assert found == []
