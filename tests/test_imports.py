"""Every name a module under src/ imports is used in that module, every
function, class and method defined under src/ is used somewhere in src/,
and every local a function under src/ assigns is read in that function."""

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


def dead_locals(tree: ast.Module) -> list[str]:
    """Names a function assigns but never reads, names starting with _
    exempt.  A function's own assignments are those outside the functions,
    lambdas and classes nested in it; its reads include theirs, since a
    closure reads the names it uses."""
    found: list[str] = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored: dict[str, int] = {}
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(node.lineno,
                                      stored.get(node.id, node.lineno))
            todo.extend(ast.iter_child_nodes(node))
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [f"{fn.name}: {name} (line {line})"
                  for name, line in sorted(stored.items(),
                                           key=lambda kv: kv[1])
                  if name not in read and not name.startswith("_")]
    return found


def test_dead_locals_flag_an_unread_name():
    tree = ast.parse("def f(xs):\n    a, b = 1, 2\n    for x, _y in xs:\n"
                     "        c = x\n    def g():\n        return a\n"
                     "    return g\n")
    assert dead_locals(tree) == ["f: b (line 2)", "f: c (line 4)"]


def test_src_has_no_dead_locals():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        names = dead_locals(ast.parse(path.read_text(), str(path)))
        if names:
            found[str(path.relative_to(SRC))] = names
    assert found == {}
