"""Every name a module under src/ imports is used in that module."""

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
