"""Every name a gradedvi module imports is used in that module.

A stand-in for a linter's unused-import rule that needs nothing beyond the
standard library: each module is parsed with `ast`, and an imported name
counts as used when it appears as a name anywhere in the module, including
its annotations, or is listed in `__all__`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gradedvi"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                             key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json\n"
              "from .grm import GrmParams, ResponseMatrix as RM\n"
              "from .x import only_in_all\n"
              "__all__ = ['only_in_all']\n"
              "def f(p: GrmParams) -> None:\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["line 3: json", "line 4: RM"]
