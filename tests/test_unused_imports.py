"""No module of the package imports a name it never uses.

The repository has no linter, so this stands in for one rule of it
(F401): every name a module imports is read somewhere in that module, or
listed in its ``__all__``, or its import line says ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cellnash"
MODULES = sorted(SOURCE.glob("*.py"))


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name the module's imports bind, with the line it is bound on;
    names on lines marked ``# noqa: F401`` are left out."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                # ``import a.b`` binds ``a``
                found[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return found


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, and the strings in its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(text: str) -> list[tuple[int, str]]:
    tree = ast.parse(text)
    used = used_names(tree)
    names = imported_names(tree, text.splitlines())
    return sorted((line, name) for name, line in names.items() if name not in used)


def test_the_check_finds_what_it_looks_for():
    text = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import re  # noqa: F401\n"
        "from math import (\n"
        "    gcd,\n"
        "    lcm,  # noqa: F401\n"
        "    prod as product,\n"
        ")\n"
        "from .game import Game\n"
        "__all__ = ['Game']\n"
        "x: product = gcd\n"
    )
    assert unused_imports(text) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
