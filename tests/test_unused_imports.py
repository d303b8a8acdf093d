"""No module of the package imports a name it never uses, and no
private helper is left that nothing reads.

The repository has no linter, so this stands in for two rules of one.
F401: every name a module imports is read somewhere in that module, or
listed in its ``__all__``, or its import line says ``# noqa: F401``.
Dead private code: every module-level function or class whose name
starts with one underscore is read somewhere in the package, outside
its own body.
"""

import ast
import collections
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


def private_definitions(tree: ast.Module) -> list[ast.AST]:
    """The module-level functions and classes named ``_x`` (not dunder)."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        node
        for node in tree.body
        if isinstance(node, kinds)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def read_names(tree: ast.AST) -> collections.Counter:
    """How often each name is read: as a bare name or as an attribute."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def unread_private_definitions(texts: dict[str, str]) -> list[tuple[str, int, str]]:
    """``(module, line, name)`` of each private definition that no module
    reads outside the definition's own body (a recursive call is no read)."""
    trees = {module: ast.parse(text) for module, text in texts.items()}
    reads = sum(map(read_names, trees.values()), collections.Counter())
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in private_definitions(tree)
        if reads[node.name] == read_names(node)[node.name]
    )


def test_the_private_rule_finds_what_it_looks_for():
    texts = {
        "a.py": (
            "def _used():\n    return 1\n"
            "def _orphan():\n    return _orphan()\n"
            "class _Kept:\n    pass\n"
            "def __getattr__(name):\n    pass\n"
            "def public():\n    return _used()\n"
        ),
        "b.py": "from .a import _Kept\nx = a._Kept\n",
    }
    assert unread_private_definitions(texts) == [("a.py", 3, "_orphan")]


def test_every_private_definition_is_read():
    texts = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_private_definitions(texts) == []
