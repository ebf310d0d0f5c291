"""Every name a module of bosegas imports is read somewhere.

A module-level import must be read in its module, a function's import in
that function (nested scopes included).  Package __init__.py files are
skipped: their imports are the package's re-exports.  String annotations
count as reads of the names they hold.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bosegas"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _bound(node) -> list:
    """(name, line) of each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]


def _reads(tree) -> set:
    """Names loaded anywhere under tree, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            annotations += [a.annotation for a in (args.vararg, args.kwarg) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _reads(ast.parse(ann.value, mode="eval"))
    return names


def _scope_imports(scope) -> list:
    """Import statements directly in scope's body, not in a nested function."""
    found, todo = [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def unread_imports(source: str) -> list:
    """(name, line) of every imported name its scope never reads."""
    tree = ast.parse(source)
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unread = []
    for scope in scopes:
        reads = _reads(scope)
        for node in _scope_imports(scope):
            unread += [(name, line) for name, line in _bound(node) if name not in reads]
    return sorted(unread, key=lambda item: item[1])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unread_import(path):
    assert unread_imports(path.read_text()) == []


def test_finds_unread_names():
    source = (
        "import os\n"
        "from dataclasses import dataclass, field\n"
        "def f(x: 'Sequence'):\n"
        "    from typing import Sequence, Mapping\n"
        "    return dataclass\n"
    )
    assert unread_imports(source) == [("os", 1), ("field", 2), ("Mapping", 4)]
