"""The package's public names, its modules' imports and their private names.

A name dropped from __init__'s imports but left in __all__ would
otherwise break only `from circwords import *`; an import left behind
when its last use is deleted, or a private helper that only tests still
call, would otherwise go unnoticed.
"""

import ast
from pathlib import Path

import pytest

import circwords

MODULES = sorted(
    p for p in Path(circwords.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from circwords import *", ns)
    names = circwords.__all__
    assert len(names) == len(set(names))
    assert all(ns[name] is getattr(circwords, name) for name in names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def private_definitions(tree):
    """The private top-level functions, classes and constants a module defines."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(tree):
    """Every name a module reads: bare names, attributes and imported names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {a.name for a in node.names}
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_is_read_by_the_package(path):
    # reads from tests do not count: a helper only they call is dead code
    package = Path(circwords.__file__).parent.glob("*.py")
    read = set().union(*(names_read(ast.parse(p.read_text())) for p in package))
    assert sorted(private_definitions(ast.parse(path.read_text())) - read) == []
