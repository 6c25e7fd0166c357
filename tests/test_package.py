"""The package's public names and its modules' imports.

A name dropped from __init__'s imports but left in __all__ would
otherwise break only `from circwords import *`; an import left behind
when its last use is deleted would otherwise go unnoticed.
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
