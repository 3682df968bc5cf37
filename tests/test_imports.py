"""No module in the package or the tests imports a name it never uses.

The scan is deliberately crude and needs only the standard library: an
imported name counts as used when it occurs more than once in the module
source, matched on word boundaries, so uses inside string annotations,
docstrings and comments all count.  `__future__` imports and names listed in
the module's `__all__` are skipped.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "apolar").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Imported names that occur at most once in the source."""
    tree = ast.parse(source)
    exported = set()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    return [
        name
        for name in imported
        if name not in exported and len(re.findall(rf"\b{re.escape(name)}\b", source)) <= 1
    ]


def test_scan_flags_only_names_used_once():
    source = '''"""Docstring."""
from __future__ import annotations
import os
import json as js
from fractions import Fraction
from typing import Sequence, TYPE_CHECKING
from .poly import Polynomial
__all__ = ["Polynomial"]

def f(x: "Sequence[int]") -> None:
    return js.dumps(list(x))
'''
    assert unused_imports(source) == ["os", "Fraction", "TYPE_CHECKING"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
