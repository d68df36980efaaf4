"""No module of the package imports a name it never reads.

A stdlib stand-in for a linter's unused-import rule: every name an
`import` binds anywhere in a module must be loaded somewhere in that
module, as a bare name or as the base of an attribute chain (both are
`ast.Name` loads).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "balancegrowth"


def unused_imports(source: str) -> list:
    """`line: name` for each imported name that `source` never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("from . import __version__ as _version\n", ["1: _version"]),
        ("import os.path\n", ["1: os"]),
        ("import os.path\nos.path.join('a')\n", []),
        ("import numpy as np\ndef f():\n    from math import pi\n    return np.e\n", ["3: pi"]),
        ("import json\njson = None\n", ["1: json"]),
    ],
)
def test_checker_flags_unread_imports(source, unused):
    assert unused_imports(source) == unused
