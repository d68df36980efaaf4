"""No module of the package imports a name it never reads, or imports `ctypes`
or scipy, and the declared numpy floor covers the numpy the modules use.

A stdlib stand-in for a linter's unused-import rule: every name an
`import` binds anywhere in a module must be loaded somewhere in that
module, as a bare name or as the base of an attribute chain (both are
`ast.Name` loads), or be re-exported by name in its module-level
`__all__`.

Through `ctypes` a module can change the whole process from foreign
code, as a C allocator setting does, with nothing in Python to show it.
numpy itself loads `ctypes`, so the check reads the source, not
`sys.modules`.

scipy's import costs a CLI start-up more than the work of most commands,
so the program imports none of it; the tests keep it as an oracle.

`np.strings` first shipped in numpy 2.0, so a module that reads it needs
`pyproject.toml` to declare at least that numpy.

`numpy.random` is loaded by the first draw, not by the import: a command
that draws nothing (`estimate`, `sweep`, `fit` without `--umpu`) does
not pay its import at start-up.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "balancegrowth"


def unused_imports(source: str) -> list:
    """`line: name` for each imported name that `source` never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # a name listed in a module-level `__all__` is read by `from module import *`
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set:
    """The top-level name of every module that `source` imports, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_ctypes(path):
    assert "ctypes" not in imported_modules(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_panel_imports_scipy(path):
    # named when `panel` still imported scipy for the Hopkins diagnostic; now no module does
    assert "scipy" not in imported_modules(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f():\n    import ctypes\n", True),
        ("from ctypes import CDLL\n", True),
        ("import ctypes.util as u\n", True),
        ("from . import ctypes\n", False),  # a module of the package, not the stdlib one
        ("import numpy as np\n", False),
    ],
)
def test_ctypes_check_finds_every_import_form(source, found):
    assert ("ctypes" in imported_modules(source)) == found


@pytest.mark.parametrize(
    "source, unused",
    [
        ("from . import __version__ as _version\n", ["1: _version"]),
        ("import os.path\n", ["1: os"]),
        ("import os.path\nos.path.join('a')\n", []),
        ("import numpy as np\ndef f():\n    from math import pi\n    return np.e\n", ["3: pi"]),
        ("import json\njson = None\n", ["1: json"]),
        ("from os import path, sep\n__all__ = ['path']\n", ["1: sep"]),
        ("from os import path\ndef f():\n    __all__ = ['path']\n", ["1: path"]),
    ],
)
def test_checker_flags_unread_imports(source, unused):
    assert unused_imports(source) == unused


def uses_np_strings(source: str) -> bool:
    """True when `source` reads the `strings` namespace of numpy, as `np.strings` or `numpy.strings`."""
    return any(
        isinstance(node, ast.Attribute) and node.attr == "strings"
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        for node in ast.walk(ast.parse(source))
    )


def numpy_floor(pyproject: str) -> tuple:
    """The (major, minor) of the `numpy>=` requirement in the text of a pyproject.toml."""
    version = re.search(r'"numpy\s*>=\s*([0-9][0-9.]*)', pyproject).group(1)
    return (*map(int, version.split(".")), 0)[:2]


def test_numpy_floor_covers_np_strings():
    users = [p.name for p in sorted(SRC.glob("*.py")) if uses_np_strings(p.read_text(encoding="utf-8"))]
    if users:
        assert numpy_floor((ROOT / "pyproject.toml").read_text(encoding="utf-8")) >= (2, 0), users


@pytest.mark.parametrize(
    "source, found",
    [
        ("import numpy as np\nn = np.strings.str_len(a)\n", True),
        ("import numpy\nf = numpy.strings.encode\n", True),
        ("import numpy as np\nn = np.char.str_len(a)\n", False),
        ('"""np.strings.encode is slower"""\n', False),
    ],
)
def test_np_strings_check_finds_reads(source, found):
    assert uses_np_strings(source) == found


@pytest.mark.parametrize(
    "text, floor",
    [('dependencies = ["numpy>=1.23"]', (1, 23)), ('dependencies = [\n    "numpy >= 2",\n]', (2, 0))],
)
def test_numpy_floor_is_read(text, floor):
    assert numpy_floor(text) == floor


def test_cli_import_leaves_numpy_random_unloaded():
    code = "import sys, balancegrowth.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
