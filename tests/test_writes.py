"""Only `_Run.finish` in `cli.py` writes files.

A stdlib `ast` check: every use in `cli.py` of an `io.write_*`
function or of `open`, called or handed on as a value, must sit inside
`_Run.finish`, so no subcommand writes an output of its own and a run
that fails before `finish` leaves no file behind.
"""

import ast
from pathlib import Path

import pytest

CLI = Path(__file__).resolve().parent.parent / "src" / "balancegrowth" / "cli.py"


def _is_writer(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "open" and isinstance(node.ctx, ast.Load)
    return (
        isinstance(node, ast.Attribute)
        and node.attr.startswith("write_")
        and isinstance(node.value, ast.Name)
        and node.value.id == "io"
    )


def write_sites(source: str) -> list:
    """Sorted qualified names of the functions (`Class.method` for a method) that write a file."""
    sites = set()

    def visit(node, scope):
        if _is_writer(node):
            sites.add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, [*scope, child.name] if named else scope)

    visit(ast.parse(source), [])
    return sorted(sites)


def test_only_run_finish_writes():
    assert write_sites(CLI.read_text(encoding="utf-8")) == ["_Run.finish"]


@pytest.mark.parametrize(
    "source, sites",
    [
        ("def cmd_x(args):\n    io.write_csv(args.out, {})\n", ["cmd_x"]),
        ("def cmd_x(args):\n    with open(args.out, 'w') as fh:\n        fh.write('x')\n", ["cmd_x"]),
        ("class _Run:\n    def finish(self):\n        io.write_json('m', {})\n", ["_Run.finish"]),
        ("def cmd_x(args):\n    run.write(args.out, {}, io.write_csv)\n", ["cmd_x"]),
        ("def cmd_x(args):\n    run.finish({})\n    io.read_values_csv(args.data)\n", []),
        ("io.write_snapshot_csv('s.csv', snap)\n", ["<module>"]),
    ],
)
def test_checker_finds_write_sites(source, sites):
    assert write_sites(source) == sites
