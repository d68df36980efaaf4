"""Every flag a subcommand declares is read by that subcommand, and every numeric flag checks its range.

A stdlib stand-in for a dead-option lint: for each subparser of
`build_parser()`, every declared dest must appear as `args.<dest>` in
the body of `cmd_<name>` in `cli.py`. `command`, `func` and `quiet` are
exempt, because `main` reads them. No flag is declared with a bare
`int` or `float` type, which would take any value argparse can parse.
"""

import argparse
import ast
from pathlib import Path

import pytest

from balancegrowth.cli import build_parser

CLI = Path(__file__).resolve().parent.parent / "src" / "balancegrowth" / "cli.py"
EXEMPT = {"command", "func", "quiet"}


def _subparsers() -> dict:
    (action,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def args_read(source: str, function: str) -> set:
    """Attributes read off the name `args` inside `function`."""
    (node,) = (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef) and n.name == function)
    return {
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
    }


def unread_flags(parser: argparse.ArgumentParser, read: set) -> list:
    declared = {a.dest for a in parser._actions if a.default is not argparse.SUPPRESS}
    return sorted(declared - EXEMPT - read)


@pytest.mark.parametrize("name", sorted(_subparsers()))
def test_every_declared_flag_is_read(name):
    parser = _subparsers()[name]
    assert unread_flags(parser, args_read(CLI.read_text(encoding="utf-8"), f"cmd_{name}")) == []


def test_checker_flags_an_unread_flag():
    parser = argparse.ArgumentParser()
    parser.add_argument("data")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--quiet", action="store_true")
    source = "def cmd_x(args):\n    return open(args.data)\n"
    assert unread_flags(parser, args_read(source, "cmd_x")) == ["seed"]


@pytest.mark.parametrize("name", sorted(_subparsers()))
def test_no_numeric_flag_takes_every_value(name):
    bare = [a.dest for a in _subparsers()[name]._actions if a.type in (int, float)]
    assert bare == []
