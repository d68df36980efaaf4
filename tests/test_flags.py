"""Every flag a subcommand declares is read by that subcommand, has a caller, and checks its range.

A stdlib stand-in for a dead-option lint: for each subparser of
`build_parser()`, every declared dest must appear as `args.<dest>` in
the body of `cmd_<name>` in `cli.py`. `command`, `func` and `quiet` are
exempt, because `main` reads them. Every option string is set by a
benchmark workload, the acceptance gate or the golden runs, or is listed
in `UNCALLED` with its reason. No flag is declared with a bare `int` or
`float` type, which would take any value argparse can parse.
"""

import argparse
import ast
from pathlib import Path

import pytest

from balancegrowth.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
CLI = ROOT / "src" / "balancegrowth" / "cli.py"
EXEMPT = {"command", "func", "quiet"}
CALLERS = [ROOT / "perfbench" / "workloads.py", ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "test_golden.py"]
# options that no caller sets, each with the reason it stays
UNCALLED = {
    "-h": "argparse's help",
    "--help": "argparse's help",
    "--version": "prints the program version",
    "--xmin-candidates": "perfbench/traced.py binds fit_power_law(max_candidates=); it goes with that binding",
    "--umpu-method": "perfbench/traced.py binds umpu_sweep(method=); it goes with that binding",
}


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


def uncalled_options(parsers, texts) -> list:
    """Option strings of `parsers` that appear quoted in none of `texts`."""
    options = {opt for parser in parsers for action in parser._actions for opt in action.option_strings}
    return sorted(opt for opt in options if not any(f'"{opt}"' in text for text in texts))


def test_every_flag_has_a_caller():
    texts = [path.read_text(encoding="utf-8") for path in CALLERS]
    parsers = [build_parser(), *_subparsers().values()]
    assert [opt for opt in uncalled_options(parsers, texts) if opt not in UNCALLED] == []


def test_checker_flags_an_uncalled_option():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bins")
    parser.add_argument("--bins-max")
    assert uncalled_options([parser], ['main(["estimate", "--bins", "60"])']) == ["--bins-max", "--help", "-h"]
