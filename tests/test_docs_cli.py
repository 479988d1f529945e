"""Every ``repro`` command line in the docs parses with the current CLI.

The lines are the ``$ repro ...`` console lines of README.md and
docs/API.md and the ``repro ...`` lines of the ``repro.cli`` docstring,
with their continuation lines joined (after a trailing ``\\`` or inside
an open quote).  Doc notation is read as a reader would:
``[--flag VALUE]`` is an optional group, ``[A | B]`` takes ``A``, and the
placeholder ``N`` stands for a number.  A flag that no longer exists, or
a value it no longer takes, fails here instead of surviving in the docs.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

#: Placeholders the docs use where a typed value goes.
PLACEHOLDERS = {"N": "1"}


def _continued(command):
    """Whether ``command`` goes on on the next line: a ``\\`` or an open quote."""
    if command.endswith("\\"):
        return True
    try:
        shlex.split(command, comments=True)
    except ValueError:
        return True
    return False


def _commands(text, prompt):
    """The lines of ``text`` that start with ``prompt``, continuations joined."""
    lines = [line.strip() for line in text.splitlines()]
    commands = []
    for at, line in enumerate(lines):
        if not line.startswith(prompt):
            continue
        command = line[len(prompt) - len("repro "):]
        while _continued(command):
            at += 1
            command = command.removesuffix("\\") + " " + lines[at]
        commands.append(command)
    return commands


def _command_lines():
    sources = [
        ("README.md", (ROOT / "README.md").read_text(encoding="utf-8"), "$ repro "),
        ("API.md", (ROOT / "docs" / "API.md").read_text(encoding="utf-8"), "$ repro "),
        ("cli.py", repro.cli.__doc__, "repro "),
    ]
    return [
        pytest.param(command, id=f"{source}-{index}")
        for source, text, prompt in sources
        for index, command in enumerate(_commands(text, prompt))
    ]


def _argv(line):
    """The argument vector a doc line stands for (see the module docstring)."""
    argv, in_group, skipping = [], False, False
    for token in shlex.split(line, comments=True)[1:]:
        if token.startswith("[-"):
            in_group, token = True, token[1:]
        closes = in_group and token.endswith("]")
        if closes:
            in_group, token = False, token[:-1]
        if token == "|":
            skipping = True
        elif not skipping:
            argv.append(PLACEHOLDERS.get(token, token))
        if closes:
            skipping = False
    return argv


COMMAND_LINES = _command_lines()


def test_the_docs_hold_command_lines():
    assert len(COMMAND_LINES) > 60
    assert {param.values[0].split()[1] for param in COMMAND_LINES} >= {
        "run", "sweep", "queue", "worker", "store", "experiment", "serve", "metrics",
    }


def test_doc_notation():
    assert _argv("repro store ls [--problem esst] [--keys | --stat]  # note") == [
        "store", "ls", "--problem", "esst", "--keys",
    ]
    assert _argv("repro sweep --set 'sizes=[4,8]' [--max-units N]") == [
        "sweep", "--set", "sizes=[4,8]", "--max-units", "1",
    ]


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_documented_command_parses(line):
    parser = build_parser()
    argv = _argv(line)
    try:
        args = parser.parse_args(argv)
        if args.command == "metrics" and args.rest:
            parser.parse_args(args.rest)  # the command ``metrics dump`` wraps
    except SystemExit:
        pytest.fail(f"the CLI no longer accepts the documented line: {line}")
