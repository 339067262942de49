"""The README's shell examples run as written: every `hyperconnect` command in
its sh blocks exits 0, and one followed by a `# -> value` line prints that
value."""

import re
import shlex
from pathlib import Path

import pytest

from hyperconnect.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list:
    """(command, expected output or None) for each `hyperconnect` line of the
    sh blocks, with lines that end in a backslash joined to the next."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = iter(block.splitlines())
        pending = None
        for line in lines:
            if pending is not None:
                commands.append((pending, line[len("# -> "):] if line.startswith("# -> ")
                                 else None))
                pending = None
            if line.startswith("hyperconnect "):
                while line.endswith("\\"):
                    line = line[:-1] + next(lines)
                pending = line
        if pending is not None:
            commands.append((pending, None))
    return commands


COMMANDS = readme_commands()


def test_readme_shows_every_subcommand():
    assert {shlex.split(command)[1] for command, _ in COMMANDS} == {
        "eval", "expand", "connect", "verify", "catalog"}


@pytest.mark.parametrize("command,expected", COMMANDS,
                         ids=[f"{i}-{shlex.split(c)[1]}" for i, (c, _) in enumerate(COMMANDS)])
def test_readme_command_runs(capsys, command, expected):
    code = main(shlex.split(command, comments=True)[1:])
    out = capsys.readouterr().out
    assert code == 0, command
    if expected is not None:
        assert out.strip() == expected
