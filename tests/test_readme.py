"""README examples: the Library block runs, and every CLI line parses.

The signatures and flags the README shows are checked against the code,
so a change to either that leaves the other behind fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

from faultypolar.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(section: str, language: str) -> str:
    """The first fenced `language` block after the `## section` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    match = re.search(rf"^```{language}\n(.*?)^```", body, re.S | re.M)
    return match.group(1)


def _cli_commands() -> list[list[str]]:
    text = _block("CLI", "sh").replace("\\\n", " ")
    lines = [line.strip() for line in text.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("faultypolar ")]


def test_library_example_runs(capsys):
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_cli_block_lists_every_command():
    assert sorted({tuple(argv[:2]) if argv[0] == "sweep" else (argv[0],)
                   for argv in _cli_commands()}) == [
        ("construct",), ("simulate",), ("sweep", "fer-rate"), ("sweep", "protection"),
        ("sweep", "rate-loss"), ("sweep", "staircase")]


@pytest.mark.parametrize("argv", _cli_commands(), ids=" ".join)
def test_cli_example_parses(argv, tmp_path, capsys):
    assert main([*argv, "--out-dir", str(tmp_path), "--manifest-only"]) == 0
    assert capsys.readouterr().out.startswith("command=")
    assert not list(tmp_path.iterdir())
