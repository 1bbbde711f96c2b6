"""The README's examples run: every `$ gradedpi ...` line and the Python snippet."""

import pathlib
import re
import shlex

import pytest

import gradedpi.cli as cli

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")
COMMANDS = re.findall(r"^\$ gradedpi (.*)$", README, re.MULTILINE)
SNIPPETS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def test_readme_has_examples():
    assert len(COMMANDS) >= 7 and len(SNIPPETS) == 1


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, capsys):
    code = cli.main(["--no-cache"] + shlex.split(line))
    capsys.readouterr()
    assert code in (0, 1)


@pytest.mark.parametrize("snippet", SNIPPETS)
def test_readme_snippet_runs(snippet, capsys):
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out
