"""The README's library example and CLI commands run, and the package
exports what it lists."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

import filtered_tms
from filtered_tms import cli

README = Path(__file__).parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert float(printed[0]) > 0.0


def readme_cli_commands() -> list[list[str]]:
    """The argument lists of every ``filtered-tms`` command in the README's
    CLI block, continuation lines joined and comments dropped."""
    text = README.read_text()
    block = re.search(r"```sh\n(.*?)```", text[text.index("## CLI"):], re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "filtered-tms", line
            commands.append(words[1:])
    return commands


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert len(commands) >= 10
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, argv
        if out.getvalue():
            # strictly: no bare Infinity or NaN
            json.loads(out.getvalue(), parse_constant=lambda token: pytest.fail(
                f"{argv[0]} printed the non-standard JSON number {token}"))


def test_every_exported_name_resolves():
    missing = [name for name in filtered_tms.__all__ if not hasattr(filtered_tms, name)]
    assert missing == []
    assert len(set(filtered_tms.__all__)) == len(filtered_tms.__all__)
