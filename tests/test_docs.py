"""The README's library example runs, and the package exports what it lists."""

import re
from pathlib import Path

import filtered_tms

README = Path(__file__).parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert float(printed[0]) > 0.0


def test_every_exported_name_resolves():
    missing = [name for name in filtered_tms.__all__ if not hasattr(filtered_tms, name)]
    assert missing == []
    assert len(set(filtered_tms.__all__)) == len(filtered_tms.__all__)
