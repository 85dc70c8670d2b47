"""README's "Library use" snippet, run as written against a config file."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def library_snippet():
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_snippet_runs_as_written(tmp_path, monkeypatch, capsys):
    (tmp_path / "config.yaml").write_text("{}\n")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_snippet(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # lost packets, trigger and completion, then the attempts it names
    assert lines[0] == "0 31000000 31010171"
    assert lines[1] == "[('cellular', 200000)]"
    # then one line per 60 ms window of the 60 s call: start and R-factor
    assert len(lines) == 2 + 1001
    assert lines[2].startswith("1000000 ")
