"""The README's "Library use" example, run as written."""

import re
from pathlib import Path

import smokedata

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    smokedata.write_corpus(tmp_path / "corpus.txt", n_sentences=10_000)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 1000
