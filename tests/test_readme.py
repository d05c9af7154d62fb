"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_creates_the_named_files(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, "README.md", "exec"), {})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.data", "events.ledger"]
    ledger_lines = (tmp_path / "events.ledger").read_text(encoding="utf-8").splitlines()
    assert ledger_lines[0] == "CHAINTABLE-LEDGER v1 Events double-sha256-v1"
    assert len(ledger_lines) == 3
    data_lines = (tmp_path / "events.data").read_text(encoding="utf-8").splitlines()
    assert data_lines[0] == "CHAINTABLE-DATA v1 Events"
    assert len(data_lines) == 3
