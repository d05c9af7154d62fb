"""The README's library example and CLI transcripts run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import chaintable
from chaintable import ChainTableError, StorageViolation, StorageViolationKind

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


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


def _console_steps(block):
    """Split a console block into [command, expected stdout lines] steps. A
    command runs on while it ends in a backslash or leaves a quote open."""
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append([line[2:], []])
        elif steps[-1][0].endswith("\\") or steps[-1][0].count("'") % 2:
            steps[-1][0] += "\n" + line
        else:
            steps[-1][1].append(line)
    for step in steps:
        while step[1] and not step[1][-1]:
            step[1].pop()
    return steps


def _run_console_block(block, cwd):
    shell_prelude = f"chaintable() {{ {shlex.quote(sys.executable)} -m chaintable \"$@\"; }}\n"
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    for command, expected in _console_steps(block):
        result = subprocess.run(
            ["bash", "-c", shell_prelude + command],
            cwd=cwd, env=env, capture_output=True, text=True, check=False,
        )
        actual = result.stdout.splitlines()
        assert len(actual) == len(expected), (command, result.stdout, result.stderr)
        for want, got in zip(expected, actual):
            pattern = ".*".join(map(re.escape, want.split("...")))
            assert re.fullmatch(pattern, got), (command, want, got)


def test_console_transcripts_replay_as_written(tmp_path):
    """Every ```console block, run in order through bash; `...` matches any text.
    A block introduced as starting from a fresh two-record store gets one,
    rebuilt in a new directory by replaying the first block."""
    parts = README.read_text(encoding="utf-8").split("```")
    blocks = [
        (" ".join(parts[i - 1].split()), parts[i][len("console\n") :])
        for i in range(1, len(parts), 2)
        if parts[i].startswith("console\n")
    ]
    assert len(blocks) >= 4
    cwd = tmp_path / "store"
    cwd.mkdir()
    rebuilt = 0
    for prose, block in blocks:
        if "fresh two-record store" in prose:
            rebuilt += 1
            cwd = tmp_path / f"fresh{rebuilt}"
            cwd.mkdir()
            _run_console_block(blocks[0][1], cwd)
        _run_console_block(block, cwd)
    assert rebuilt == 1


def test_exit_code_table_names_each_error_class_once_with_its_exit_code():
    """Every exported ChainTableError class (a StorageViolation per kind) is
    named in exactly one row of the README's exit-code table, and that row's
    code is its exit_code."""
    section = README.read_text(encoding="utf-8").split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    codes: dict[tuple[str, str | None], list[int]] = {}
    for code, cells in re.findall(r"^\| (\d) \|(.*)\|$", section, re.MULTILINE):
        for name, kinds in re.findall(r"`(\w+)(?:\(([\w, ]+)\))?`", cells):
            for kind in kinds.split(", ") if kinds else [None]:
                codes.setdefault((name, kind), []).append(int(code))
    exported = [getattr(chaintable, name) for name in chaintable.__all__]
    errors = [c for c in exported if isinstance(c, type) and issubclass(c, ChainTableError)]
    assert StorageViolation in errors
    for cls in errors:
        if cls is StorageViolation:
            assert ("StorageViolation", None) not in codes
            for kind in StorageViolationKind:
                code = StorageViolation(kind, "detail").exit_code
                assert codes.get(("StorageViolation", kind.name)) == [code], kind
        else:
            assert codes.get((cls.__name__, None)) == [cls.exit_code], cls
