"""Exact work per CLI command on an n-record store: hashes computed and ledger
lines parsed. Counts, not timings, so a redundant pass fails deterministically."""

from collections import Counter

import pytest

import chaintable.chain
import chaintable.storage
from chaintable import ChainTableStore, UpdateBatch, UpdateRecord
from conftest import invoke_cli

SIZES = (0, 1, 30)


def _store(tmp_path, n):
    ledger, table = tmp_path / "l.ctl", tmp_path / "t.ctd"
    with ChainTableStore.create(ledger, table, "Events") as store:
        for i in range(1, n + 1):
            store.append(UpdateBatch([UpdateRecord(i, f"t{i}", f"d{i}")]))
    return ledger, table


def _counted(monkeypatch, argv, stdin_text=None):
    """Run one CLI command; returns (compute_hash calls, parse_record_line calls)."""
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(chaintable.chain, "compute_hash")
    count(chaintable.storage, "parse_record_line")
    code, _, err = invoke_cli(argv, stdin_text)
    assert code == 0, err
    return calls["compute_hash"], calls["parse_record_line"]


@pytest.mark.parametrize("n", SIZES)
def test_append_parses_once_and_hashes_2n_plus_1(tmp_path, monkeypatch, n):
    ledger, table = _store(tmp_path, n)
    batch = '[{"opid":1,"timestamp":"new","description":"x"}]'
    argv = ["append", "--ledger", ledger, "--table", table]
    assert _counted(monkeypatch, argv, batch) == (2 * n + 1, n)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("command", ["verify", "reconstruct", "materialize"])
def test_read_commands_parse_and_hash_each_record_once(tmp_path, monkeypatch, n, command):
    ledger, _ = _store(tmp_path, n)
    argv = [command, "--ledger", ledger]
    if command == "reconstruct":
        argv += ["--out", tmp_path / "rebuilt.ctd"]
    assert _counted(monkeypatch, argv) == (n, n)
