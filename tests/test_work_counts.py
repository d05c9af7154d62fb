"""Exact work per CLI command on an n-record store: hashes computed and ledger
lines parsed. Counts, not timings, so a redundant pass fails deterministically."""

from collections import Counter

import pytest

import chaintable.attack
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
    count(chaintable.attack, "compute_hash")
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
@pytest.mark.parametrize("command", ["verify", "verify --table", "reconstruct", "materialize"])
def test_read_commands_parse_and_hash_each_record_once(tmp_path, monkeypatch, n, command):
    ledger, table = _store(tmp_path, n)
    argv = [command.split()[0], "--ledger", ledger]
    if command == "verify --table":
        argv += ["--table", table]
    if command == "reconstruct":
        argv += ["--out", tmp_path / "rebuilt.ctd"]
    assert _counted(monkeypatch, argv) == (n, n)


@pytest.mark.parametrize(("n", "k"), [(1, 1), (30, 1), (30, 15), (30, 30)])
def test_tamper_in_place_parses_once_and_hashes_the_cascade(tmp_path, monkeypatch, n, k):
    ledger, _ = _store(tmp_path, n)
    argv = ["tamper", "--ledger", ledger, "--scenario", "1", "--lid", k, "--set", "x"]
    assert _counted(monkeypatch, argv) == (n - k + 1, n)


@pytest.mark.parametrize("n", (1, 30))
def test_tamper_scenario_two_parses_once_and_hashes_twice(tmp_path, monkeypatch, n):
    ledger, _ = _store(tmp_path, n)
    argv = ["tamper", "--ledger", ledger, "--scenario", "2", "--set", "x"]
    assert _counted(monkeypatch, argv) == (2, n)
