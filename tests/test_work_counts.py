"""Exact work per CLI command on an n-record store: ledger loads, chain
verifications, hashes computed, ledger lines parsed, batches encoded,
data-file rows decoded, rows built and chain records built.
Counts, not timings, so a redundant pass fails deterministically."""

from collections import Counter

import pytest

import chaintable.attack
import chaintable.chain
import chaintable.cli
import chaintable.encoding
import chaintable.storage
import chaintable.store
import chaintable.table
from chaintable import (
    ChainRecord,
    ChainTableStore,
    DataTable,
    UpdateBatch,
    UpdateRecord,
    load_ledger,
    materialize,
)
from conftest import invoke_cli

SIZES = (0, 1, 30)


def _store(tmp_path, n):
    ledger, table = tmp_path / "l.ctl", tmp_path / "t.ctd"
    with ChainTableStore.create(ledger, table, "Events") as store:
        for i in range(1, n + 1):
            store.append(UpdateBatch([UpdateRecord(i, f"t{i}", f"d{i}")]))
    return ledger, table


def _count(monkeypatch, calls, module, name):
    """From here on, count calls to module.name in calls[name]."""
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def _counting(monkeypatch):
    """Count compute_hash, parse_record_line, canonical batch encodes (the
    one function that encodes rows into an UpdateBatch's bytes), data-file row
    decodes and rows built (the one function that turns checked row values
    into an UpdateRecord) from here on."""
    calls = Counter()
    _count(monkeypatch, calls, chaintable.chain, "compute_hash")
    _count(monkeypatch, calls, chaintable.attack, "compute_hash")
    _count(monkeypatch, calls, chaintable.storage, "parse_record_line")
    _count(monkeypatch, calls, chaintable.encoding, "_encode_records")
    _count(monkeypatch, calls, chaintable.table, "decode_record")
    _count(monkeypatch, calls, chaintable.encoding, "_row_record")
    return calls


def _loads_and_verifies(monkeypatch):
    """Count ledger loads (the one function that parses a ledger file's bytes)
    and chain verifications (verify_chain, the one verifier), under every name
    that calls it, from here on."""
    calls = Counter()
    _count(monkeypatch, calls, chaintable.storage, "_parse_file")
    for module in (chaintable.chain, chaintable.cli, chaintable.store):
        _count(monkeypatch, calls, module, "verify_chain")
    return calls


def _counting_records(monkeypatch):
    """Count every ChainRecord built, by its one constructor, from here on."""
    calls, new = Counter(), ChainRecord.__new__

    def counting(cls, *args, **kwargs):
        calls["records"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ChainRecord, "__new__", counting)
    return calls


def _counted(monkeypatch, argv, stdin_text=None):
    """Run one CLI command; returns (hashes, parsed lines, batch encodes)."""
    calls = _counting(monkeypatch)
    code, _, err = invoke_cli(argv, stdin_text)
    assert code == 0, err
    return calls["compute_hash"], calls["parse_record_line"], calls["_encode_records"]


@pytest.mark.parametrize("n", SIZES)
def test_append_parses_once_and_hashes_n_plus_1(tmp_path, monkeypatch, n):
    ledger, table = _store(tmp_path, n)
    batch = '[{"opid":1,"timestamp":"new","description":"x"}]'
    argv = ["append", "--ledger", ledger, "--table", table]
    # Hashes: open verifies n, then the new record's one.
    # Encodes: the new batch once; a parsed line is checked by pattern and
    # encodes nothing, and hashing and rendering reuse the kept bytes.
    assert _counted(monkeypatch, argv, batch) == (n + 1, n, 1)


@pytest.mark.parametrize("n", SIZES)
def test_in_session_append_encodes_only_the_new_batch(tmp_path, monkeypatch, n):
    ledger, table = _store(tmp_path, n)
    with ChainTableStore.open(ledger, table) as store:
        calls = _counting(monkeypatch)
        _count(monkeypatch, calls, chaintable.storage, "check_update")
        store.append(UpdateBatch([UpdateRecord(1, "new", "x")]))
    # One hash: the new record's. The bytes the batch checked are not checked again.
    assert (calls["compute_hash"], calls["_encode_records"], calls["check_update"]) == (1, 1, 0)


@pytest.mark.parametrize("n", SIZES)
def test_in_session_append_reads_only_the_new_batch_keys(tmp_path, monkeypatch, n):
    ledger, table = _store(tmp_path, n)
    calls = Counter()
    key, keys = UpdateRecord.key, DataTable.keys

    def counting_key(record):
        calls["key"] += 1
        return key.fget(record)

    def counting_keys(self):
        calls["keys"] += 1
        return keys(self)

    with ChainTableStore.open(ledger, table) as store:
        batch = UpdateBatch([UpdateRecord(1, "new", "x")])
        monkeypatch.setattr(UpdateRecord, "key", property(counting_key))
        monkeypatch.setattr(DataTable, "keys", counting_keys)
        _count(monkeypatch, calls, chaintable.store, "key_texts")
        store.append(batch)
    # One read of the new batch's key texts, to check them against the
    # history and then to record them; no row's key is read.
    assert (calls["keys"], calls["key"], calls["key_texts"]) == (0, 0, 1)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("command", ["verify", "verify --table", "reconstruct", "materialize"])
def test_read_commands_parse_and_hash_each_record_once(tmp_path, monkeypatch, n, command):
    ledger, table = _store(tmp_path, n)
    argv = [command.split()[0], "--ledger", ledger]
    if command == "verify --table":
        argv += ["--table", table]
    if command == "reconstruct":
        argv += ["--out", tmp_path / "rebuilt.ctd"]
    # Encodes: none; each parsed line is checked by pattern.
    assert _counted(monkeypatch, argv) == (n, n, 0)


@pytest.mark.parametrize("n", SIZES)
def test_status_parses_and_encodes_each_record_once_and_hashes_none(tmp_path, monkeypatch, n):
    ledger, _ = _store(tmp_path, n)
    # Each record is parsed once and checked by pattern; none is encoded.
    assert _counted(monkeypatch, ["status", "--ledger", ledger]) == (0, n, 0)


@pytest.mark.parametrize(("n", "k"), [(1, 1), (30, 1), (30, 15), (30, 30)])
def test_tamper_in_place_parses_once_and_hashes_the_cascade(tmp_path, monkeypatch, n, k):
    ledger, _ = _store(tmp_path, n)
    argv = ["tamper", "--ledger", ledger, "--scenario", "1", "--lid", k, "--set", "x"]
    # Encodes: the forged batch and the cascade's marker batch; parsing encodes none.
    assert _counted(monkeypatch, argv) == (n - k + 1, n, 2)


@pytest.mark.parametrize("n", (1, 30))
def test_tamper_scenario_two_parses_once_and_hashes_twice(tmp_path, monkeypatch, n):
    ledger, _ = _store(tmp_path, n)
    argv = ["tamper", "--ledger", ledger, "--scenario", "2", "--set", "x"]
    assert _counted(monkeypatch, argv) == (2, n, 2)


@pytest.mark.parametrize("n", SIZES)
def test_open_parses_and_hashes_each_record_once_and_encodes_none(tmp_path, monkeypatch, n):
    ledger, table = _store(tmp_path, n)
    calls = _counting(monkeypatch)
    ChainTableStore.open(ledger, table).close()
    # Keys come from each batch's kept bytes, so open decodes and encodes none.
    assert (calls["compute_hash"], calls["parse_record_line"], calls["_encode_records"]) == (n, n, 0)


# (ledger loads, chain verifications) per CLI command.
LOADS_AND_VERIFIES = {
    "append": (1, 1),
    "verify": (1, 1),
    "verify --table": (1, 1),
    "reconstruct": (1, 1),
    "materialize": (1, 1),
    "status": (1, 0),
    "tamper --scenario 2": (1, 0),
}


@pytest.mark.parametrize(
    ("command", "n"),
    # tamper --scenario 2 forges the last record, so it needs one.
    [(command, n) for command in LOADS_AND_VERIFIES for n in SIZES if n or command != "tamper --scenario 2"],
)
def test_each_command_loads_the_ledger_once_and_verifies_it_at_most_once(
    tmp_path, monkeypatch, command, n
):
    ledger, table = _store(tmp_path, n)
    argv = {
        "append": ["append", "--ledger", ledger, "--table", table],
        "verify": ["verify", "--ledger", ledger],
        "verify --table": ["verify", "--ledger", ledger, "--table", table],
        "reconstruct": ["reconstruct", "--ledger", ledger, "--out", tmp_path / "rebuilt.ctd"],
        "materialize": ["materialize", "--ledger", ledger],
        "status": ["status", "--ledger", ledger],
        "tamper --scenario 2": ["tamper", "--ledger", ledger, "--scenario", "2", "--set", "x"],
    }[command]
    batch = '[{"opid":1,"timestamp":"new","description":"x"}]' if command == "append" else None
    calls = _loads_and_verifies(monkeypatch)
    code, _, err = invoke_cli(argv, batch)
    assert code == 0, err
    assert (calls["_parse_file"], calls["verify_chain"]) == LOADS_AND_VERIFIES[command]


@pytest.mark.parametrize("n", SIZES)
def test_open_loads_and_verifies_once_and_an_append_does_neither(tmp_path, monkeypatch, n):
    ledger, table = _store(tmp_path, n)
    calls = _loads_and_verifies(monkeypatch)
    with ChainTableStore.open(ledger, table) as store:
        assert (calls["_parse_file"], calls["verify_chain"]) == (1, 1)
        store.append(UpdateBatch([UpdateRecord(1, "new", "x")]))
        assert (calls["_parse_file"], calls["verify_chain"]) == (1, 1)


@pytest.mark.parametrize("n", SIZES)
def test_success_paths_decode_no_data_file_row(tmp_path, monkeypatch, n):
    ledger, table = _store(tmp_path, n)
    calls = _counting(monkeypatch)
    assert invoke_cli(["verify", "--ledger", ledger, "--table", table])[0] == 0
    batch = '[{"opid":1,"timestamp":"new","description":"x"}]'
    assert invoke_cli(["append", "--ledger", ledger, "--table", table], batch)[0] == 0
    ChainTableStore.open(ledger, table).close()
    table.write_bytes(table.read_bytes()[:-3])  # torn: open completes it from bytes
    ChainTableStore.open(ledger, table).close()
    assert calls["decode_record"] == 0


def test_a_differing_data_file_is_decoded_to_report_how(tmp_path, monkeypatch):
    ledger, table = _store(tmp_path, 30)
    table.write_bytes(table.read_bytes().replace(b'"d30"', b'"xx"'))
    calls = _counting(monkeypatch)
    assert invoke_cli(["verify", "--ledger", ledger, "--table", table])[0] == 1
    assert calls["decode_record"] == 30


def _multi_row_store(tmp_path, n):
    """n batches of 1 to 3 rows; returns (ledger, table, row count)."""
    ledger, table = tmp_path / "l.ctl", tmp_path / "t.ctd"
    rows = 0
    with ChainTableStore.create(ledger, table, "Events") as store:
        for i in range(1, n + 1):
            batch = [UpdateRecord(j, f"t{i}", f"d{i}") for j in range(1, i % 3 + 2)]
            store.append(UpdateBatch(batch))
            rows += len(batch)
    return ledger, table, rows


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("command", ["status", "verify", "verify --table", "reconstruct"])
def test_commands_that_use_no_rows_build_none(tmp_path, monkeypatch, n, command):
    ledger, table, _ = _multi_row_store(tmp_path, n)
    argv = [command.split()[0], "--ledger", ledger]
    if command == "verify --table":
        argv += ["--table", table]
    if command == "reconstruct":
        argv += ["--out", tmp_path / "rebuilt.ctd"]
    calls = _counting(monkeypatch)
    code, _, err = invoke_cli(argv)
    assert code == 0, err
    assert calls["_row_record"] == 0


READ_COMMANDS = ["status", "verify", "verify --table", "reconstruct", "materialize"]


@pytest.mark.parametrize(
    ("command", "n"),
    # tamper forges the last record, so it needs one.
    [(c, n) for c in [*READ_COMMANDS, "append", "tamper"] for n in SIZES if n or c != "tamper"],
)
def test_each_command_builds_one_chain_record_per_ledger_line(tmp_path, monkeypatch, command, n):
    ledger, table = _store(tmp_path, n)
    argv = {
        "status": ["status", "--ledger", ledger],
        "verify": ["verify", "--ledger", ledger],
        "verify --table": ["verify", "--ledger", ledger, "--table", table],
        "reconstruct": ["reconstruct", "--ledger", ledger, "--out", tmp_path / "rebuilt.ctd"],
        "materialize": ["materialize", "--ledger", ledger],
        "append": ["append", "--ledger", ledger, "--table", table],
        "tamper": ["tamper", "--ledger", ledger, "--scenario", "2", "--set", "x"],
    }[command]
    batch = '[{"opid":1,"timestamp":"new","description":"x"}]' if command == "append" else None
    calls = _counting_records(monkeypatch)
    code, _, err = invoke_cli(argv, batch)
    assert code == 0, err
    # A checked line is its record. append seals one more, which the ledger
    # file keeps as it is; tamper forges twice (the attack and the cascade
    # count), each building the edited record and its re-hashed one.
    extra = {"append": 1, "tamper": 4}.get(command, 0)
    assert calls["records"] == n + extra


@pytest.mark.parametrize("n", SIZES)
def test_open_builds_each_chain_record_once(tmp_path, monkeypatch, n):
    ledger, table = _store(tmp_path, n)
    calls = _counting_records(monkeypatch)
    ChainTableStore.open(ledger, table).close()
    assert calls["records"] == n


@pytest.mark.parametrize("n", SIZES)
def test_open_builds_no_rows(tmp_path, monkeypatch, n):
    ledger, table, _ = _multi_row_store(tmp_path, n)
    calls = _counting(monkeypatch)
    ChainTableStore.open(ledger, table).close()
    assert calls["_row_record"] == 0


@pytest.mark.parametrize("n", SIZES)
def test_materialize_builds_each_view_row_once(tmp_path, monkeypatch, n):
    ledger, _, rows = _multi_row_store(tmp_path, n)
    view_rows = len(materialize(load_ledger(ledger)))
    assert view_rows < rows or n < 2  # rows that lose the replay are never built
    calls = _counting(monkeypatch)
    assert invoke_cli(["materialize", "--ledger", ledger])[0] == 0
    assert calls["_row_record"] == view_rows


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "flags", [(), ("--json",), ("--out",), ("--json", "--out")], ids=["text", "json", "out", "json-out"]
)
def test_materialize_builds_only_the_output_it_prints(tmp_path, monkeypatch, n, flags):
    ledger, _, _ = _multi_row_store(tmp_path, n)
    view_rows = len(materialize(load_ledger(ledger)))
    argv = ["materialize", "--ledger", ledger, *flags]
    if "--out" in flags:
        argv.append(tmp_path / "view.json")
    calls = _counting(monkeypatch)
    _count(monkeypatch, calls, chaintable.cli, "record_as_dict")
    code, _, err = invoke_cli(argv)
    assert code == 0, err
    # The JSON view is written from the stored row texts, so no dict is built
    # for it; rows are built only for the text lines, which --json replaces.
    assert calls["record_as_dict"] == 0
    assert calls["_row_record"] == (0 if "--json" in flags else view_rows)
