"""CLI workflows and exit-code contract (0 ok, 1 integrity, 2 usage, 3 I/O)."""

import contextlib
import errno
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaintable.store
from chaintable import (
    DataTable,
    InvalidLedgerError,
    Ledger,
    LedgerFile,
    StorageViolation,
    StoreMismatchError,
    UpdateBatch,
    UpdateRecord,
    append_batch,
    compute_hash,
    load_ledger,
    read_data_file,
    reconstruct,
    replay_rows,
    verify_against_table,
    verify_chain,
)
from chaintable.cli import main as cli_main
from chaintable.encoding import record_as_dict
from chaintable.storage import ledger_header_line, render_record
from chaintable.table import read_table_rows
from conftest import WORKED_HISTORY, invoke_cli

B1 = '[{"opid":1,"timestamp":"t1","description":"opt1"}]'
B2 = (
    '[{"opid":2,"timestamp":"t2","description":"opt2"},'
    '{"opid":3,"timestamp":"t3","description":"opt3"}]'
)
B3 = '[{"opid":1,"timestamp":"t4","description":"opt4"}]'


@pytest.fixture
def paths(tmp_path):
    return tmp_path / "l.ctl", tmp_path / "t.ctd"


def _init_and_fill(paths):
    ledger, table = paths
    assert invoke_cli(["init", "Events", "--ledger", ledger, "--table", table])[0] == 0
    for batch in (B1, B2, B3):
        code, out, err = invoke_cli(["append", "--ledger", ledger, "--table", table], batch)
        assert code == 0, err
    return ledger, table


def test_full_workflow(paths, tmp_path):
    ledger, table = _init_and_fill(paths)

    code, out, _ = invoke_cli(["status", "--ledger", ledger])
    assert code == 0 and "records: 3" in out

    code, out, _ = invoke_cli(["verify", "--ledger", ledger, "--table", table])
    assert code == 0
    assert "chain: valid (3 records)" in out and "table: consistent (4 rows)" in out

    out_path = tmp_path / "rebuilt.ctd"
    code, _, _ = invoke_cli(["reconstruct", "--ledger", ledger, "--out", out_path])
    assert code == 0
    name, rows = read_data_file(out_path)
    assert name == "Events" and tuple(rows) == WORKED_HISTORY

    code, out, _ = invoke_cli(["materialize", "--ledger", ledger])
    assert code == 0
    assert "opid 1: timestamp=t4 description=opt4" in out


def test_append_reports_lid_and_hash(paths):
    ledger, table = paths
    invoke_cli(["init", "Events", "--ledger", ledger, "--table", table])
    code, out, _ = invoke_cli(["append", "--ledger", ledger, "--table", table, "--json"], B1)
    assert code == 0
    payload = json.loads(out)
    assert payload["lid"] == 1 and payload["prev_hash"] is None
    assert payload["hash"] == load_ledger(ledger).records[0].hash


def test_fresh_store_status_and_reconstruct(paths, tmp_path):
    ledger, table = paths
    invoke_cli(["init", "Events", "--ledger", ledger, "--table", table])
    code, out, _ = invoke_cli(["status", "--ledger", ledger])
    assert code == 0 and "records: 0" in out and "tip hash: -" in out
    out_path = tmp_path / "rebuilt.ctd"
    assert invoke_cli(["reconstruct", "--ledger", ledger, "--out", out_path])[0] == 0
    assert out_path.read_bytes() == b"CHAINTABLE-DATA v1 Events\n"


def test_init_refuses_existing(paths):
    ledger, table = paths
    assert invoke_cli(["init", "Events", "--ledger", ledger, "--table", table])[0] == 0
    assert invoke_cli(["init", "Events", "--ledger", ledger, "--table", table])[0] == 2


def test_append_rejects_multi_record_batch(paths):
    ledger, table = _init_and_fill(paths)
    before = ledger.read_bytes()
    nested = "[" + B1 + "," + B3 + "]"
    code, _, err = invoke_cli(["append", "--ledger", ledger, "--table", table], nested)
    assert code == 2
    assert "MULTI_RECORD_WRITE" in err
    assert ledger.read_bytes() == before


def test_append_rejects_bad_json_and_duplicate_key(paths):
    ledger, table = _init_and_fill(paths)
    assert invoke_cli(["append", "--ledger", ledger, "--table", table], "not json")[0] == 2
    assert invoke_cli(["append", "--ledger", ledger, "--table", table], B1)[0] == 2


def test_append_refuses_a_member_name_twice_and_writes_nothing(paths):
    # json.loads alone keeps the last copy, so "b" would be sealed.
    ledger, table = _init_and_fill(paths)
    before = ledger.read_bytes(), table.read_bytes()
    batch = '[{"opid":1,"timestamp":"t","description":"a","description":"b"}]'
    code, out, err = invoke_cli(["append", "--ledger", ledger, "--table", table], batch)
    assert (code, out) == (2, "")
    assert err == "error: duplicate member name in update JSON: 'description'\n"
    assert (ledger.read_bytes(), table.read_bytes()) == before


def _batch_of_100k_rows_whose_last_repeats_a_key():
    rows = [f'{{"opid":{i},"timestamp":"t{i}","description":null}}' for i in range(1, 100_000)]
    return "[" + ",".join([*rows, '{"opid":7,"timestamp":"t7","description":"again"}']) + "]"


_TWICE = 'duplicate key within batch: {"opid":7,"timestamp":"t7"}'


def test_append_refuses_a_key_twice_in_a_large_batch_in_one_pass(paths):
    ledger, table = _init_and_fill(paths)
    before = ledger.read_bytes(), table.read_bytes()
    batch = _batch_of_100k_rows_whose_last_repeats_a_key()
    start = time.perf_counter()
    code, _, err = invoke_cli(["append", "--ledger", ledger, "--table", table], batch)
    assert time.perf_counter() - start < 2
    assert (code, err) == (2, f"error: {_TWICE}\n")
    assert (ledger.read_bytes(), table.read_bytes()) == before


@pytest.mark.parametrize(("command", "code"), [("verify", 1), ("status", 3)])
def test_a_stored_key_twice_in_a_large_batch_is_refused_in_one_pass(paths, command, code):
    ledger, _ = paths
    update = _batch_of_100k_rows_whose_last_repeats_a_key()
    record = f"1 {compute_hash(1, update.encode(), None)} - {update}"
    ledger.write_text(f"CHAINTABLE-LEDGER v1 Events double-sha256-v1\n{record}\n")
    start = time.perf_counter()
    got, _, err = invoke_cli([command, "--ledger", ledger])
    assert time.perf_counter() - start < 2
    assert (got, err) == (code, f"error: CORRUPT_RECORD (line 2): {_TWICE}\n")


def test_verify_reports_tampered_chain(paths):
    ledger, table = _init_and_fill(paths)
    code, out, _ = invoke_cli(["tamper", "--ledger", ledger, "--scenario", "1", "--lid", "2", "--set", "opt5"])
    assert code == 0 and "first invalid lid: 2" in out

    code, out, _ = invoke_cli(["verify", "--ledger", ledger])
    assert code == 1
    assert "first invalid lid: 2" in out

    code, out, _ = invoke_cli(["verify", "--ledger", ledger, "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["chain"]["valid"] is False
    assert payload["chain"]["first_invalid_lid"] == 2


def test_verify_catches_scenario_two_only_with_table(paths):
    ledger, table = _init_and_fill(paths)
    code, _, _ = invoke_cli(["tamper", "--ledger", ledger, "--scenario", "2", "--set", "opt6"])
    assert code == 0
    assert invoke_cli(["verify", "--ledger", ledger])[0] == 0  # chain alone is fooled
    code, out, _ = invoke_cli(["verify", "--ledger", ledger, "--table", table])
    assert code == 1
    assert "DIVERGENT" in out


def test_tamper_lid_zero_is_usage_error(paths):
    ledger, table = _init_and_fill(paths)
    code, _, _ = invoke_cli(["tamper", "--ledger", ledger, "--scenario", "1", "--lid", "0", "--set", "x"])
    assert code == 2


def test_tamper_scenario_one_requires_lid(paths):
    ledger, table = _init_and_fill(paths)
    code, _, err = invoke_cli(["tamper", "--ledger", ledger, "--scenario", "1", "--set", "x"])
    assert code == 2 and "requires --lid" in err


def test_reconstruct_refuses_tampered_ledger(paths, tmp_path):
    ledger, table = _init_and_fill(paths)
    invoke_cli(["tamper", "--ledger", ledger, "--scenario", "1", "--lid", "2", "--set", "opt5"])
    out_path = tmp_path / "rebuilt.ctd"
    code, _, err = invoke_cli(["reconstruct", "--ledger", ledger, "--out", out_path])
    assert code == 1
    assert not out_path.exists()


def test_verify_corrupt_file_is_integrity_failure(paths):
    ledger, table = _init_and_fill(paths)
    with open(ledger, "ab") as fh:
        fh.write(b"torn")
    assert invoke_cli(["verify", "--ledger", ledger])[0] == 1


def test_verify_json_names_the_refused_line(paths):
    ledger, _ = _init_and_fill(paths)
    lines = ledger.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b'{"opid":', b'{"opid": ', 1)  # line 3 is not canonical
    ledger.write_bytes(b"\n".join(lines))
    code, out, err = invoke_cli(["verify", "--ledger", ledger, "--json"])
    assert code == 1
    assert "CORRUPT_RECORD (line 3)" in err
    chain = {"valid": False, "failure_kind": "CORRUPT_RECORD", "line": 3}
    assert json.loads(out) == {"chain": chain, "table": None}


def test_verify_corrupt_data_file_is_storage_failure_with_line(paths):
    ledger, table = _init_and_fill(paths)
    whole = table.read_bytes()
    table.write_bytes(whole.replace(b"opt2", b"opt\xff"))  # invalid UTF-8 in row 2
    code, _, err = invoke_cli(["verify", "--ledger", ledger, "--table", table])
    assert code == 3
    assert "CORRUPT_RECORD (line 3)" in err
    table.write_bytes(whole[:-5])  # torn final line
    code, _, err = invoke_cli(["verify", "--ledger", ledger, "--table", table])
    assert code == 3
    assert "CORRUPT_RECORD (line 5)" in err


@pytest.mark.parametrize("longer", [False, True], ids=["last-row-dropped", "last-row-twice"])
def test_verify_table_reports_a_data_file_shorter_or_longer_than_the_ledger_renders(paths, longer):
    ledger, table = _init_and_fill(paths)
    whole = table.read_bytes()
    last = whole[whole.rindex(b"\n", 0, -1) + 1 :]
    table.write_bytes(whole + last if longer else whole[: -len(last)])
    code, out, _ = invoke_cli(["verify", "--ledger", ledger, "--table", table])
    row = last.decode().strip()
    expected, found = ("absent", row) if longer else (row, "absent")
    divergence = f"  row {5 if longer else 4}: expected {expected}, found {found}"
    assert (code, out.splitlines()[1:]) == (1, ["table: DIVERGENT", divergence])


def test_verify_name_mismatch_is_usage_error(paths, tmp_path):
    ledger, table = _init_and_fill(paths)
    other_l, other_t = tmp_path / "o.ctl", tmp_path / "o.ctd"
    invoke_cli(["init", "Other", "--ledger", other_l, "--table", other_t])
    assert invoke_cli(["verify", "--ledger", ledger, "--table", other_t])[0] == 2


def test_missing_files_are_storage_failures(paths):
    ledger, table = paths
    assert invoke_cli(["status", "--ledger", ledger])[0] == 3
    assert invoke_cli(["verify", "--ledger", ledger])[0] == 3
    assert invoke_cli(["append", "--ledger", ledger, "--table", table], B1)[0] == 3


def _assert_one_error_line(err):
    assert err.count("error: ") == 1 and err.endswith("\n") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_append_while_another_writer_holds_the_lock_is_a_storage_failure(paths):
    ledger, table = _init_and_fill(paths)
    before = ledger.read_bytes(), table.read_bytes()
    with LedgerFile.open(ledger):
        code, _, err = invoke_cli(["append", "--ledger", ledger, "--table", table], B1)
    assert code == 3 and err == f"error: another writer holds the lock on {ledger}\n"
    _assert_one_error_line(err)
    assert (ledger.read_bytes(), table.read_bytes()) == before


def test_append_to_a_data_file_that_is_no_prefix_is_an_integrity_failure(paths):
    ledger, table = _init_and_fill(paths)
    table.write_bytes(table.read_bytes().replace(b"opt2", b"opt5"))
    before = ledger.read_bytes(), table.read_bytes()
    batch = '[{"opid":4,"timestamp":"t9","description":"x"}]'
    code, _, err = invoke_cli(["append", "--ledger", ledger, "--table", table], batch)
    assert code == 1 and "not a prefix of the ledger history" in err
    _assert_one_error_line(err)
    assert (ledger.read_bytes(), table.read_bytes()) == before


def test_append_whose_data_file_write_fails_after_the_ledger_committed(paths, monkeypatch):
    ledger, table = _init_and_fill(paths)

    def failing_write(path, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(chaintable.store, "append_data_rows", failing_write)
    batch = '[{"opid":4,"timestamp":"t9","description":"x"}]'
    code, _, err = invoke_cli(["append", "--ledger", ledger, "--table", table], batch)
    assert code == 3 and "ledger record 4 committed but the data file write failed" in err
    _assert_one_error_line(err)


def test_usage_errors_from_argparse(paths):
    ledger, _ = paths
    assert invoke_cli(["no-such-command"])[0] == 2
    assert invoke_cli(["verify"])[0] == 2  # --ledger required
    assert invoke_cli(["tamper", "--ledger", ledger, "--scenario", "7", "--set", "x"])[0] == 2


def test_verify_reports_broken_chain_before_opening_missing_table(paths, tmp_path):
    ledger, _ = _init_and_fill(paths)
    invoke_cli(["tamper", "--ledger", ledger, "--scenario", "1", "--lid", "2", "--set", "opt5"])
    missing = tmp_path / "missing.ctd"
    code, out, err = invoke_cli(["verify", "--ledger", ledger, "--table", missing])
    assert (code, out, err) == (1, "chain: INVALID\nfirst invalid lid: 2\nfailure: HASH_MISMATCH\n", "")


@pytest.mark.parametrize("command", ["reconstruct", "materialize"])
def test_out_naming_the_ledger_is_refused_before_writing(paths, command):
    ledger, table = _init_and_fill(paths)
    before = ledger.read_bytes()
    code, out, err = invoke_cli([command, "--ledger", ledger, "--out", ledger])
    assert code == 2 and out == "" and "is the ledger itself" in err
    assert ledger.read_bytes() == before
    assert invoke_cli(["verify", "--ledger", ledger, "--table", table])[0] == 0


def test_init_refuses_c1_control_character_in_name(paths):
    ledger, table = paths
    code, _, err = invoke_cli(["init", "A\u0085B", "--ledger", ledger, "--table", table])
    assert code == 2 and "table name" in err
    assert not ledger.exists() and not table.exists()


def _rewrite_header_name(path, name):
    header, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header.replace(b"Events", name.encode("utf-8")) + b"\n" + rest)


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (["verify"], 1),
        (["verify", "--table", "{table}"], 1),
        (["status"], 3),
        (["append", "--table", "{table}"], 3),
        (["reconstruct", "--out", "{out}"], 3),
    ],
    ids=["verify", "verify-table", "status", "append", "reconstruct"],
)
def test_header_name_that_writing_refuses_is_refused_on_read(paths, tmp_path, argv, code):
    ledger, table = _init_and_fill(paths)
    for path in (ledger, table):
        _rewrite_header_name(path, "A\u0085B")
    before = ledger.read_bytes(), table.read_bytes()
    fill = {"{table}": table, "{out}": tmp_path / "rebuilt.ctd"}
    argv = [argv[0], "--ledger", ledger, *(fill.get(a, a) for a in argv[1:])]
    got, out, err = invoke_cli(argv, B1)
    assert got == code and "HEADER_MISMATCH" in err
    assert (ledger.read_bytes(), table.read_bytes()) == before
    assert not (tmp_path / "rebuilt.ctd").exists()


def test_data_header_name_that_writing_refuses_is_refused_on_read(paths):
    ledger, table = _init_and_fill(paths)
    _rewrite_header_name(table, "A\u0085B")
    code, _, err = invoke_cli(["verify", "--ledger", ledger, "--table", table])
    assert code == 3 and "HEADER_MISMATCH" in err


_LONG_INT = "9" * 5000  # past the interpreter's default integer-string digit limit


@pytest.mark.parametrize(("command", "code"), [("verify", 1), ("status", 3)])
def test_over_long_lid_is_a_corrupt_record(paths, command, code):
    ledger, _ = _init_and_fill(paths)
    lines = ledger.read_bytes().split(b"\n")
    lines[3] = _LONG_INT.encode("ascii") + lines[3][1:]  # lid 3 on line 4
    ledger.write_bytes(b"\n".join(lines))
    got, _, err = invoke_cli([command, "--ledger", ledger])
    assert got == code and "CORRUPT_RECORD (line 4)" in err


@pytest.mark.parametrize("command", ["verify", "append"])
def test_over_long_opid_in_data_file_is_a_corrupt_record(paths, command):
    ledger, table = _init_and_fill(paths)
    table.write_bytes(table.read_bytes().replace(b'"opid":2', b'"opid":' + _LONG_INT.encode()))
    got, _, err = invoke_cli([command, "--ledger", ledger, "--table", table], B1)
    assert got == 3 and "CORRUPT_RECORD (line 3)" in err


@pytest.mark.parametrize("command", ["verify", "append"])
def test_non_canonical_data_row_is_a_corrupt_record(paths, command):
    ledger, table = _init_and_fill(paths)
    table.write_bytes(table.read_bytes().replace(b'{"opid":2,', b'{"opid": 2,'))
    before = ledger.read_bytes(), table.read_bytes()
    fresh = '[{"opid":4,"timestamp":"t9","description":"x"}]'
    got, _, err = invoke_cli([command, "--ledger", ledger, "--table", table], fresh)
    assert got == 3 and "CORRUPT_RECORD (line 3)" in err
    assert (ledger.read_bytes(), table.read_bytes()) == before


def test_over_long_opid_in_operator_batch_is_invalid_json(paths):
    ledger, table = _init_and_fill(paths)
    before = ledger.read_bytes()
    batch = '[{"opid":%s,"timestamp":"t9","description":"x"}]' % _LONG_INT
    code, _, err = invoke_cli(["append", "--ledger", ledger, "--table", table], batch)
    assert code == 2 and "invalid update JSON" in err
    assert ledger.read_bytes() == before


@pytest.mark.parametrize("extra", [["--lid", "1"], ["--rehash-through", "1"]])
def test_tamper_scenario_two_refuses_lid_and_rehash_through(paths, extra):
    ledger, _ = _init_and_fill(paths)
    before = ledger.read_bytes()
    argv = ["tamper", "--ledger", ledger, "--scenario", "2", "--set", "x", *extra]
    code, out, err = invoke_cli(argv)
    assert code == 2 and out == "" and "--scenario 2" in err
    assert ledger.read_bytes() == before


def test_json_outputs_are_parseable(paths):
    ledger, table = _init_and_fill(paths)
    for argv in (
        ["status", "--ledger", ledger, "--json"],
        ["verify", "--ledger", ledger, "--table", table, "--json"],
        ["materialize", "--ledger", ledger, "--json"],
    ):
        code, out, _ = invoke_cli(argv)
        assert code == 0
        json.loads(out)


def test_materialize_writes_view_file(paths, tmp_path):
    ledger, table = _init_and_fill(paths)
    out_path = tmp_path / "view.json"
    code, _, _ = invoke_cli(["materialize", "--ledger", ledger, "--out", out_path])
    assert code == 0
    entries = json.loads(out_path.read_text())
    assert [(e["opid"], e["timestamp"], e["description"]) for e in entries] == [
        (1, "t4", "opt4"), (2, "t2", "opt2"), (3, "t3", "opt3"),
    ]


@pytest.mark.parametrize(
    "flags", [[], ["--json"], ["--out"], ["--json", "--out"]], ids=["text", "json", "out", "json-out"]
)
@pytest.mark.parametrize("corrupt_after", [False, True], ids=["broken", "corrupt-after-broken"])
def test_materialize_refuses_a_broken_chain_without_output(paths, tmp_path, flags, corrupt_after):
    ledger, _ = _init_and_fill(paths)
    invoke_cli(["tamper", "--ledger", ledger, "--scenario", "1", "--lid", "2", "--set", "opt5"])
    if corrupt_after:  # lid 3, on line 4, after the broken lid 2
        lines = ledger.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b'{"opid":', b'{"opid": ', 1)
        ledger.write_bytes(b"\n".join(lines))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["materialize", "--ledger", ledger, *flags]
    if "--out" in flags:
        argv.append(out_dir / "view.json")
    code, out, err = invoke_cli(argv)
    if corrupt_after:
        assert code == 3 and "CORRUPT_RECORD (line 4)" in err, err
    else:
        assert code == 1 and "lid 2 (HASH_MISMATCH)" in err, err
    assert out == "" and list(out_dir.iterdir()) == []


def _dumps(value):
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False)


# Texts that a row split, a splice or an escape could get wrong.
_TRICKY = [
    '},{"opid":', '"', "\\", '\\"', "\\\\", ":null", ',"deleted":true}',
    ':null,"deleted":false}', ',"deleted":false},{"opid":',
    "\u2028", "\u2029", "\U0001f600", "\u00e9",
]
_timestamps = st.lists(
    st.sampled_from(_TRICKY) | st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=4
).map("".join)
_descriptions = st.none() | st.lists(
    # C0 characters are escaped by json, DEL and C1 are written raw.
    st.sampled_from([*_TRICKY, "\x00", "\x08", "\x0b", "\n", "\x1f", "\x7f", "\x85", "\x9f"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=4,
).map("".join)
# Text order differs from numeric order (9, 10, 100), and one opid of 320 digits.
_opids = st.sampled_from([1, 9, 10, 100, int("9" * 320)]) | st.integers(1, 120)
_batches = st.lists(
    st.tuples(_opids, _timestamps, _descriptions), min_size=1, max_size=4, unique_by=lambda r: r[:2]
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_batches, max_size=6))
@example([[(7, "a", "first"), (7, "b", "second")]])  # one opid twice in a batch: the last wins
@example([[(100, "t", None), (9, "t", '},{"opid":1,"x'), (10, "t\u2028", "\x00\x85")]])
# Tombstones beside a description that holds the text the splice replaces, and last.
@example([[(1, "t", None), (2, "t", 'x:null,"deleted":false}'), (3, "t", None)]])
def test_materialize_json_is_byte_identical_to_json_dumps_of_the_replay(batches):
    ledger = Ledger()
    for rows in batches:
        append_batch(ledger, UpdateBatch(UpdateRecord(*row) for row in rows))
    # The oracle: one dict per row of replay_rows over the reconstructed history.
    entries = [
        {"opid": r.opid, "timestamp": r.timestamp, "description": r.description, "deleted": r.is_deletion}
        for r in replay_rows(reconstruct(ledger).rows)
    ]
    lines = [
        f"opid {e['opid']}: deleted (tombstone at timestamp {e['timestamp']})"
        if e["deleted"]
        else f"opid {e['opid']}: timestamp={e['timestamp']} description={e['description']}"
        for e in entries
    ]
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path, out_path = Path(tmp) / "l.ctl", Path(tmp) / "view.json"
        with LedgerFile.create(ledger_path, "Events") as writer:
            for record in ledger.records:
                writer.append(record)
        expected = {
            (): "\n".join([*lines, ""]),
            ("--json",): _dumps({"view": entries, "out": None}) + "\n",
            ("--json", "--out"): _dumps({"view": entries, "out": str(out_path)}) + "\n",
            ("--out",): "\n".join([*lines, f"wrote {len(entries)} entries to {out_path}", ""]),
        }
        for flags, stdout in expected.items():
            out_path.unlink(missing_ok=True)
            argv = ["materialize", "--ledger", ledger_path, *flags]
            code, out, err = invoke_cli(argv + [out_path] if "--out" in flags else argv)
            assert (code, err) == (0, "")
            assert out == stdout
            if "--out" in flags:
                assert out_path.read_bytes() == (_dumps(entries) + "\n").encode("utf-8")


def _store_with_wide_text(paths, tmp_path):
    """A store whose view holds text no single-byte codec encodes, and a tombstone;
    returns the ledger, the --out path, and the --json output materialize must write."""
    ledger, table = _init_and_fill(paths)
    batch = (
        '[{"opid":2,"timestamp":"t5","description":"\u03c0 \U0001f600"},'
        '{"opid":3,"timestamp":"t6","description":null}]'
    )
    assert invoke_cli(["append", "--ledger", ledger, "--table", table], batch)[0] == 0
    out_path = tmp_path / "view.json"
    assert invoke_cli(["materialize", "--ledger", ledger, "--out", out_path])[0] == 0
    view = out_path.read_bytes()
    assert "\u03c0".encode("utf-8") in view and view.endswith(b"\n")
    expected = b'{"view":' + view[:-1] + b',"out":' + _dumps(str(out_path)).encode("utf-8") + b"}\n"
    return ledger, out_path, expected


def _materialize_into(stdout, ledger, out_path):
    """Run materialize --json --out in process with stdout as sys.stdout."""
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli_main(["materialize", "--ledger", str(ledger), "--json", "--out", str(out_path)])
    assert (code, err.getvalue()) == (0, "")
    stdout.flush()


def test_materialize_json_is_the_views_utf8_bytes_whatever_the_stdout_encoding(paths, tmp_path):
    ledger, out_path, expected = _store_with_wide_text(paths, tmp_path)
    stdout = io.TextIOWrapper(io.BytesIO(), "ascii")
    _materialize_into(stdout, ledger, out_path)
    assert stdout.buffer.getvalue() == expected

    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONIOENCODING"] = "latin-1"
    argv = [sys.executable, "-m", "chaintable", "materialize", "--ledger", ledger, "--json"]
    result = subprocess.run(argv + ["--out", out_path], env=env, capture_output=True, timeout=60)
    assert (result.returncode, result.stderr, result.stdout) == (0, b"", expected)


class _ShortWrites(io.RawIOBase):
    """A raw stream that takes at most 7 bytes per write, as a raw FileIO may."""

    def __init__(self):
        self.received = bytearray()

    def writable(self):
        return True

    def write(self, data):
        taken = bytes(data[:7])
        self.received += taken
        return len(taken)


def test_materialize_json_retries_short_writes(paths, tmp_path):
    ledger, out_path, expected = _store_with_wide_text(paths, tmp_path)
    raw = _ShortWrites()
    _materialize_into(io.TextIOWrapper(raw, "utf-8", write_through=True), ledger, out_path)
    assert bytes(raw.received) == expected


def test_separate_mounts_configuration(tmp_path):
    # Ledger and table paths in unrelated directories work fine.
    a, b = tmp_path / "trusted", tmp_path / "exposed"
    a.mkdir(), b.mkdir()
    ledger, table = a / "l.ctl", b / "t.ctd"
    assert invoke_cli(["init", "Events", "--ledger", ledger, "--table", table])[0] == 0
    assert invoke_cli(["append", "--ledger", ledger, "--table", table], B1)[0] == 0
    assert invoke_cli(["verify", "--ledger", ledger, "--table", table])[0] == 0


def test_planted_temp_symlink_cannot_redirect_reconstruct_onto_the_ledger(paths, tmp_path):
    ledger, table = _init_and_fill(paths)
    before = ledger.read_bytes(), table.read_bytes()
    out_path = tmp_path / "rebuilt.ctd"
    (tmp_path / "rebuilt.ctd.tmp").symlink_to(ledger)
    code, _, err = invoke_cli(["reconstruct", "--ledger", ledger, "--out", out_path])
    assert code == 0, err
    assert (ledger.read_bytes(), table.read_bytes()) == before
    assert out_path.read_bytes() == table.read_bytes()
    assert invoke_cli(["verify", "--ledger", ledger, "--table", table])[0] == 0


_DEEP = "[" * 100_000 + "]" * 100_000  # nesting far past the interpreter's recursion limit


def _store_deep_nesting(ledger, table, target):
    """Put _DEEP where a batch or row is stored: lid 3's update or data row 2."""
    if target == "ledger":
        lines = ledger.read_bytes().split(b"\n")
        lines[3] = b" ".join(lines[3].split(b" ", 3)[:3] + [_DEEP.encode("ascii")])
        ledger.write_bytes(b"\n".join(lines))
    elif target == "table":
        lines = table.read_bytes().split(b"\n")
        lines[2] = _DEEP.encode("ascii")
        table.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize(
    ("argv", "target", "code", "message"),
    [
        (["append", "--table", "{table}"], None, 2, "invalid update JSON"),
        (["verify"], "ledger", 1, "CORRUPT_RECORD (line 4)"),
        (["status"], "ledger", 3, "CORRUPT_RECORD (line 4)"),
        (["verify", "--table", "{table}"], "table", 3, "CORRUPT_RECORD (line 3)"),
    ],
    ids=["append", "verify", "status", "verify-table"],
)
def test_deep_nesting_is_refused_without_a_traceback(paths, argv, target, code, message):
    ledger, table = _init_and_fill(paths)
    _store_deep_nesting(ledger, table, target)
    before = ledger.read_bytes(), table.read_bytes()
    argv = [argv[0], "--ledger", ledger, *(table if a == "{table}" else a for a in argv[1:])]
    got, _, err = invoke_cli(argv, _DEEP)
    assert got == code and message in err and "Traceback" not in err
    assert (ledger.read_bytes(), table.read_bytes()) == before


def test_non_utf8_input_file_is_invalid_json(paths, tmp_path):
    ledger, table = _init_and_fill(paths)
    before = ledger.read_bytes(), table.read_bytes()
    batch = tmp_path / "batch.json"
    batch.write_bytes(b"\xff[]")
    code, _, err = invoke_cli(["append", "--ledger", ledger, "--table", table, "--input", batch])
    assert code == 2 and "invalid update JSON" in err
    assert (ledger.read_bytes(), table.read_bytes()) == before


def test_append_reads_stdin_as_bytes_whatever_the_io_encoding(tmp_path):
    """Piped batch bytes and the same bytes given with --input are one input:
    decoded as UTF-8, not in the process's I/O encoding, so they seal the same
    record and are refused with the same message."""
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONIOENCODING"] = "latin-1"

    def append(name, data, from_file):
        ledger, table, batch = (tmp_path / name / f for f in ("l.ctl", "t.ctd", "batch.json"))
        batch.parent.mkdir()
        assert invoke_cli(["init", "Events", "--ledger", ledger, "--table", table])[0] == 0
        batch.write_bytes(data)
        argv = [sys.executable, "-m", "chaintable", "append", "--ledger", ledger, "--table", table]
        result = subprocess.run(
            argv + (["--input", batch] if from_file else []),
            input=b"" if from_file else data,
            env=env,
            capture_output=True,
            timeout=60,
        )
        return result.returncode, result.stderr, ledger.read_bytes(), table.read_bytes()

    accented = '[{"opid":1,"timestamp":"t1","description":"é"}]'.encode("utf-8")
    piped, given = append("piped", accented, False), append("given", accented, True)
    assert piped == given and piped[0] == 0
    assert piped[2].endswith(b" " + accented + b"\n") and piped[3].endswith(accented[1:-1] + b"\n")
    piped, given = append("piped-ff", b"\xff[]", False), append("given-ff", b"\xff[]", True)
    assert piped == given and piped[0] == 2
    assert b"invalid update JSON: 'utf-8' codec can't decode byte 0xff in position 0" in piped[1]


def _run_with_file_size_limit(argv, limit):
    """Run the CLI in a child process whose writes to regular files stop at
    limit bytes (RLIMIT_FSIZE, set for the child only); returns (exit code, stderr)."""
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1")
    hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
    result = subprocess.run(
        [sys.executable, "-m", "chaintable", *map(str, argv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard)),
    )
    return result.returncode, result.stderr


@pytest.mark.parametrize("command", ["reconstruct", "materialize"])
def test_failed_out_write_leaves_the_previous_file_as_it_was(paths, tmp_path, command):
    ledger, _ = _init_and_fill(paths)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out_path = out_dir / "previous"
    out_path.write_bytes(b"previous contents\n")
    code, err = _run_with_file_size_limit([command, "--ledger", ledger, "--out", out_path], 60)
    assert code == 3 and f"[Errno {errno.EFBIG}]" in err, err
    assert out_path.read_bytes() == b"previous contents\n"
    assert sorted(p.name for p in out_dir.iterdir()) == ["previous"]


def _flipped(data, i):
    return data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1 :]


def _assert_read_verdicts_match_the_library(ledger):
    """verify --json and status on the file at ledger say what load_ledger and
    verify_chain say of it: exit code, failure kind, lid or line, and stderr."""
    try:
        loaded = load_ledger(ledger)
    except StorageViolation as exc:
        expected = (1, exc.kind.name, exc.line, f"error: {exc}\n")
        expected_status = (3, "", f"error: {exc}\n")
    else:
        tip = loaded.tip_hash or "-"
        status = f"table name: {loaded.name}\nrecords: {len(loaded)}\ntip hash: {tip}\n"
        expected_status = (0, status, "")
        try:
            verify_chain(loaded)
            expected = (0, None, None, "")
        except InvalidLedgerError as exc:
            expected = (1, exc.kind.name, exc.lid, "")
    code, out, err = invoke_cli(["verify", "--ledger", ledger, "--json"])
    chain = json.loads(out)["chain"]
    where = chain["line"] if "line" in chain else chain["first_invalid_lid"]
    assert (code, chain["failure_kind"], where, err) == expected
    assert invoke_cli(["status", "--ledger", ledger]) == expected_status
    return expected


def _table_verdict_of_the_library(ledger, table):
    """(exit code, table payload, stderr) of verify --table for a chain that
    verifies, by load_ledger, read_table_rows and verify_against_table."""
    loaded = load_ledger(ledger)
    try:
        rows = read_table_rows(table, loaded.name)
    except (StorageViolation, StoreMismatchError) as exc:
        return (3 if isinstance(exc, StorageViolation) else 2), None, f"error: {exc}\n"
    divergences = verify_against_table(loaded, DataTable(loaded.name, tuple(rows)))
    payload = {
        "consistent": not divergences,
        "rows": len(rows),
        "divergences": [
            {
                "position": d.position,
                "opid": d.opid,
                "expected": None if d.expected is None else record_as_dict(d.expected),
                "found": None if d.found is None else record_as_dict(d.found),
            }
            for d in divergences
        ],
    }
    return int(bool(divergences)), payload, ""


def test_verify_detects_every_single_byte_flip(paths):
    """Flip bit 0 of each byte of the ledger, then of the data file, and verify.

    Every record-line byte of the ledger and every byte of the data file
    makes verify exit non-zero. The ledger header's table name is covered by
    no hash, so renaming it passes plain verify; verify --table refuses it
    (exit 2, ledger and data file name different tables). verify writes
    nothing. Each flip of a ledger byte gives verify --json and status the
    verdict of load_ledger and verify_chain, and each flip of a data-file byte
    gives verify --table the verdict of verify_against_table.
    """
    ledger, table = _init_and_fill(paths)
    ledger_bytes, table_bytes = ledger.read_bytes(), table.read_bytes()
    header_end = ledger_bytes.index(b"\n") + 1
    name_start = ledger_bytes.index(b" Events ") + 1
    name_bytes = set(range(name_start, name_start + len("Events")))

    def verify(*extra):
        return invoke_cli(["verify", "--ledger", ledger, *extra])[0]

    passed_plain_verify = set()
    for i in range(len(ledger_bytes)):
        mutated = _flipped(ledger_bytes, i)
        ledger.write_bytes(mutated)
        if verify() == 0:
            assert i < header_end, f"record-line byte {i} flip not detected"
            passed_plain_verify.add(i)
            assert verify("--table", table) == 2, i
        _assert_read_verdicts_match_the_library(ledger)
        assert (ledger.read_bytes(), table.read_bytes()) == (mutated, table_bytes)
    assert passed_plain_verify == name_bytes

    ledger.write_bytes(ledger_bytes)
    for i in range(len(table_bytes)):
        mutated = _flipped(table_bytes, i)
        table.write_bytes(mutated)
        code, out, err = invoke_cli(["verify", "--ledger", ledger, "--table", table, "--json"])
        expected, table_payload, expected_err = _table_verdict_of_the_library(ledger, table)
        assert (code, err) == (expected, expected_err), i
        if table_payload is not None:
            assert json.loads(out)["table"] == table_payload, i
        assert verify("--table", table) != 0, f"data-file byte {i} flip not detected"
        assert (ledger.read_bytes(), table.read_bytes()) == (ledger_bytes, mutated)


def _break_link_then_a_later_line(lines, data):
    k = data.draw(st.integers(2, len(lines) - 2))
    m = data.draw(st.integers(k + 1, len(lines) - 1))
    lid, stored, prev, update = lines[k].split(" ", 3)
    lines[k] = " ".join([lid, stored, "0" * 64 if prev != "0" * 64 else "1" * 64, update])
    lines[m] = lines[m].replace('{"opid":', '{"opid": ', 1)
    return "\n".join(lines) + "\n", ("CORRUPT_RECORD", m + 1)


def _mismatch_a_hash_then_tear_the_tail(lines, data):
    k = data.draw(st.integers(1, len(lines) - 1))
    lid, stored, rest = lines[k].split(" ", 2)
    lines[k] = " ".join([lid, "0" * 64 if stored != "0" * 64 else "1" * 64, rest])
    torn = f"{len(lines)} {'ab' * 32} {lines[-1].split(' ', 2)[1]} [{{"
    return "\n".join(lines) + "\n" + torn, ("CORRUPT_RECORD", len(lines) + 1)


def _skip_a_lid(lines, data):
    k = data.draw(st.integers(1, len(lines) - 1))
    lid, rest = lines[k].split(" ", 1)
    lines[k] = f"{int(lid) + data.draw(st.integers(1, 3))} {rest}"
    return "\n".join(lines) + "\n", ("LID_GAP", k)


def _violate_genesis(lines, data):
    k = data.draw(st.integers(1, len(lines) - 1))
    lid, stored, prev, update = lines[k].split(" ", 3)
    lines[k] = " ".join([lid, stored, "ab" * 32 if k == 1 else "-", update])
    return "\n".join(lines) + "\n", ("GENESIS_VIOLATION", k)


def _repeat_a_batch_within_itself(lines, data):
    k = data.draw(st.integers(1, len(lines) - 1))
    head, update = lines[k].rsplit(" [", 1)
    lines[k] = f"{head} [{update[:-1]},{update}"
    return "\n".join(lines) + "\n", ("CORRUPT_RECORD", k + 1)


@pytest.mark.parametrize(
    "damage",
    [
        _break_link_then_a_later_line,
        _mismatch_a_hash_then_tear_the_tail,
        _skip_a_lid,
        _violate_genesis,
        _repeat_a_batch_within_itself,
    ],
)
@settings(max_examples=25, deadline=None)
@given(batches=st.lists(_batches, min_size=3, max_size=6), data=st.data())
def test_read_verdicts_match_the_library_on_damaged_ledgers(damage, batches, data):
    """A corrupt line is reported ahead of an earlier chain failure, a torn
    tail only after every complete line has passed; the chain checks report
    their lid. verify and status agree with load_ledger and verify_chain on each."""
    history = Ledger()
    for rows in batches:
        append_batch(history, UpdateBatch(UpdateRecord(*row) for row in rows))
    lines = [ledger_header_line("Events"), *map(render_record, history.records)]
    text, (kind, where) = damage(lines, data)
    with tempfile.TemporaryDirectory() as tmp:
        ledger = Path(tmp) / "l.ctl"
        ledger.write_bytes(text.encode("utf-8"))
        assert _assert_read_verdicts_match_the_library(ledger)[1:3] == (kind, where)
