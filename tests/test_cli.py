"""CLI workflows and exit-code contract (0 ok, 1 integrity, 2 usage, 3 I/O)."""

import errno
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from chaintable import load_ledger, read_data_file
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
    assert payload["hash"] == load_ledger(ledger).records[0].hash.hex


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


def test_verify_detects_every_single_byte_flip(paths):
    """Flip bit 0 of each byte of the ledger, then of the data file, and verify.

    Every record-line byte of the ledger and every byte of the data file
    makes verify exit non-zero. The ledger header's table name is covered by
    no hash, so renaming it passes plain verify; verify --table refuses it
    (exit 2, ledger and data file name different tables). verify writes nothing.
    """
    ledger, table = _init_and_fill(paths)
    ledger_bytes, table_bytes = ledger.read_bytes(), table.read_bytes()
    header_end = ledger_bytes.index(b"\n") + 1
    name_start = ledger_bytes.index(b" Events ") + 1
    name_bytes = set(range(name_start, name_start + len("Events")))

    def flipped(data, i):
        return data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1 :]

    def verify(*extra):
        return invoke_cli(["verify", "--ledger", ledger, *extra])[0]

    passed_plain_verify = set()
    for i in range(len(ledger_bytes)):
        mutated = flipped(ledger_bytes, i)
        ledger.write_bytes(mutated)
        if verify() == 0:
            assert i < header_end, f"record-line byte {i} flip not detected"
            passed_plain_verify.add(i)
            assert verify("--table", table) == 2, i
        assert (ledger.read_bytes(), table.read_bytes()) == (mutated, table_bytes)
    assert passed_plain_verify == name_bytes

    ledger.write_bytes(ledger_bytes)
    for i in range(len(table_bytes)):
        mutated = flipped(table_bytes, i)
        table.write_bytes(mutated)
        assert verify("--table", table) != 0, f"data-file byte {i} flip not detected"
        assert (ledger.read_bytes(), table.read_bytes()) == (ledger_bytes, mutated)
