"""CLI workflows and exit-code contract (0 ok, 1 integrity, 2 usage, 3 I/O)."""

import json

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
