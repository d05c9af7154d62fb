"""Guarded ledger persistence: format, append preconditions, durability."""

from random import Random

import pytest

from chaintable import (
    ChainRecord,
    Hash,
    Ledger,
    LedgerFile,
    LockError,
    StorageViolation,
    StorageViolationKind,
    UpdateBatch,
    UpdateRecord,
    append_batch,
    load_ledger,
    verify_chain,
)
from chaintable.chain import compute_hash
from chaintable.storage import parse_record_line, read_ledger_header, render_record
from conftest import WORKED_BATCHES, build_worked_ledger, random_batch


def _write_worked_file(path) -> Ledger:
    ledger = build_worked_ledger()
    with LedgerFile.create(path, "Events") as lf:
        for record in ledger.records:
            lf.append(record)
    return ledger


def test_create_writes_exact_header(tmp_path):
    path = tmp_path / "l.ctl"
    with LedgerFile.create(path, "Events") as lf:
        assert lf.record_count == 0 and lf.tip_hash is None
    assert path.read_bytes() == b"CHAINTABLE-LEDGER v1 Events double-sha256-v1\n"
    assert read_ledger_header(path) == "Events"


def test_create_refuses_existing_path(tmp_path):
    path = tmp_path / "l.ctl"
    LedgerFile.create(path, "Events").close()
    with pytest.raises(FileExistsError):
        LedgerFile.create(path, "Events")


def test_create_fails_on_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        LedgerFile.create(tmp_path, "Events")  # a directory, not a file


def test_open_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        LedgerFile.open(tmp_path / "absent.ctl")


def test_append_and_load_round_trip(tmp_path):
    path = tmp_path / "l.ctl"
    ledger = _write_worked_file(path)
    loaded = load_ledger(path)
    assert [render_record(r) for r in loaded.records] == [
        render_record(r) for r in ledger.records
    ]
    assert verify_chain(loaded).valid


def test_append_rejects_lid_gap_without_writing(tmp_path):
    path = tmp_path / "l.ctl"
    ledger = build_worked_ledger()
    with LedgerFile.create(path, "Events") as lf:
        lf.append(ledger.records[0])
        lf.append(ledger.records[1])
        before = path.read_bytes()
        skipped = ChainRecord(4, ledger.records[2].hash, ledger.records[1].hash, WORKED_BATCHES[2])
        with pytest.raises(StorageViolation) as excinfo:
            lf.append(skipped)
        assert excinfo.value.kind is StorageViolationKind.LID_GAP
        with pytest.raises(StorageViolation) as excinfo:
            lf.append(ledger.records[1])  # repeat = attempted rewrite
        assert excinfo.value.kind is StorageViolationKind.LID_GAP
        assert path.read_bytes() == before


def test_append_rejects_prev_hash_mismatch_without_writing(tmp_path):
    path = tmp_path / "l.ctl"
    ledger = build_worked_ledger()
    with LedgerFile.create(path, "Events") as lf:
        lf.append(ledger.records[0])
        lf.append(ledger.records[1])
        before = path.read_bytes()
        bad_prev = Hash(b"\x03" * 32)
        forged = ChainRecord(3, compute_hash(3, WORKED_BATCHES[2], bad_prev), bad_prev, WORKED_BATCHES[2])
        with pytest.raises(StorageViolation) as excinfo:
            lf.append(forged)
        assert excinfo.value.kind is StorageViolationKind.PREV_HASH_MISMATCH
        assert path.read_bytes() == before


def test_append_rejects_multi_record_payload(tmp_path):
    path = tmp_path / "l.ctl"
    ledger = build_worked_ledger()
    with LedgerFile.create(path, "Events") as lf:
        with pytest.raises(StorageViolation) as excinfo:
            lf.append(list(ledger.records))
        assert excinfo.value.kind is StorageViolationKind.MULTI_RECORD_WRITE
        assert path.read_bytes() == b"CHAINTABLE-LEDGER v1 Events double-sha256-v1\n"


def test_append_detects_out_of_band_change(tmp_path):
    path = tmp_path / "l.ctl"
    ledger = build_worked_ledger()
    with LedgerFile.create(path, "Events") as lf:
        lf.append(ledger.records[0])
        with open(path, "ab") as other:
            other.write(b"intruder\n")
        with pytest.raises(StorageViolation) as excinfo:
            lf.append(ledger.records[1])
        assert excinfo.value.kind is StorageViolationKind.NON_APPEND_WRITE


def test_second_writer_is_locked_out(tmp_path):
    path = tmp_path / "l.ctl"
    with LedgerFile.create(path, "Events"):
        with pytest.raises(LockError):
            LedgerFile.open(path)
    # Lock is released on close.
    LedgerFile.open(path).close()


def test_load_returns_chain_invalid_ledger(tmp_path):
    path = tmp_path / "l.ctl"
    _write_worked_file(path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace("opt2", "opt5")
    path.write_text("\n".join(lines) + "\n")
    loaded = load_ledger(path)  # loads fine; verification is a separate step
    report = verify_chain(loaded)
    assert not report.valid and report.first_invalid_lid == 2


def test_load_reports_partial_final_line(tmp_path):
    path = tmp_path / "l.ctl"
    _write_worked_file(path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-5])
    with pytest.raises(StorageViolation) as excinfo:
        load_ledger(path)
    assert excinfo.value.kind is StorageViolationKind.CORRUPT_RECORD
    assert excinfo.value.line == 4
    # The repair flag drops exactly the unacknowledged tail.
    repaired = load_ledger(path, repair=True)
    assert len(repaired) == 2 and verify_chain(repaired).valid


def test_open_with_repair_truncates_partial_tail(tmp_path):
    path = tmp_path / "l.ctl"
    ledger = _write_worked_file(path)
    whole = path.read_bytes()
    path.write_bytes(whole + b"5 deadbeef")
    with pytest.raises(StorageViolation):
        LedgerFile.open(path)
    with LedgerFile.open(path, repair=True) as lf:
        assert lf.record_count == 3
        # After repair the file is appendable again at the right lid.
        record = append_batch(ledger, UpdateBatch([UpdateRecord(7, "t7", "x")]))
        lf.append(record)
    assert len(load_ledger(path)) == 4


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "l.ctl"
    path.write_bytes(b"CHAINTABLE-LEDGER v9 Events double-sha256-v1\n")
    with pytest.raises(StorageViolation) as excinfo:
        load_ledger(path)
    assert excinfo.value.kind is StorageViolationKind.HEADER_MISMATCH


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "l.ctl"
    path.write_bytes(b"")
    with pytest.raises(StorageViolation) as excinfo:
        load_ledger(path)
    assert excinfo.value.kind is StorageViolationKind.CORRUPT_RECORD
    assert excinfo.value.line == 1


@pytest.mark.parametrize(
    "mangle",
    [
        lambda line: line.replace(" ", "  ", 1),  # double separator
        lambda line: line.upper(),  # hex case
        lambda line: line + " extra",
        lambda line: "0" + line,  # leading zero lid
        lambda line: line.split(" ", 1)[1],  # missing field
    ],
)
def test_parse_record_line_requires_canonical_form(mangle, tmp_path):
    path = tmp_path / "l.ctl"
    _write_worked_file(path)
    good = path.read_text().splitlines()[1]
    with pytest.raises(StorageViolation) as excinfo:
        parse_record_line(mangle(good), 2)
    assert excinfo.value.kind is StorageViolationKind.CORRUPT_RECORD


def test_file_prefix_is_invariant_across_appends(tmp_path):
    rng = Random(13)
    path = tmp_path / "l.ctl"
    ledger = Ledger()
    with LedgerFile.create(path, "Events") as lf:
        for _ in range(20):
            before = path.read_bytes()
            record = append_batch(ledger, random_batch(rng))
            lf.append(record)
            after = path.read_bytes()
            assert after.startswith(before)
            assert len(after) > len(before)
    assert verify_chain(load_ledger(path)).valid
