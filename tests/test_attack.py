"""Attack harness: raw-byte tampering and what catches it."""

from random import Random

import pytest

from chaintable import (
    DataTable,
    FailureKind,
    InvalidLedgerError,
    LidOutOfRangeError,
    UpdateRecord,
    load_ledger,
    measure_rewrite_cascade,
    reconstruct,
    tamper_ledger,
    verify_against_table,
    verify_chain,
)
from chaintable.storage import LedgerFile
from conftest import WORKED_HISTORY, build_worked_ledger, golden_digest, random_ledger


def _write_ledger(path, ledger):
    with LedgerFile.create(path, "Events") as lf:
        for record in ledger.records:
            lf.append(record)


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "l.ctl"
    _write_ledger(path, build_worked_ledger())
    return path


def test_in_place_mutation_detected_at_that_lid(worked_file):
    before = worked_file.read_text().splitlines()
    tamper_ledger(worked_file, 2, 1, "opt5")
    after = worked_file.read_text().splitlines()
    changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
    assert changed == [2] and len(before) == len(after)  # exactly one line differs
    report = verify_chain(load_ledger(worked_file))
    assert not report.valid
    assert report.first_invalid_lid == 2
    assert report.failure_kind is FailureKind.HASH_MISMATCH


def test_in_place_mutation_of_last_record(worked_file):
    tamper_ledger(worked_file, 3, 1, "opt6")
    report = verify_chain(load_ledger(worked_file))
    assert report.first_invalid_lid == 3


def test_in_place_mutation_rejects_out_of_range(worked_file):
    for lid in (0, 9, -1):
        with pytest.raises(LidOutOfRangeError):
            tamper_ledger(worked_file, lid, 1, "x")
    with pytest.raises(ValueError):
        tamper_ledger(worked_file, 2, 5, "x")  # batch has 2 records


def test_partial_rehash_breaks_at_next_lid(worked_file):
    tamper_ledger(worked_file, 2, 1, "opt5", rewrite_through=2)
    report = verify_chain(load_ledger(worked_file))
    assert not report.valid
    assert report.first_invalid_lid == 3
    assert report.failure_kind is FailureKind.LINK_BREAK


def test_full_rehash_passes_chain_but_fails_table_check(worked_file):
    tamper_ledger(worked_file, 2, 1, "opt5", rewrite_through=3)
    tampered = load_ledger(worked_file)
    assert verify_chain(tampered).valid
    honest = DataTable("Events", WORKED_HISTORY)
    divergences = verify_against_table(tampered, honest)
    assert divergences
    assert divergences[0].opid == 2


def test_last_record_rehash_matches_golden_forged_hash(worked_file, golden):
    tamper_ledger(worked_file, 3, 1, "opt6", rewrite_through=3)
    tampered = load_ledger(worked_file)
    assert verify_chain(tampered).valid
    assert tampered.records[2].hash.hex == golden_digest(
        golden, "worked-example-lid-3-tampered-opt6"
    )
    (div,) = verify_against_table(tampered, DataTable("Events", WORKED_HISTORY))
    assert div.position == 4 and div.found.description == "opt4"


def test_rehash_rejects_bad_ranges(worked_file):
    with pytest.raises(LidOutOfRangeError):
        tamper_ledger(worked_file, 0, 1, "x", rewrite_through=2)
    with pytest.raises(LidOutOfRangeError):
        tamper_ledger(worked_file, 2, 1, "x", rewrite_through=9)
    with pytest.raises(LidOutOfRangeError):
        tamper_ledger(worked_file, 3, 1, "x", rewrite_through=2)


def test_cascade_measure_on_worked_ledger():
    ledger = build_worked_ledger()
    assert measure_rewrite_cascade(ledger, 2) == 2
    assert measure_rewrite_cascade(ledger, 3) == 1
    assert measure_rewrite_cascade(ledger, 1) == 3
    with pytest.raises(LidOutOfRangeError):
        measure_rewrite_cascade(ledger, 4)


def test_cascade_measure_on_genesis_only_chain():
    rng = Random(3)
    ledger = random_ledger(rng, 1)
    assert measure_rewrite_cascade(ledger, 1) == 1


def test_in_place_detection_at_every_position(tmp_path):
    rng = Random(17)
    ledger = random_ledger(rng, 9)
    for k in range(1, 10):
        path = tmp_path / f"k{k}.ctl"
        _write_ledger(path, ledger)
        tamper_ledger(path, k, 1, "forged")
        report = verify_chain(load_ledger(path))
        assert not report.valid and report.first_invalid_lid == k


def test_partial_rehash_detection_at_every_cut(tmp_path):
    rng = Random(19)
    n = 7
    ledger = random_ledger(rng, n)
    for m in range(2, n):  # rewrite_through m < n
        path = tmp_path / f"m{m}.ctl"
        _write_ledger(path, ledger)
        tamper_ledger(path, 2, 1, "forged", rewrite_through=m)
        report = verify_chain(load_ledger(path))
        assert not report.valid and report.first_invalid_lid == m + 1


def test_assess_detection_outcomes(worked_file):
    honest_table = DataTable("Events", WORKED_HISTORY)

    tamper_ledger(worked_file, 2, 1, "opt5")
    # The chain catches the edit, so the table comparison never runs.
    with pytest.raises(InvalidLedgerError) as excinfo:
        verify_against_table(load_ledger(worked_file), honest_table)
    assert not excinfo.value.report.valid
    assert excinfo.value.report.first_invalid_lid == 2


def test_assess_detection_for_full_rehash(worked_file):
    honest_table = DataTable("Events", WORKED_HISTORY)
    tamper_ledger(worked_file, 3, 1, "opt6", rewrite_through=3)
    # The chain verifies (no InvalidLedgerError); only the table check sees it.
    assert verify_against_table(load_ledger(worked_file), honest_table)


def test_assess_detection_for_table_only_tamper():
    ledger = build_worked_ledger()
    rows = list(WORKED_HISTORY)
    rows[1] = UpdateRecord(2, "t2", "opt5")
    assert verify_against_table(ledger, DataTable("Events", tuple(rows)))


def test_tamper_refuses_partial_file(worked_file):
    with open(worked_file, "ab") as fh:
        fh.write(b"partial")
    with pytest.raises(ValueError):
        tamper_ledger(worked_file, 2, 1, "x")


def test_untouched_records_stay_byte_identical(worked_file):
    before = worked_file.read_text().splitlines()
    tamper_ledger(worked_file, 2, 1, "opt5", rewrite_through=3)
    after = worked_file.read_text().splitlines()
    assert after[0] == before[0]  # header
    assert after[1] == before[1]  # lid 1 untouched
    assert after[2] != before[2] and after[3] != before[3]
    # Reconstruction of the tampered file shows the forged value.
    rows = reconstruct(load_ledger(worked_file)).rows
    assert rows[1].description == "opt5"
