"""Chain core: append, verification, replay, comparison."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaintable import (
    ChainRecord,
    DataTable,
    FailureKind,
    Hash,
    InvalidLedgerError,
    Ledger,
    UpdateBatch,
    UpdateRecord,
    append_batch,
    materialize,
    reconstruct,
    verify_against_table,
    verify_chain,
)
from chaintable.storage import render_record
from conftest import (
    WORKED_BATCHES,
    WORKED_HISTORY,
    WORKED_VIEW,
    build_worked_ledger,
    random_ledger,
)


def _with_update(record: ChainRecord, batch: UpdateBatch) -> ChainRecord:
    return ChainRecord(record.lid, record.hash, record.prev_hash, batch)


def test_append_builds_the_worked_chain():
    ledger = Ledger()
    r1 = append_batch(ledger, WORKED_BATCHES[0])
    r2 = append_batch(ledger, WORKED_BATCHES[1])
    r3 = append_batch(ledger, WORKED_BATCHES[2])
    assert [r.lid for r in ledger.records] == [1, 2, 3]
    assert r1.prev_hash is None
    assert r2.prev_hash == r1.hash
    assert r3.prev_hash == r2.hash


def test_append_does_not_touch_existing_records():
    ledger = build_worked_ledger()
    before = [render_record(r) for r in ledger.records]
    append_batch(ledger, UpdateBatch([UpdateRecord(9, "t9", "x")]))
    assert [render_record(r) for r in ledger.records[:3]] == before


def test_append_refuses_invalid_ledger():
    ledger = build_worked_ledger()
    ledger.records[1] = _with_update(
        ledger.records[1], UpdateBatch([UpdateRecord(2, "t2", "opt5"), UpdateRecord(3, "t3", "opt3")])
    )
    with pytest.raises(InvalidLedgerError):
        append_batch(ledger, UpdateBatch([UpdateRecord(9, "t9", "x")]))


def test_verify_empty_and_worked_ledger():
    assert verify_chain(Ledger()).valid
    report = verify_chain(build_worked_ledger())
    assert report.valid and report.first_invalid_lid is None and report.failure_kind is None


def test_verify_flags_in_place_update_mutation():
    ledger = build_worked_ledger()
    ledger.records[1] = _with_update(
        ledger.records[1], UpdateBatch([UpdateRecord(2, "t2", "opt5"), UpdateRecord(3, "t3", "opt3")])
    )
    report = verify_chain(ledger)
    assert not report.valid
    assert report.first_invalid_lid == 2
    assert report.failure_kind is FailureKind.HASH_MISMATCH


def test_verify_flags_lid_gap():
    ledger = build_worked_ledger()
    r = ledger.records[2]
    ledger.records[2] = ChainRecord(4, r.hash, r.prev_hash, r.update)
    report = verify_chain(ledger)
    assert report.first_invalid_lid == 3
    assert report.failure_kind is FailureKind.LID_GAP


def test_verify_flags_repeated_lid_as_gap():
    ledger = build_worked_ledger()
    ledger.records.append(ledger.records[2])
    report = verify_chain(ledger)
    assert report.first_invalid_lid == 4
    assert report.failure_kind is FailureKind.LID_GAP


def test_verify_flags_genesis_violation():
    ledger = build_worked_ledger()
    r1 = ledger.records[0]
    ledger.records[0] = ChainRecord(1, r1.hash, Hash(b"\x01" * 32), r1.update)
    report = verify_chain(ledger)
    assert report.first_invalid_lid == 1
    assert report.failure_kind is FailureKind.GENESIS_VIOLATION


def test_verify_flags_link_break():
    ledger = build_worked_ledger()
    r3 = ledger.records[2]
    ledger.records[2] = ChainRecord(3, r3.hash, Hash(b"\x02" * 32), r3.update)
    report = verify_chain(ledger)
    assert report.first_invalid_lid == 3
    assert report.failure_kind is FailureKind.LINK_BREAK


def test_verify_reports_first_failure_only():
    ledger = build_worked_ledger()
    ledger.records[0] = _with_update(ledger.records[0], UpdateBatch([UpdateRecord(1, "t1", "zz")]))
    ledger.records[2] = _with_update(ledger.records[2], UpdateBatch([UpdateRecord(1, "t4", "zz")]))
    report = verify_chain(ledger)
    assert report.first_invalid_lid == 1


def test_reconstruct_worked_history():
    table = reconstruct(build_worked_ledger())
    assert table.rows == WORKED_HISTORY
    assert reconstruct(build_worked_ledger()).rows == table.rows


def test_reconstruct_empty_ledger():
    assert reconstruct(Ledger()).rows == ()


def test_reconstruct_refuses_invalid_ledger():
    ledger = build_worked_ledger()
    ledger.records[1] = _with_update(
        ledger.records[1], UpdateBatch([UpdateRecord(2, "t2", "opt5"), UpdateRecord(3, "t3", "opt3")])
    )
    with pytest.raises(InvalidLedgerError):
        reconstruct(ledger)
    with pytest.raises(InvalidLedgerError):
        materialize(ledger)


def test_materialize_worked_view():
    view = materialize(build_worked_ledger())
    assert [(e.opid, e.timestamp, e.description) for e in view] == list(WORKED_VIEW)
    assert not any(e.is_deletion for e in view)


def test_materialize_empty_ledger():
    assert materialize(Ledger()) == ()


def test_materialize_deletion_becomes_tombstone():
    ledger = build_worked_ledger()
    append_batch(ledger, UpdateBatch([UpdateRecord(2, "t5", None)]))
    view = materialize(ledger)
    entries = {e.opid: e for e in view}
    assert entries[2].is_deletion and entries[2].timestamp == "t5"
    assert (entries[1].timestamp, entries[1].description) == ("t4", "opt4")
    assert (entries[3].timestamp, entries[3].description) == ("t3", "opt3")


def test_verify_against_table_consistent():
    ledger = build_worked_ledger()
    table = DataTable("Events", WORKED_HISTORY)
    assert verify_against_table(ledger, table) == ()


def test_verify_against_table_flags_in_place_table_edit():
    ledger = build_worked_ledger()
    rows = list(WORKED_HISTORY)
    rows[1] = UpdateRecord(2, "t2", "opt5")
    (div,) = verify_against_table(ledger, DataTable("Events", tuple(rows)))
    assert div.position == 2 and div.opid == 2
    assert div.expected.description == "opt2" and div.found.description == "opt5"


def test_verify_against_table_flags_final_row_edit():
    ledger = build_worked_ledger()
    rows = list(WORKED_HISTORY)
    rows[3] = UpdateRecord(1, "t4", "opt6")
    (div,) = verify_against_table(ledger, DataTable("Events", tuple(rows)))
    assert div.position == 4
    assert div.expected.description == "opt4" and div.found.description == "opt6"


def test_verify_against_table_flags_missing_and_extra_rows():
    ledger = build_worked_ledger()
    short = DataTable("Events", WORKED_HISTORY[:3])
    (div,) = verify_against_table(ledger, short)
    assert div.position == 4 and div.found is None

    long = DataTable("Events", WORKED_HISTORY + (UpdateRecord(9, "t9", "x"),))
    (div,) = verify_against_table(ledger, long)
    assert div.position == 5 and div.expected is None


def test_round_trip_rebuild_is_record_identical():
    rng = Random(7)
    for n in (0, 1, 2, 8, 20):
        ledger = random_ledger(rng, n)
        rebuilt = Ledger()
        for record in ledger.records:
            append_batch(rebuilt, record.update)
        assert [render_record(a) for a in ledger.records] == [
            render_record(b) for b in rebuilt.records
        ]
        assert verify_against_table(ledger, reconstruct(ledger)) == ()


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=8
)
_records = st.builds(
    UpdateRecord,
    opid=st.integers(min_value=1, max_value=50),
    timestamp=_text,
    description=st.one_of(st.none(), _text),
)
_batches = st.lists(_records, min_size=1, max_size=3, unique_by=lambda r: r.key).map(UpdateBatch)


@settings(max_examples=50, deadline=None)
@given(st.lists(_batches, min_size=0, max_size=8))
def test_materialize_equals_latest_per_opid_of_reconstruct(batches):
    ledger = Ledger()
    for batch in batches:
        append_batch(ledger, batch)
    assert verify_chain(ledger).valid
    latest = {}
    for row in reconstruct(ledger).rows:
        latest[row.opid] = row
    view = materialize(ledger)
    assert [(e.opid, e.timestamp, e.description) for e in view] == [
        (opid, latest[opid].timestamp, latest[opid].description) for opid in sorted(latest)
    ]


@settings(max_examples=30, deadline=None)
@given(st.lists(_batches, min_size=1, max_size=6), st.integers(min_value=0, max_value=10**6))
def test_single_update_mutation_is_always_detected(batches, seed):
    ledger = Ledger()
    for batch in batches:
        append_batch(ledger, batch)
    rng = Random(seed)
    index = rng.randrange(len(ledger.records))
    target = ledger.records[index]
    first = target.update.records[0]
    mutated = UpdateBatch(
        [UpdateRecord(first.opid, first.timestamp + "x", first.description)]
        + list(target.update.records[1:])
    )
    ledger.records[index] = _with_update(target, mutated)
    report = verify_chain(ledger)
    assert not report.valid
    assert report.first_invalid_lid == index + 1
    assert report.failure_kind is FailureKind.HASH_MISMATCH
