"""Chain core: append, verification, replay, comparison."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaintable import (
    ChainRecord,
    DataTable,
    Divergence,
    FailureKind,
    InvalidLedgerError,
    Ledger,
    MalformedBatchError,
    UpdateBatch,
    UpdateRecord,
    append_batch,
    canonical_encode_update,
    compute_hash,
    decode_update,
    materialize,
    reconstruct,
    verify_against_table,
    verify_chain,
)
from chaintable.encoding import decode_record, encode_record
from chaintable.storage import render_record
from conftest import (
    WORKED_BATCHES,
    WORKED_HISTORY,
    WORKED_VIEW,
    build_worked_ledger,
    random_ledger,
)


def _with_update(record: ChainRecord, batch: UpdateBatch) -> ChainRecord:
    return ChainRecord(record.lid, record.hash, record.prev_hash, canonical_encode_update(batch))


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


def test_a_ledger_of_a_record_holding_a_batch_is_refused_up_front():
    """compute_hash takes a batch as its bytes, and LedgerFile.append keeps the
    bytes of a record given one; every function over an in-memory Ledger refuses
    such a record the same way, before it reads a row."""
    batch = WORKED_BATCHES[0]
    record = ChainRecord(1, compute_hash(1, batch, None), None, batch)
    assert record.hash == build_worked_ledger().records[0].hash
    ledger = Ledger([record])
    empty = DataTable(name="Events", rows=())
    for read in (verify_chain, reconstruct, materialize, lambda led: verify_against_table(led, empty)):
        with pytest.raises(MalformedBatchError, match="record 1 update is not bytes"):
            read(ledger)
    with pytest.raises(MalformedBatchError):
        append_batch(ledger, WORKED_BATCHES[1])
    assert ledger.records == [record]


def _failure(ledger: Ledger) -> tuple[int, FailureKind]:
    """The first failing lid and check of a chain that must fail verification."""
    with pytest.raises(InvalidLedgerError) as excinfo:
        verify_chain(ledger)
    return excinfo.value.lid, excinfo.value.kind


def test_verify_empty_and_worked_ledger():
    assert verify_chain(Ledger()) is None
    assert verify_chain(build_worked_ledger()) is None


def test_verify_flags_in_place_update_mutation():
    ledger = build_worked_ledger()
    ledger.records[1] = _with_update(
        ledger.records[1], UpdateBatch([UpdateRecord(2, "t2", "opt5"), UpdateRecord(3, "t3", "opt3")])
    )
    assert _failure(ledger) == (2, FailureKind.HASH_MISMATCH)


def test_verify_flags_lid_gap():
    ledger = build_worked_ledger()
    r = ledger.records[2]
    ledger.records[2] = ChainRecord(4, r.hash, r.prev_hash, r.update)
    assert _failure(ledger) == (3, FailureKind.LID_GAP)


def test_verify_flags_repeated_lid_as_gap():
    ledger = build_worked_ledger()
    ledger.records.append(ledger.records[2])
    assert _failure(ledger) == (4, FailureKind.LID_GAP)


def test_verify_flags_genesis_violation():
    ledger = build_worked_ledger()
    r1 = ledger.records[0]
    ledger.records[0] = ChainRecord(1, r1.hash, "01" * 32, r1.update)
    assert _failure(ledger) == (1, FailureKind.GENESIS_VIOLATION)


def test_verify_flags_link_break():
    ledger = build_worked_ledger()
    r3 = ledger.records[2]
    ledger.records[2] = ChainRecord(3, r3.hash, "02" * 32, r3.update)
    assert _failure(ledger) == (3, FailureKind.LINK_BREAK)


def test_verify_reports_first_failure_only():
    ledger = build_worked_ledger()
    ledger.records[0] = _with_update(ledger.records[0], UpdateBatch([UpdateRecord(1, "t1", "zz")]))
    ledger.records[2] = _with_update(ledger.records[2], UpdateBatch([UpdateRecord(1, "t4", "zz")]))
    assert _failure(ledger) == (1, FailureKind.HASH_MISMATCH)


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


def _ledger_of(batch: UpdateBatch) -> Ledger:
    ledger = Ledger()
    append_batch(ledger, batch)
    return ledger


@pytest.mark.parametrize(
    "decode",
    [
        lambda batch: (decode_record(encode_record(batch.records[0])),),
        lambda batch: decode_update(canonical_encode_update(batch)).records,
        lambda batch: materialize(_ledger_of(batch)),
        lambda batch: reconstruct(_ledger_of(batch)).rows,
    ],
    ids=["decode_record", "decode_update", "materialize", "reconstruct"],
)
@pytest.mark.parametrize(
    "record",
    [UpdateRecord(2, "t2", "opt2"), UpdateRecord(3, "t3", None), UpdateRecord(4, 'a"\\', 'é\n\x01')],
    ids=["row", "deletion", "escapes"],
)
def test_a_constructed_record_equals_and_hashes_as_each_decoded_one(decode, record):
    (decoded,) = decode(UpdateBatch([record]))
    assert type(decoded) is UpdateRecord
    assert (decoded == record, hash(decoded) == hash(record)) == (True, True)
    assert (decoded.key, decoded.is_deletion) == (record.key, record.is_deletion)


@pytest.mark.parametrize(
    ("value", "fields"),
    [
        (UpdateRecord(1, "t1", "x"), ("opid", "timestamp", "description", "key")),
        (build_worked_ledger().records[0], ("lid", "hash", "prev_hash", "update")),
        (Divergence(1, 1, None, UpdateRecord(1, "t1", "x")), ("position", "opid", "expected", "found")),
    ],
    ids=["UpdateRecord", "ChainRecord", "Divergence"],
)
def test_a_value_refuses_assignment_to_any_field(value, fields):
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_ledgers_built_apart_share_no_records():
    first, second = Ledger(), Ledger()
    append_batch(first, WORKED_BATCHES[0])
    assert (len(first), second.records, Ledger().records) == (1, [], [])


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
            append_batch(rebuilt, decode_update(record.update))
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
    assert verify_chain(ledger) is None
    latest = {}
    for row in reconstruct(ledger).rows:
        latest[row.opid] = row
    view = materialize(ledger)
    assert [(e.opid, e.timestamp, e.description) for e in view] == [
        (opid, latest[opid].timestamp, latest[opid].description) for opid in sorted(latest)
    ]


def test_materialize_decodes_a_view_of_more_rows_than_one_decode_takes():
    ledger = Ledger()
    for first in range(1, 2500, 3):  # 2,499 opids, each written twice
        for timestamp in ("t1", "t2"):
            rows = (UpdateRecord(o, timestamp, f"d{o}") for o in range(first, first + 3))
            append_batch(ledger, UpdateBatch(rows))
    view = materialize(ledger)
    assert [(e.opid, e.timestamp) for e in view] == [(o, "t2") for o in range(1, 2500)]
    assert all(e == UpdateRecord(e.opid, "t2", f"d{e.opid}") for e in view)


@settings(max_examples=30, deadline=None)
@given(st.lists(_batches, min_size=1, max_size=6), st.integers(min_value=0, max_value=10**6))
def test_single_update_mutation_is_always_detected(batches, seed):
    ledger = Ledger()
    for batch in batches:
        append_batch(ledger, batch)
    rng = Random(seed)
    index = rng.randrange(len(ledger.records))
    target = ledger.records[index]
    first, *rest = decode_update(target.update).records
    mutated = UpdateBatch([UpdateRecord(first.opid, first.timestamp + "x", first.description)] + rest)
    ledger.records[index] = _with_update(target, mutated)
    assert _failure(ledger) == (index + 1, FailureKind.HASH_MISMATCH)
