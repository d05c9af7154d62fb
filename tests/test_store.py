"""Coupled store: ledger-first writes and open-time reconciliation."""

from random import Random

import pytest

import chaintable.store
from chaintable import (
    ChainTableStore,
    DuplicateKeyError,
    InvalidLedgerError,
    LedgerFile,
    MalformedBatchError,
    StorageFailureError,
    StorageViolation,
    StorageViolationKind,
    StoreInconsistentError,
    StoreMismatchError,
    UpdateBatch,
    UpdateRecord,
    load_ledger,
    read_data_file,
    reconstruct,
    verify_against_table,
    verify_chain,
)
from chaintable.chain import seal
from chaintable.encoding import canonical_encode_update, key_texts, render_batch
from conftest import WORKED_BATCHES, WORKED_HISTORY, invoke_cli, random_op_sequence


def _paths(tmp_path):
    return tmp_path / "l.ctl", tmp_path / "t.ctd"


def _create_worked(tmp_path):
    ledger_path, table_path = _paths(tmp_path)
    with ChainTableStore.create(ledger_path, table_path, "Events") as store:
        for batch in WORKED_BATCHES:
            store.append(batch)
    return ledger_path, table_path


def test_create_then_append_worked_example(tmp_path):
    ledger_path, table_path = _create_worked(tmp_path)
    name, rows = read_data_file(table_path)
    assert name == "Events" and tuple(rows) == WORKED_HISTORY
    ledger = load_ledger(ledger_path)
    assert reconstruct(ledger).rows == WORKED_HISTORY


def test_create_refuses_existing_files(tmp_path):
    ledger_path, table_path = _create_worked(tmp_path)
    with pytest.raises(FileExistsError):
        ChainTableStore.create(ledger_path, tmp_path / "other.ctd", "Events")
    with pytest.raises(FileExistsError):
        ChainTableStore.create(tmp_path / "other.ctl", table_path, "Events")
    assert not (tmp_path / "other.ctl").exists()  # no half-created pair


def test_store_append_builds_table_and_ledger_in_lockstep(tmp_path):
    ledger_path, table_path = _paths(tmp_path)
    with ChainTableStore.create(ledger_path, table_path, "Events") as store:
        for batch in WORKED_BATCHES:
            record = store.append(batch)
        assert store.table.rows == WORKED_HISTORY
        assert record.lid == 3
        assert verify_against_table(store.ledger, store.table) == ()


def test_append_rejects_duplicate_key_with_no_effect(tmp_path):
    ledger_path, table_path = _paths(tmp_path)
    with ChainTableStore.create(ledger_path, table_path, "Events") as store:
        store.append(WORKED_BATCHES[0])
        ledger_before = ledger_path.read_bytes()
        table_before = table_path.read_bytes()
        with pytest.raises(DuplicateKeyError):
            store.append(UpdateBatch([UpdateRecord(1, "t1", "again")]))
        assert ledger_path.read_bytes() == ledger_before
        assert table_path.read_bytes() == table_before
        store.append(WORKED_BATCHES[1])  # store still usable


def test_append_refuses_bytes_that_are_not_a_batch_whatever_their_keys(tmp_path):
    """A batch's bytes are refused as not a batch, before the key check, so
    they get the same refusal with their key new and with it already stored."""
    ledger_path, table_path = _paths(tmp_path)
    with ChainTableStore.create(ledger_path, table_path, "Events") as store:
        for stored in (False, True):
            if stored:
                store.append(WORKED_BATCHES[0])
            files = (ledger_path.read_bytes(), table_path.read_bytes())
            with pytest.raises(MalformedBatchError, match="not an update batch"):
                store.append(bytes(WORKED_BATCHES[0]))
            assert (ledger_path.read_bytes(), table_path.read_bytes()) == files
        assert len(store.ledger) == 1
        store.append(WORKED_BATCHES[1])  # store still usable


def test_store_append_rejects_cross_batch_duplicate_key(tmp_path):
    ledger_path, table_path = _paths(tmp_path)
    with ChainTableStore.create(ledger_path, table_path, "Events") as store:
        store.append(WORKED_BATCHES[0])
        rows_before, records_before = store.table.rows, list(store.ledger.records)
        with pytest.raises(DuplicateKeyError):
            store.append(UpdateBatch([UpdateRecord(1, "t1", "again")]))
        assert store.table.rows == rows_before
        assert store.ledger.records == records_before


def test_reopen_continues_the_chain(tmp_path):
    ledger_path, table_path = _create_worked(tmp_path)
    with ChainTableStore.open(ledger_path, table_path) as store:
        record = store.append(UpdateBatch([UpdateRecord(4, "t6", "x")]))
        assert record.lid == 4
    assert len(load_ledger(ledger_path)) == 4


@pytest.mark.parametrize("n", (0, 1, 30))
def test_the_file_holds_the_writers_ledger_across_appends_and_a_reopen(tmp_path, n):
    ledger_path, table_path = _paths(tmp_path)
    with ChainTableStore.create(ledger_path, table_path, "Events") as store:
        for i in range(1, n + 1):
            store.append(UpdateBatch([UpdateRecord(i, f"t{i}", f"d{i}")]))
    batches = [
        UpdateBatch([UpdateRecord(j, f"new{i}", None if j == 2 else f"x{i}") for j in range(1, i % 3 + 2)])
        for i in range(6)
    ]
    for half in (batches[:3], batches[3:]):  # a close and reopen between the halves
        with ChainTableStore.open(ledger_path, table_path) as store:
            for batch in half:
                store.append(batch)
            assert load_ledger(ledger_path).records == store.ledger.records
    assert len(store.ledger) == n + 6
    assert verify_chain(load_ledger(ledger_path)) is None
    code, _, err = invoke_cli(["verify", "--ledger", ledger_path, "--table", table_path])
    assert code == 0, err


def test_open_replays_missing_table_suffix(tmp_path):
    ledger_path, table_path = _create_worked(tmp_path)
    # Simulate a crash between ledger commit and table write: drop last row.
    lines = table_path.read_bytes().splitlines(keepends=True)
    table_path.write_bytes(b"".join(lines[:-1]))
    with ChainTableStore.open(ledger_path, table_path) as store:
        assert store.table.rows == WORKED_HISTORY
    _, rows = read_data_file(table_path)
    assert tuple(rows) == WORKED_HISTORY


def _assert_open_completes_each_cut(tmp_path, cuts):
    """Cut the worked store's data file at each byte count in cuts(whole
    file); open must complete it to the ledger's rendering every time."""
    ledger_path, table_path = _create_worked(tmp_path)
    rebuilt = tmp_path / "rebuilt.ctd"
    assert invoke_cli(["reconstruct", "--ledger", ledger_path, "--out", rebuilt])[0] == 0
    whole = table_path.read_bytes()
    for cut in cuts(whole):
        table_path.write_bytes(whole[:cut])
        with ChainTableStore.open(ledger_path, table_path) as store:
            assert store.table.rows == WORKED_HISTORY
        assert table_path.read_bytes() == rebuilt.read_bytes(), cut
        code, _, err = invoke_cli(["verify", "--ledger", ledger_path, "--table", table_path])
        assert code == 0, (cut, err)


def test_open_completes_a_data_file_torn_at_any_byte_of_the_last_write(tmp_path):
    last_write = len(render_batch(canonical_encode_update(WORKED_BATCHES[-1])))
    _assert_open_completes_each_cut(
        tmp_path, lambda whole: range(len(whole) - last_write, len(whole) + 1)
    )


def test_open_completes_a_data_file_torn_inside_its_header(tmp_path):
    header = len(b"CHAINTABLE-DATA v1 Events\n")
    _assert_open_completes_each_cut(tmp_path, lambda whole: range(header + 1))


def _batch_span(whole, index):
    """(start, end) of the worked batch at index in a whole rendered data file."""
    sizes = [len(render_batch(canonical_encode_update(b))) for b in WORKED_BATCHES]
    end = len(whole) - sum(sizes[index + 1 :])
    return end - sizes[index], end


def test_open_completes_a_data_file_cut_inside_a_multi_row_batch(tmp_path):
    assert len(WORKED_BATCHES[1].records) == 2
    _assert_open_completes_each_cut(tmp_path, lambda whole: range(*_batch_span(whole, 1)))


def test_open_refuses_a_data_file_that_differs_inside_a_batch_after_a_matching_prefix(tmp_path):
    ledger_path, table_path = _create_worked(tmp_path)
    whole = table_path.read_bytes()
    _, end = _batch_span(whole, 1)
    # The batch's first row matches; its second row differs; the last batch is missing.
    table_path.write_bytes(whole[:end].replace(b'"opt3"', b'"opt7"'))
    before = table_path.read_bytes()
    with pytest.raises(StoreInconsistentError):
        ChainTableStore.open(ledger_path, table_path)
    assert table_path.read_bytes() == before


def test_cli_append_completes_an_empty_data_file(tmp_path):
    # What a crash inside create_data_file leaves: a ledger and a 0-byte data file.
    ledger_path, table_path = _paths(tmp_path)
    ChainTableStore.create(ledger_path, table_path, "Events").close()
    table_path.write_bytes(b"")
    batch = '[{"opid":1,"timestamp":"t1","description":"opt1"}]'
    code, _, err = invoke_cli(["append", "--ledger", ledger_path, "--table", table_path], batch)
    assert code == 0, err
    assert read_data_file(table_path) == ("Events", [UpdateRecord(1, "t1", "opt1")])


def test_cli_append_completes_a_torn_data_file_first(tmp_path):
    ledger_path, table_path = _create_worked(tmp_path)
    table_path.write_bytes(table_path.read_bytes()[:-7])
    batch = '[{"opid":4,"timestamp":"t9","description":"x"}]'
    code, _, err = invoke_cli(["append", "--ledger", ledger_path, "--table", table_path], batch)
    assert code == 0, err
    _, rows = read_data_file(table_path)
    assert tuple(rows) == WORKED_HISTORY + (UpdateRecord(4, "t9", "x"),)


def test_open_refuses_non_canonical_row(tmp_path):
    ledger_path, table_path = _create_worked(tmp_path)
    table_path.write_bytes(table_path.read_bytes().replace(b'{"opid":2,', b'{"opid": 2,'))
    with pytest.raises(StorageViolation) as excinfo:
        ChainTableStore.open(ledger_path, table_path)
    assert excinfo.value.kind is StorageViolationKind.CORRUPT_RECORD
    assert excinfo.value.line == 3


def test_open_refuses_divergent_table(tmp_path):
    ledger_path, table_path = _create_worked(tmp_path)
    content = table_path.read_bytes().replace(b"opt2", b"opt5")
    table_path.write_bytes(content)
    with pytest.raises(StoreInconsistentError):
        ChainTableStore.open(ledger_path, table_path)


def test_open_refuses_oversized_table(tmp_path):
    ledger_path, table_path = _create_worked(tmp_path)
    with open(table_path, "ab") as fh:
        fh.write(b'{"opid":9,"timestamp":"t9","description":"x"}\n')
    with pytest.raises(StoreInconsistentError):
        ChainTableStore.open(ledger_path, table_path)


def test_open_refuses_name_mismatch(tmp_path):
    ledger_path, table_path = _create_worked(tmp_path)
    other = tmp_path / "other.ctd"
    with ChainTableStore.create(tmp_path / "other.ctl", other, "Different"):
        pass
    with pytest.raises(StoreMismatchError):
        ChainTableStore.open(ledger_path, other)


def test_open_refuses_tampered_ledger(tmp_path):
    ledger_path, table_path = _create_worked(tmp_path)
    content = ledger_path.read_bytes().replace(b"opt2", b"opt5")
    ledger_path.write_bytes(content)
    with pytest.raises(InvalidLedgerError):
        ChainTableStore.open(ledger_path, table_path)


def test_ledger_commits_first_and_reopen_heals(tmp_path, monkeypatch):
    ledger_path, table_path = _paths(tmp_path)
    store = ChainTableStore.create(ledger_path, table_path, "Events")
    store.append(WORKED_BATCHES[0])

    def boom(path, rows):
        raise OSError("disk full")

    monkeypatch.setattr(chaintable.store, "append_data_rows", boom)
    with pytest.raises(StorageFailureError):
        store.append(WORKED_BATCHES[1])
    # The ledger committed; further writes are refused until reconciled.
    with pytest.raises(StorageFailureError):
        store.append(WORKED_BATCHES[2])
    store.close()
    monkeypatch.undo()

    assert len(load_ledger(ledger_path)) == 2
    _, rows = read_data_file(table_path)
    assert tuple(rows) == WORKED_HISTORY[:1]

    with ChainTableStore.open(ledger_path, table_path) as healed:
        assert healed.table.rows == WORKED_HISTORY[:3]
        healed.append(WORKED_BATCHES[2])
    _, rows = read_data_file(table_path)
    assert tuple(rows) == WORKED_HISTORY


def test_failed_ledger_write_commits_nothing(tmp_path, monkeypatch):
    ledger_path, table_path = _paths(tmp_path)
    store = ChainTableStore.create(ledger_path, table_path, "Events")
    store.append(WORKED_BATCHES[0])
    ledger_before = ledger_path.read_bytes()

    def boom(record):
        raise OSError("device error")

    monkeypatch.setattr(store._ledger_file, "append", boom)
    with pytest.raises(OSError):
        store.append(WORKED_BATCHES[1])
    monkeypatch.undo()
    assert ledger_path.read_bytes() == ledger_before
    assert len(store.ledger) == 1  # in-memory state rolled back too
    store.append(WORKED_BATCHES[1])
    store.close()
    assert reconstruct(load_ledger(ledger_path)).rows == WORKED_HISTORY[:3]


def test_history_equals_ledger_after_random_injected_failures(tmp_path, monkeypatch):
    rng = Random(31)
    ledger_path, table_path = _paths(tmp_path)
    store = ChainTableStore.create(ledger_path, table_path, "Events")
    real_append_rows = chaintable.store.append_data_rows

    applied = 0
    for batch in random_op_sequence(rng, 40):
        fail = rng.random() < 0.25

        if fail:
            monkeypatch.setattr(
                chaintable.store, "append_data_rows", lambda *a: (_ for _ in ()).throw(OSError())
            )
            with pytest.raises(StorageFailureError):
                store.append(batch)
            monkeypatch.setattr(chaintable.store, "append_data_rows", real_append_rows)
            store.close()
            store = ChainTableStore.open(ledger_path, table_path)
            applied += 1  # the ledger kept it; reopen replays it to the table
        else:
            store.append(batch)
            applied += 1

        history = reconstruct(store.ledger).rows
        assert store.table.rows == history
        _, on_disk = read_data_file(table_path)
        assert tuple(on_disk) == history
    store.close()
    assert len(load_ledger(ledger_path)) == applied


_KEY_TEXT_NAME = '{"opid":1,"timestamp":"t"'  # a table name holding a key text's bytes


def _key_set(store):
    """The key texts a store holds, against which its appends are checked."""
    return store._keys


def _record_keys(ledger):
    return {key for record in ledger.records for key in key_texts(record.update)}


def test_open_keys_are_the_records_key_texts(tmp_path):
    ledger_path, table_path = _paths(tmp_path)
    with ChainTableStore.create(ledger_path, table_path, "Events") as store:
        for batch in random_op_sequence(Random(5), 12):
            store.append(batch)
    with ChainTableStore.open(ledger_path, table_path) as store:
        assert _key_set(store) == _record_keys(store.ledger) and len(_key_set(store)) > 12


def test_open_keys_hold_neither_the_headers_nor_a_repaired_torn_tails_key_text(tmp_path):
    ledger_path, table_path = _paths(tmp_path)
    with ChainTableStore.create(ledger_path, table_path, _KEY_TEXT_NAME) as store:
        for batch in WORKED_BATCHES:
            store.append(batch)
    with open(ledger_path, "ab") as fh:  # a torn write holding a key text no record holds
        fh.write(b"4 " + b"ab" * 32 + b' - [{"opid":9,"timestamp":"torn","description":null}]')
    with ChainTableStore.open(ledger_path, table_path, repair=True) as store:
        assert _key_set(store) == _record_keys(store.ledger)
        assert {b'1,"timestamp":"t"', b'9,"timestamp":"torn"'}.isdisjoint(_key_set(store))
        store.append(UpdateBatch([UpdateRecord(1, "t", "the header's key text, as a row")]))
        store.append(UpdateBatch([UpdateRecord(9, "torn", "the torn tail's, as a row")]))
    ledger = load_ledger(ledger_path)
    assert verify_chain(ledger) is None and len(ledger) == len(WORKED_BATCHES) + 2


def test_a_key_in_two_batches_written_around_the_store_opens_and_refuses_a_third(tmp_path):
    ledger_path, table_path = _paths(tmp_path)
    ChainTableStore.create(ledger_path, table_path, "Events").close()
    batches = [
        UpdateBatch([UpdateRecord(1, "t1", "first")]),
        UpdateBatch([UpdateRecord(2, "t2", "x"), UpdateRecord(1, "t1", "second")]),
    ]
    with LedgerFile.open(ledger_path) as ledger_file:
        for batch in batches:
            ledger_file.append(seal(ledger_file.ledger, batch))
    with ChainTableStore.open(ledger_path, table_path) as store:  # completes the data file
        assert _key_set(store) == {b'1,"timestamp":"t1"', b'2,"timestamp":"t2"'}
        with pytest.raises(DuplicateKeyError):
            store.append(UpdateBatch([UpdateRecord(1, "t1", "third")]))
        assert len(store.ledger) == 2
    assert read_data_file(table_path)[1] == [row for batch in batches for row in batch.records]
