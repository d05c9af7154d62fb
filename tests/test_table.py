"""Data table model, replay projection, and the data file format."""

import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaintable import (
    ChainTableStore,
    DataTable,
    StorageViolation,
    StorageViolationKind,
    UpdateRecord,
    read_data_file,
    replay_rows,
    write_data_file,
)
from chaintable.encoding import canonical_encode_update
from chaintable.table import append_data_rows, create_data_file, render_batch
from conftest import WORKED_BATCHES, WORKED_HISTORY, WORKED_VIEW, invoke_cli


def test_actual_view_of_worked_history():
    view = replay_rows(DataTable("Events", WORKED_HISTORY).rows)
    assert [(e.opid, e.timestamp, e.description) for e in view] == list(WORKED_VIEW)


def test_actual_view_of_empty_table():
    assert replay_rows(DataTable("Events").rows) == ()


def test_history_ending_in_deletion_flags_tombstone():
    rows = WORKED_HISTORY + (UpdateRecord(3, "t5", None),)
    view = replay_rows(rows)
    entries = {e.opid: e for e in view}
    assert entries[3].is_deletion
    assert not entries[1].is_deletion and not entries[2].is_deletion


def test_append_order_wins_not_timestamp_text():
    # "t9" sorts after "t10" lexically; replay must ignore that entirely.
    rows = (UpdateRecord(1, "t9", "old"), UpdateRecord(1, "t10", "new"))
    (entry,) = replay_rows(rows)
    assert (entry.timestamp, entry.description) == ("t10", "new")


def test_data_file_round_trip(tmp_path):
    path = tmp_path / "t.ctd"
    create_data_file(path, "Events")
    for batch in WORKED_BATCHES:
        append_data_rows(path, render_batch(canonical_encode_update(batch)))
    name, rows = read_data_file(path)
    assert name == "Events"
    assert tuple(rows) == WORKED_HISTORY


def test_data_file_header_is_exact(tmp_path):
    path = tmp_path / "t.ctd"
    create_data_file(path, "Events")
    assert path.read_bytes() == b"CHAINTABLE-DATA v1 Events\n"


def test_create_data_file_refuses_overwrite(tmp_path):
    path = tmp_path / "t.ctd"
    create_data_file(path, "Events")
    with pytest.raises(FileExistsError):
        create_data_file(path, "Events")


def test_read_data_file_rejects_bad_header(tmp_path):
    path = tmp_path / "t.ctd"
    path.write_bytes(b"NOT-A-HEADER\n")
    with pytest.raises(StorageViolation) as excinfo:
        read_data_file(path)
    assert excinfo.value.kind is StorageViolationKind.HEADER_MISMATCH


def test_read_data_file_rejects_partial_final_line(tmp_path):
    path = tmp_path / "t.ctd"
    create_data_file(path, "Events")
    append_data_rows(path, render_batch(canonical_encode_update(WORKED_BATCHES[0])))
    with open(path, "ab") as fh:
        fh.write(b'{"opid":2,"time')
    with pytest.raises(StorageViolation) as excinfo:
        read_data_file(path)
    assert excinfo.value.kind is StorageViolationKind.CORRUPT_RECORD


def test_read_data_file_rejects_garbage_row(tmp_path):
    path = tmp_path / "t.ctd"
    create_data_file(path, "Events")
    with open(path, "ab") as fh:
        fh.write(b"garbage\n")
    with pytest.raises(StorageViolation) as excinfo:
        read_data_file(path)
    assert excinfo.value.kind is StorageViolationKind.CORRUPT_RECORD
    assert excinfo.value.line == 2


def test_write_data_file_is_atomic_replacement(tmp_path):
    path = tmp_path / "t.ctd"
    write_data_file(path, "Events", WORKED_HISTORY)
    name, rows = read_data_file(path)
    assert name == "Events" and tuple(rows) == WORKED_HISTORY
    write_data_file(path, "Events", WORKED_HISTORY[:1])
    _, rows = read_data_file(path)
    assert tuple(rows) == WORKED_HISTORY[:1]
    assert not path.with_name(path.name + ".tmp").exists()



def test_write_data_file_removes_its_temp_file_on_failure(tmp_path):
    path = tmp_path / "t.ctd"
    write_data_file(path, "Events", WORKED_HISTORY)
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        write_data_file(path, "Events", [WORKED_HISTORY[0], object()])
    assert sorted(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


def test_new_and_replaced_files_fsync_their_directory(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        events.append(("dir" if stat.S_ISDIR(info.st_mode) else "file", info.st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", None))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    directory = ("dir", tmp_path.stat().st_ino)
    ledger, table, out = tmp_path / "l.ctl", tmp_path / "t.ctd", tmp_path / "out.ctd"

    ChainTableStore.create(ledger, table, "Events").close()
    created = [("file", ledger.stat().st_ino), directory, ("file", table.stat().st_ino), directory]
    assert events == created

    for write, target in (
        (lambda: write_data_file(table, "Events", WORKED_HISTORY), table),
        (lambda: invoke_cli(["reconstruct", "--ledger", ledger, "--out", out]), out),
    ):
        events.clear()
        write()
        assert events == [("file", target.stat().st_ino), ("replace", None), directory]


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=10
)
_rows = st.lists(
    st.builds(
        UpdateRecord,
        opid=st.integers(min_value=1, max_value=30),
        timestamp=_text,
        description=st.one_of(st.none(), _text),
    ),
    max_size=12,
)


@given(_rows)
def test_replay_keeps_one_entry_per_opid_sorted(rows):
    view = replay_rows(rows)
    opids = [e.opid for e in view]
    assert opids == sorted(set(r.opid for r in rows))
    for entry in view:
        last = [r for r in rows if r.opid == entry.opid][-1]
        assert (entry.timestamp, entry.description) == (last.timestamp, last.description)


@settings(deadline=None, max_examples=30)
@given(_rows)
def test_data_file_round_trip_property(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("ctd") / "t.ctd"
    write_data_file(path, "Events", rows)
    _, loaded = read_data_file(path)
    assert loaded == list(rows)
