"""One reader for both stored files: the ledger and the data file split lines,
refuse torn tails and read their headers by the same rules, so each malformed
input is refused with the same kind, line and message whichever file holds it."""

import pytest

from chaintable import (
    ChainTableStore,
    StorageViolation,
    StorageViolationKind,
    StoreMismatchError,
    UpdateBatch,
    UpdateRecord,
    load_ledger,
    read_data_file,
)
from chaintable.table import read_table_rows

CORRUPT, HEADER = StorageViolationKind.CORRUPT_RECORD, StorageViolationKind.HEADER_MISMATCH
UNDECODABLE = (
    "undecodable bytes: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
)

# name: (file bytes from (header line, valid line 2, prefix, suffix), kind, line, message).
# A message may name the file's own header form, as prefix <name> suffix.
CASES = {
    "empty file": (lambda h, l2, p, s: b"", CORRUPT, 1, "empty file or incomplete header line"),
    "header without newline": (
        lambda h, l2, p, s: h[:-1],
        CORRUPT,
        1,
        "empty file or incomplete header line",
    ),
    "non-UTF-8 byte in line 2": (lambda h, l2, p, s: h + b"\xff\n", CORRUPT, 2, UNDECODABLE),
    "torn tail after a valid line": (
        lambda h, l2, p, s: h + l2 + b'{"torn',
        CORRUPT,
        3,
        "final line is a partial write (6 bytes, no terminator)",
    ),
    "corrupt line 2 ahead of a torn tail": (
        lambda h, l2, p, s: h + b"\xff\n" + b'{"torn',
        CORRUPT,
        2,
        UNDECODABLE,
    ),
    "header with no name": (
        lambda h, l2, p, s: p + s + b"\n",
        HEADER,
        None,
        lambda p, s: f"not a {p}<name>{s} header: {p + s!r}",
    ),
}


@pytest.fixture
def stored(tmp_path):
    """Both files of a one-record store: {file: (path, reader)}."""
    ledger, table = tmp_path / "l.ctl", tmp_path / "t.ctd"
    with ChainTableStore.create(ledger, table, "Events") as store:
        store.append(UpdateBatch([UpdateRecord(1, "t1", "d1")]))
    return {"ledger": (ledger, load_ledger), "data": (table, read_data_file)}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("which", ["ledger", "data"])
def test_both_files_refuse_each_input_alike(stored, which, case):
    path, read = stored[which]
    header, line2 = (line + b"\n" for line in path.read_bytes().split(b"\n")[:2])
    prefix, suffix = header[:-1].split(b"Events")
    build, kind, line, message = CASES[case]
    if callable(message):
        message = message(prefix.decode(), suffix.decode())
    path.write_bytes(build(header, line2, prefix, suffix))
    with pytest.raises(StorageViolation) as excinfo:
        read(path)
    assert (excinfo.value.kind, excinfo.value.line, excinfo.value.detail) == (kind, line, message)


def test_read_table_rows_refuses_another_tables_file(stored):
    table, _ = stored["data"]
    assert [row.key for row in read_table_rows(table, "Events")] == [(1, "t1")]
    with pytest.raises(StoreMismatchError, match="data file is for table 'Events' but ledger"):
        read_table_rows(table, "Other")
