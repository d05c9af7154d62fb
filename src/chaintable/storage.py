"""Durable append-only persistence for the chain ledger.

File layout (UTF-8, 0x0A line terminator only, bit-exact):

    CHAINTABLE-LEDGER v1 <table-name> double-sha256-v1
    <lid> <hash hex> <prevHash hex or -> <canonical update JSON>
    ...

The only write operations are creating the header and appending exactly one
record line at the end; there is no update, delete, or bulk entry point, so
the append-only and one-record-at-a-time principles hold by construction.
Preconditions reject lid gaps and prevHash mismatches before any byte is
written, and every append is flushed to stable storage before returning.
Loading splits lines and reads the header by the rules the data file shares
(table.stored_lines, table.parse_header); only the ledger's repair drops a
torn final line. Each record line is checked once, by one pattern that embeds
the update's canonical form, into its ChainRecord (the update kept as the
line's own bytes); then one scan of all their key texts decides that no update
holds a key twice. load_ledger and LedgerFile.open share one loader, and
LedgerFile.append refuses any record that a reader would refuse.
"""

from __future__ import annotations

import errno
import fcntl
import os
import re
from io import FileIO
from pathlib import Path

from .chain import HASH_ALGORITHM, ChainRecord, Ledger, check_lid
from .encoding import _CANONICAL_UPDATE, UpdateBatch, check_keys, check_update, key_texts
from .errors import (
    LockError,
    MalformedBatchError,
    StorageViolation,
    StorageViolationKind,
)
from .table import check_table_name, create_file, parse_header, stored_lines

LEDGER_MAGIC = "CHAINTABLE-LEDGER"
LEDGER_VERSION = "v1"
ABSENT_PREV = "-"
_HEADER_PREFIX = f"{LEDGER_MAGIC} {LEDGER_VERSION} "
_HEADER_SUFFIX = f" {HASH_ALGORITHM}"

_HASH = "[0-9a-f]{64}"
# A record line as render_record writes it: lid, hash, prevHash or -, canonical
# update. Any other update is still split off, so that the refusal can name it.
_RECORD_LINE = re.compile(
    rf"([1-9][0-9]*+) ({_HASH}) ({_HASH}|{ABSENT_PREV}) (?:({_CANONICAL_UPDATE.pattern})|.*)"
)


def ledger_header_line(name: str) -> str:
    return f"{_HEADER_PREFIX}{name}{_HEADER_SUFFIX}"


def render_record(record: ChainRecord) -> str:
    prev = ABSENT_PREV if record.prev_hash is None else record.prev_hash
    return f"{record.lid} {record.hash} {prev} {record.update.decode('utf-8')}"


def parse_record_line(
    line: str, lineno: int, data: bytes | None = None, tip: str | None = None
) -> ChainRecord:
    """Check one record line into its record; any deviation from what render_record
    writes is corrupt. The update is sliced from data (the line's bytes) if given;
    a prevHash equal to tip (the previous hash) is tip, so a hash is held once.
    The no-key-twice rule is the loader's, checked by its one key scan."""
    try:
        fields = _RECORD_LINE.fullmatch(line)
        if fields is None:
            raise ValueError("record line is not <lid> <hash hex> <prevHash hex or -> <update>")
        lid = int(fields[1])  # ValueError past the interpreter's digit limit
        if fields.start(4) < 0:
            raise ValueError("update is not in canonical form")
        # lid, hash and prevHash are ASCII: the update has the same offset in data.
        update = fields[4].encode("utf-8") if data is None else data[fields.start(4) :]
        prev_hash = tip if fields[3] == tip else None if fields[3] == ABSENT_PREV else fields[3]
        return ChainRecord(lid, fields[2], prev_hash, update)
    except ValueError as exc:
        raise StorageViolation(StorageViolationKind.CORRUPT_RECORD, str(exc), line=lineno) from exc


def _check_batch_keys(records: list[ChainRecord]) -> None:
    """Refuse the first record whose update holds a key twice, naming its line."""
    for lineno, record in enumerate(records, start=2):
        try:
            check_keys(record.update)
        except MalformedBatchError as exc:
            kind = StorageViolationKind.CORRUPT_RECORD
            raise StorageViolation(kind, str(exc), line=lineno) from exc


def _parse_file(raw: bytes, repair: bool) -> tuple[Ledger, set[bytes]]:
    """The Ledger of a ledger file's bytes, and the set of its key texts."""
    lines = stored_lines(raw, repair)
    name = parse_header(next(lines)[1], _HEADER_PREFIX, _HEADER_SUFFIX)
    records: list[ChainRecord] = []
    try:
        for lineno, text, data in lines:
            tip = records[-1].hash if records else None
            records.append(parse_record_line(text, lineno, data, tip))
    except StorageViolation:
        _check_batch_keys(records)  # a key twice on an earlier line is the first fault
        raise
    # One scan of the checked record lines, after their split is let go; not of
    # the header (a table name may hold a key text) nor of a torn tail.
    found = key_texts(raw, raw.index(b"\n") + 1, raw.rfind(b"\n"))
    if len(keys := set(found)) < len(found):  # a key twice, in one batch or across two
        _check_batch_keys(records)
    return Ledger(records, name), keys


def load_ledger(path: str | os.PathLike[str], repair: bool = False) -> Ledger:
    """The Ledger of every record line, checked (one snapshot read); a
    malformed line raises CORRUPT_RECORD with its line number.

    A chain-invalid ledger is still returned: detecting tampering is
    verify_chain's job, and tampered files must stay loadable. With
    repair=True a final unterminated (partially written) line is dropped.
    """
    return _parse_file(Path(path).read_bytes(), repair)[0]


def read_ledger_header(path: str | os.PathLike[str]) -> str:
    """Return the table name recorded in the ledger file header."""
    with open(path, "rb") as fh:
        first = fh.readline()
    return parse_header(next(stored_lines(first))[1], _HEADER_PREFIX, _HEADER_SUFFIX)


class LedgerFile:
    """Writer handle for one on-disk ledger.

    Holds the advisory writer lock for its lifetime; use as a context
    manager or call close(). Readers never need a handle; load_ledger reads
    a snapshot without locking. ledger holds every record in the file:
    parsed once by open, then extended by each append. keys is the key texts
    open read, for ChainTableStore to own and grow; append does not grow it.
    """

    def __init__(self, path: Path, ledger: Ledger, keys: set[bytes], fh: FileIO, size: int) -> None:
        self.path, self.ledger, self.keys, self._fh, self._size = path, ledger, keys, fh, size

    @classmethod
    def create(cls, path: str | os.PathLike[str], table_name: str) -> "LedgerFile":
        """Create a fresh ledger file (header only), durable before return."""
        check_table_name(table_name)
        create_file(path, (ledger_header_line(table_name) + "\n").encode("utf-8"))
        return cls.open(path)

    @classmethod
    def open(cls, path: str | os.PathLike[str], repair: bool = False) -> "LedgerFile":
        """Open for appending: lock, scan existing records, position at end.

        With repair=True a final partially written record line is truncated
        away (it was never acknowledged); otherwise it raises CORRUPT_RECORD.
        """
        path = Path(path)
        if not path.exists():
            # "ab" would quietly create an empty file here.
            raise FileNotFoundError(f"no ledger file at {path}")
        # Unbuffered: a failed write must leave no bytes queued for close().
        fh = open(path, "ab", buffering=0)
        try:
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                if exc.errno in (errno.EACCES, errno.EAGAIN):
                    raise LockError(f"another writer holds the lock on {path}") from exc
                raise
            raw = path.read_bytes()
            ledger, keys = _parse_file(raw, repair)
            size = raw.rfind(b"\n") + 1  # less a partial final line, which repair drops
            if size < len(raw):
                os.ftruncate(fh.fileno(), size)
        except Exception:
            fh.close()
            raise
        return cls(path, ledger, keys, fh, size)

    def append(self, record: ChainRecord) -> None:
        """Append exactly one record at end-of-file, durable before return.

        Rejects, without writing a byte, every record whose line a reader
        would refuse: a list, plain tuple or Ledger of records
        (MULTI_RECORD_WRITE), any other value that is not a ChainRecord
        (TypeError), a lid that is not a positive int (MalformedBatchError), a
        hash that is not 64 lowercase hex characters (ValueError), an update
        that is not bytes, or bytes that are not canonical or repeat a key
        (MalformedBatchError); and a lid that skips or repeats (LID_GAP), a
        prevHash that does not match the stored tip (PREV_HASH_MISMATCH), and
        any out-of-band change to the file since open (NON_APPEND_WRITE).
        An UpdateBatch checked its bytes when it was made, so only an update
        that is not one is checked here.
        """
        if not isinstance(record, ChainRecord):
            if isinstance(record, (list, Ledger)) or type(record) is tuple:
                raise StorageViolation(
                    StorageViolationKind.MULTI_RECORD_WRITE,
                    "only one record may be written at a time",
                )
            raise TypeError(f"expected a ChainRecord, got {type(record).__name__}")
        check_lid(record.lid)
        if not isinstance(record.hash, str) or not re.fullmatch(_HASH, record.hash):
            raise ValueError(f"record hash is not 64 lowercase hex characters: {record.hash!r}")
        if not isinstance(record.update, UpdateBatch):
            check_update(record.update)
        expected_lid = len(self.ledger) + 1
        if record.lid != expected_lid:
            raise StorageViolation(
                StorageViolationKind.LID_GAP,
                f"record lid {record.lid} but next appendable lid is {expected_lid}",
            )
        tip = self.ledger.tip_hash
        if record.prev_hash != tip:
            raise StorageViolation(
                StorageViolationKind.PREV_HASH_MISMATCH,
                f"record prevHash {record.prev_hash} does not match stored tip {tip}",
            )
        if os.fstat(self._fh.fileno()).st_size != self._size:
            raise StorageViolation(
                StorageViolationKind.NON_APPEND_WRITE,
                "ledger file changed outside this writer; refusing to append",
            )
        payload = (render_record(record) + "\n").encode("utf-8")
        try:
            rest = memoryview(payload)
            while rest:  # a short write is retried; the next one raises if it must
                rest = rest[self._fh.write(rest) :]
            os.fsync(self._fh.fileno())
        except OSError:
            # Leave no partial line behind if the device allows it.
            try:
                os.ftruncate(self._fh.fileno(), self._size)
            except OSError:
                pass
            raise
        self._size += len(payload)
        self.ledger.records.append(record)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()  # releases the flock

    def __enter__(self) -> "LedgerFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
