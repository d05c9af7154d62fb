"""Durable append-only persistence for the chain ledger.

File layout (UTF-8, 0x0A line terminator only, bit-exact):

    CHAINTABLE-LEDGER v1 <table-name> double-sha256-v1
    <lid> <hash hex> <prevHash hex or -> <canonical update JSON>
    ...

The only write operations are creating the header and appending exactly one
record line at the end; there is no update, delete, or bulk entry point, so
the append-only and one-record-at-a-time principles hold by construction.
Preconditions reject lid gaps and prevHash mismatches before any byte is
written, and every append is flushed to stable storage before returning. A
record line must re-render byte-for-byte or loading reports it corrupt.
"""

from __future__ import annotations

import errno
import fcntl
import os
import re
from dataclasses import dataclass
from io import FileIO
from pathlib import Path

from .chain import HASH_ALGORITHM, ChainRecord, Ledger
from .encoding import Hash, canonical_encode_update, decode_line, decode_update
from .errors import (
    LockError,
    MalformedBatchError,
    StorageViolation,
    StorageViolationKind,
)
from .table import check_table_name, create_file, is_table_name

LEDGER_MAGIC = "CHAINTABLE-LEDGER"
LEDGER_VERSION = "v1"
ABSENT_PREV = "-"

_LID_RE = re.compile(r"^[1-9][0-9]*$")


def ledger_header_line(name: str) -> str:
    return f"{LEDGER_MAGIC} {LEDGER_VERSION} {name} {HASH_ALGORITHM}"


def parse_ledger_header(line: str) -> str:
    """Return the table name from a complete header line; refuses a name that
    writing would refuse."""
    prefix = f"{LEDGER_MAGIC} {LEDGER_VERSION} "
    suffix = f" {HASH_ALGORITHM}"
    # A line shorter than prefix + suffix slices to "", which is no name.
    name = line[len(prefix) : -len(suffix)]
    if not line.startswith(prefix) or not line.endswith(suffix) or not is_table_name(name):
        raise StorageViolation(
            StorageViolationKind.HEADER_MISMATCH,
            f"not a {LEDGER_MAGIC} {LEDGER_VERSION}/{HASH_ALGORITHM} header: {line!r}",
        )
    return name


def render_record(record: ChainRecord) -> str:
    prev = record.prev_hash.hex if record.prev_hash is not None else ABSENT_PREV
    update = canonical_encode_update(record.update).decode("utf-8")
    return f"{record.lid} {record.hash.hex} {prev} {update}"


def parse_record_line(line: str, lineno: int) -> ChainRecord:
    """Parse one record line; any deviation from the exact format is corrupt."""

    def corrupt(detail: str) -> StorageViolation:
        return StorageViolation(StorageViolationKind.CORRUPT_RECORD, detail, line=lineno)

    parts = line.split(" ", 3)
    if len(parts) != 4:
        raise corrupt("record line does not have 4 space-separated fields")
    lid_text, hash_text, prev_text, update_text = parts
    if not _LID_RE.match(lid_text):
        raise corrupt(f"bad lid field {lid_text!r}")
    try:
        lid = int(lid_text)  # ValueError past the interpreter's digit limit
        stored_hash = Hash.from_hex(hash_text)
        prev_hash = None if prev_text == ABSENT_PREV else Hash.from_hex(prev_text)
        update = decode_update(update_text)
    except (ValueError, MalformedBatchError) as exc:
        raise corrupt(str(exc)) from exc
    record = ChainRecord(lid, stored_hash, prev_hash, update)
    if render_record(record) != line:
        raise corrupt("record line is not in canonical form")
    return record


def _split_lines(raw: bytes) -> tuple[list[bytes], bytes]:
    """Split file bytes into complete lines and the unterminated tail."""
    pieces = raw.split(b"\n")
    return pieces[:-1], pieces[-1]


def _parse_file(raw: bytes, repair: bool) -> Ledger:
    lines, tail = _split_lines(raw)
    if not lines:
        # Nothing is newline-terminated yet: the header itself is partial.
        raise StorageViolation(
            StorageViolationKind.CORRUPT_RECORD,
            "empty file or incomplete header line",
            line=1,
        )
    name = parse_ledger_header(decode_line(lines[0], 1))
    records = [
        parse_record_line(decode_line(data, lineno), lineno)
        for lineno, data in enumerate(lines[1:], start=2)
    ]
    if tail and not repair:
        raise StorageViolation(
            StorageViolationKind.CORRUPT_RECORD,
            f"final line is a partial write ({len(tail)} bytes, no terminator)",
            line=len(lines) + 1,
        )
    return Ledger(records, name)


def load_ledger(path: str | os.PathLike[str], repair: bool = False) -> Ledger:
    """Load every stored record and the header's table name (one snapshot read).

    A chain-invalid ledger is still returned: detecting tampering is
    verify_chain's job, and tampered files must stay loadable. Malformed
    lines raise CORRUPT_RECORD with their line number; with repair=True a
    final unterminated (partially written) line is dropped instead.
    """
    return _parse_file(Path(path).read_bytes(), repair)


def read_ledger_header(path: str | os.PathLike[str]) -> str:
    """Return the table name recorded in the ledger file header."""
    with open(path, "rb") as fh:
        first = fh.readline()
    if not first.endswith(b"\n"):
        raise StorageViolation(
            StorageViolationKind.CORRUPT_RECORD,
            "empty file or incomplete header line",
            line=1,
        )
    return parse_ledger_header(decode_line(first[:-1], 1))


@dataclass
class LedgerFile:
    """Writer handle for one on-disk ledger.

    Holds the advisory writer lock for its lifetime; use as a context
    manager or call close(). Readers never need a handle; load_ledger reads
    a snapshot without locking. ledger holds every record in the file:
    parsed once by open, then extended by each append.
    """

    path: Path
    ledger: Ledger
    _fh: FileIO
    _size: int

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
            ledger = _parse_file(raw, repair)
            size = len(raw)
            _, tail = _split_lines(raw)
            if tail:
                size -= len(tail)
                os.ftruncate(fh.fileno(), size)
        except Exception:
            fh.close()
            raise
        return cls(path=path, ledger=ledger, _fh=fh, _size=size)

    def append(self, record: ChainRecord) -> None:
        """Append exactly one record at end-of-file, durable before return.

        Rejects, without writing a byte: anything that is not a single
        ChainRecord (MULTI_RECORD_WRITE), a lid that skips or repeats
        (LID_GAP), a prevHash that does not match the stored tip
        (PREV_HASH_MISMATCH), and any out-of-band change to the file since
        open (NON_APPEND_WRITE).
        """
        if isinstance(record, (list, tuple, Ledger)):
            raise StorageViolation(
                StorageViolationKind.MULTI_RECORD_WRITE,
                "only one record may be written at a time",
            )
        if not isinstance(record, ChainRecord):
            raise TypeError(f"expected a ChainRecord, got {type(record).__name__}")
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
