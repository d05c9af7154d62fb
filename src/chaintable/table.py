"""Append-only data table model and its on-disk rendering.

A DataTable holds the full row history (every insert, update, and delete is
an appended row); ActualView is its latest-per-opid projection, where a row
whose description is null is a tombstone. The data file is one header line
``CHAINTABLE-DATA v1 <name>`` followed by one canonical record object per
line.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .encoding import UpdateRecord, _is_control, decode_line, decode_record, encode_record
from .errors import (
    DuplicateKeyError,
    MalformedBatchError,
    StorageViolation,
    StorageViolationKind,
)

# A data-table row and an update record are the same shape by design.
DataRow = UpdateRecord

DATA_MAGIC = "CHAINTABLE-DATA"
DATA_VERSION = "v1"


@dataclass(frozen=True)
class DataTable:
    """Ordered append-only row history of one protected table.

    The container itself does not police key uniqueness; the write paths
    (ChainTableStore.append, import_history) do, so that a tampered or
    reconstructed history remains representable for comparison.
    """

    name: str
    rows: tuple[DataRow, ...] = ()

    def keys(self) -> set[tuple[int, str]]:
        return {row.key for row in self.rows}

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ViewEntry:
    """Latest state of one opid after replay."""

    opid: int
    timestamp: str
    description: str | None

    @property
    def deleted(self) -> bool:
        return self.description is None


@dataclass(frozen=True)
class ActualView:
    """Latest-per-opid projection of a row history, ordered by opid."""

    entries: tuple[ViewEntry, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)


def replay_rows(rows: Iterable[DataRow]) -> ActualView:
    """Replay rows in order; the last row per opid defines its state."""
    latest: dict[int, DataRow] = {}
    for row in rows:
        latest[row.opid] = row
    entries = tuple(
        ViewEntry(opid, latest[opid].timestamp, latest[opid].description)
        for opid in sorted(latest)
    )
    return ActualView(entries)


def actual_view(table: DataTable) -> ActualView:
    """Current ("actual") content of the table: append order wins per opid."""
    return replay_rows(table.rows)


def import_history(rows: Iterable[DataRow], name: str = "imported") -> DataTable:
    """Build a DataTable from an existing row history, checking key uniqueness.

    Raises DuplicateKeyError listing every offending 1-based position pair;
    duplicates are reported, never silently dropped.
    """
    rows = tuple(rows)
    first_seen: dict[tuple[int, str], int] = {}
    clashes: list[tuple[int, int]] = []
    for position, row in enumerate(rows, start=1):
        if not isinstance(row, UpdateRecord):
            raise MalformedBatchError(f"not a data row: {row!r}")
        if row.key in first_seen:
            clashes.append((first_seen[row.key], position))
        else:
            first_seen[row.key] = position
    if clashes:
        raise DuplicateKeyError(
            f"duplicate (opid, timestamp) keys at positions {clashes}", tuple(clashes)
        )
    return DataTable(name=name, rows=rows)


# --- data file format ---------------------------------------------------


def _data_header_line(name: str) -> str:
    return f"{DATA_MAGIC} {DATA_VERSION} {name}"


def check_table_name(name: str) -> None:
    """Table names go into both file headers: non-empty, no control characters."""
    if not name or any(_is_control(ch) for ch in name):
        raise ValueError(f"table name must be non-empty printable text: {name!r}")


def parse_data_header(line: str) -> str:
    """Return the table name from a data-file header line."""
    prefix = f"{DATA_MAGIC} {DATA_VERSION} "
    if not line.startswith(prefix) or len(line) == len(prefix):
        raise StorageViolation(
            StorageViolationKind.HEADER_MISMATCH,
            f"not a {DATA_MAGIC} {DATA_VERSION} header: {line!r}",
        )
    return line[len(prefix) :]


def create_data_file(path: str | os.PathLike[str], name: str) -> None:
    """Create an empty data file with its header; refuses to overwrite."""
    check_table_name(name)
    path = Path(path)
    with open(path, "x", encoding="utf-8") as fh:
        fh.write(_data_header_line(name) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def append_data_rows(path: str | os.PathLike[str], rows: Iterable[DataRow]) -> None:
    """Append rows to an existing data file, durable before return."""
    payload = "".join(encode_record(row) + "\n" for row in rows)
    with open(path, "a", encoding="utf-8", newline="") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())


def read_data_file(path: str | os.PathLike[str]) -> tuple[str, list[DataRow]]:
    """Read a data file; returns (table name, raw row history).

    Key uniqueness is deliberately not enforced here so that tampered files
    stay loadable for comparison; run import_history on the rows when a
    checked table is wanted.
    """
    raw = Path(path).read_bytes()
    if not raw or b"\n" not in raw:
        raise StorageViolation(
            StorageViolationKind.CORRUPT_RECORD, "missing or incomplete header line", line=1
        )
    lines = raw.split(b"\n")
    trailing = lines.pop()  # bytes after the final newline; must be empty
    name = parse_data_header(decode_line(lines[0], 1))
    rows: list[DataRow] = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rows.append(decode_record(decode_line(line, lineno)))
        except MalformedBatchError as exc:
            raise StorageViolation(
                StorageViolationKind.CORRUPT_RECORD, str(exc), line=lineno
            ) from exc
    if trailing:
        raise StorageViolation(
            StorageViolationKind.CORRUPT_RECORD,
            "final line is not newline-terminated",
            line=len(lines) + 1,
        )
    return name, rows


def write_data_file(path: str | os.PathLike[str], name: str, rows: Iterable[DataRow]) -> None:
    """Write a whole data file atomically (temp file + rename)."""
    check_table_name(name)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(_data_header_line(name) + "\n")
        for row in rows:
            fh.write(encode_record(row) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
