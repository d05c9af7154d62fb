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

from .encoding import _CONTROL, UpdateRecord, decode_line, decode_record, encode_record
from .errors import MalformedBatchError, StorageViolation, StorageViolationKind

DATA_MAGIC = "CHAINTABLE-DATA"
DATA_VERSION = "v1"


@dataclass(frozen=True)
class DataTable:
    """Ordered append-only row history of one protected table.

    The container itself does not police key uniqueness; the write path
    (ChainTableStore.append) does, so that a tampered or reconstructed
    history remains representable for comparison.
    """

    name: str
    rows: tuple[UpdateRecord, ...] = ()

    def keys(self) -> set[tuple[int, str]]:
        return {row.key for row in self.rows}

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ActualView:
    """Latest-per-opid projection of a row history, ordered by opid: each
    entry is the row that last wrote its opid (is_deletion marks a tombstone)."""

    entries: tuple[UpdateRecord, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)


def replay_rows(rows: Iterable[UpdateRecord]) -> ActualView:
    """Replay rows in order; the last row per opid defines its state."""
    latest: dict[int, UpdateRecord] = {}
    for row in rows:
        latest[row.opid] = row
    return ActualView(tuple(latest[opid] for opid in sorted(latest)))


# --- data file format ---------------------------------------------------


def _data_header_line(name: str) -> str:
    return f"{DATA_MAGIC} {DATA_VERSION} {name}"


def is_table_name(name: str) -> bool:
    """Table names go into both file headers: non-empty, no control characters."""
    return bool(name) and _CONTROL.search(name) is None


def check_table_name(name: str) -> None:
    if not is_table_name(name):
        raise ValueError(f"table name must be non-empty printable text: {name!r}")


def parse_data_header(line: str) -> str:
    """Return the table name from a data-file header line; refuses a name
    that writing would refuse."""
    prefix = f"{DATA_MAGIC} {DATA_VERSION} "
    if not line.startswith(prefix) or not is_table_name(line[len(prefix) :]):
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


def append_data_rows(path: str | os.PathLike[str], rows: Iterable[UpdateRecord]) -> None:
    """Append rows to an existing data file, durable before return."""
    payload = "".join(encode_record(row) + "\n" for row in rows)
    with open(path, "a", encoding="utf-8", newline="") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())


def read_data_file(path: str | os.PathLike[str]) -> tuple[str, list[UpdateRecord]]:
    """Read a data file; returns (table name, raw row history).

    Key uniqueness is deliberately not enforced here so that tampered files
    stay loadable for comparison.
    """
    raw = Path(path).read_bytes()
    if not raw or b"\n" not in raw:
        raise StorageViolation(
            StorageViolationKind.CORRUPT_RECORD, "missing or incomplete header line", line=1
        )
    lines = raw.split(b"\n")
    trailing = lines.pop()  # bytes after the final newline; must be empty
    name = parse_data_header(decode_line(lines[0], 1))
    rows: list[UpdateRecord] = []
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


def write_data_file(path: str | os.PathLike[str], name: str, rows: Iterable[UpdateRecord]) -> None:
    """Write a whole data file atomically (temp file + rename).

    The temp file is created exclusively under a fresh name beside path, so a
    planted symlink or a stale temp file is never written through.
    """
    check_table_name(name)
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(_data_header_line(name) + "\n")
            for row in rows:
                fh.write(encode_record(row) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
