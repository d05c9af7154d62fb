"""Append-only data table model and its on-disk rendering.

A DataTable holds the full row history (every insert, update, and delete is
an appended row); replay_rows projects it to the latest row per opid, where
a row whose description is null is a tombstone. The data file is one header line
``CHAINTABLE-DATA v1 <name>`` followed by one canonical record object per
line: a function of the ledger, which render_data_file renders byte for byte.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .encoding import _CONTROL, UpdateRecord, decode_line, decode_record, encode_record, render_batch
from .errors import MalformedBatchError, StorageViolation, StorageViolationKind

if TYPE_CHECKING:
    from .chain import Ledger

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


def replay_rows(rows: Iterable[UpdateRecord]) -> tuple[UpdateRecord, ...]:
    """Replay rows in order; the last row per opid defines its state. Returns
    those rows in opid order (is_deletion marks a tombstone)."""
    latest: dict[int, UpdateRecord] = {}
    for row in rows:
        latest[row.opid] = row
    return tuple(latest[opid] for opid in sorted(latest))


# --- data file format ---------------------------------------------------


def _data_header(name: str) -> bytes:
    return f"{DATA_MAGIC} {DATA_VERSION} {name}\n".encode("utf-8")


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


def render_data_file(ledger: Ledger) -> Iterator[bytes]:
    """The data file that a ledger read from disk determines, in chunks: the
    header line, then one chunk per batch."""
    yield _data_header(ledger.name)
    for record in ledger.records:
        yield render_batch(record.update)


def write_durably(file: str | os.PathLike[str] | int, chunks: Iterable[bytes], mode: str) -> None:
    """Write chunks to file (a path or a descriptor), on stable storage before return."""
    with open(file, mode) as fh:
        fh.writelines(chunks)
        fh.flush()
        os.fsync(fh.fileno())


def create_file(path: str | os.PathLike[str], data: bytes) -> None:
    """Create path holding data, its directory entry durable too; refuses to overwrite."""
    write_durably(path, [data], "xb")
    fsync_directory(Path(path))


def fsync_directory(path: Path) -> None:
    """Make a new or renamed directory entry for path durable."""
    fd = os.open(path.parent, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def create_data_file(path: str | os.PathLike[str], name: str) -> None:
    """Create an empty data file with its header; refuses to overwrite."""
    check_table_name(name)
    create_file(path, _data_header(name))


def append_data_rows(path: str | os.PathLike[str], data: bytes) -> None:
    """Append rendered rows (see render_batch) to a data file, durable before return."""
    write_durably(path, [data], "ab")


def read_data_file(path: str | os.PathLike[str]) -> tuple[str, list[UpdateRecord]]:
    """Read a data file; returns (table name, raw row history).

    A row that does not re-render byte for byte is CORRUPT_RECORD. Key
    uniqueness is not enforced, so tampered files stay loadable for comparison.
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
        text = decode_line(line, lineno)
        try:
            rows.append(decode_record(text))
            if encode_record(rows[-1]) != text:
                raise MalformedBatchError("row is not in canonical form")
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


def replace_file(path: str | os.PathLike[str], chunks: Iterable[bytes]) -> None:
    """Write a whole file atomically (temp file, rename, directory fsync).

    The temp file is created exclusively under a fresh name beside path, so a
    planted symlink or a stale temp file is never written through.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        write_durably(fd, chunks, "wb")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_directory(path)


def write_data_file(path: str | os.PathLike[str], name: str, rows: Iterable[UpdateRecord]) -> None:
    """Write a data file holding rows, atomically (see replace_file)."""
    check_table_name(name)
    lines = ((encode_record(row) + "\n").encode("utf-8") for row in rows)
    replace_file(path, itertools.chain([_data_header(name)], lines))
