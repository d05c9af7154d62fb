"""Append-only data table model and its on-disk rendering.

A DataTable holds the full row history (every insert, update, and delete is
an appended row); replay_rows projects it to the latest row per opid, where
a row whose description is null is a tombstone. The data file is one header line
``CHAINTABLE-DATA v1 <name>`` followed by one canonical record object per
line: a function of the ledger, which render_data_file renders byte for byte.
Both stored files, this one and the ledger, are read by one line splitter
(stored_lines) and one header rule (parse_header).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .encoding import _CONTROL, UpdateRecord, decode_record, encode_record, render_batch
from .errors import MalformedBatchError, StorageViolation, StorageViolationKind, StoreMismatchError

DATA_MAGIC = "CHAINTABLE-DATA"
DATA_VERSION = "v1"
_DATA_PREFIX = f"{DATA_MAGIC} {DATA_VERSION} "


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
    return f"{_DATA_PREFIX}{name}\n".encode("utf-8")


def is_table_name(name: str) -> bool:
    """Table names go into both file headers: non-empty, no control characters."""
    return bool(name) and _CONTROL.search(name) is None


def check_table_name(name: str) -> None:
    if not is_table_name(name):
        raise ValueError(f"table name must be non-empty printable text: {name!r}")


def parse_header(line: str, prefix: str, suffix: str = "") -> str:
    """Return the table name from a header line, prefix + name + suffix;
    refuses a name that writing would refuse."""
    # A line shorter than prefix + suffix slices to "", which is no name.
    name = line[len(prefix) : len(line) - len(suffix)]
    if not line.startswith(prefix) or not line.endswith(suffix) or not is_table_name(name):
        raise StorageViolation(
            StorageViolationKind.HEADER_MISMATCH, f"not a {prefix}<name>{suffix} header: {line!r}"
        )
    return name


def stored_lines(raw: bytes, repair: bool = False) -> Iterator[tuple[int, str, bytes]]:
    """Split a stored file into (line number, text, bytes), the header as line 1.

    A file with no complete line is CORRUPT_RECORD at line 1. An unterminated
    tail after the last complete line is CORRUPT_RECORD, or skipped with
    repair; it is checked only after every complete line has been taken, so
    a corrupt line ahead of it is the one reported.
    """
    *lines, tail = raw.split(b"\n")  # tail: bytes after the last line break
    if not lines:
        raise StorageViolation(
            StorageViolationKind.CORRUPT_RECORD, "empty file or incomplete header line", line=1
        )
    for lineno, data in enumerate(lines, start=1):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StorageViolation(
                StorageViolationKind.CORRUPT_RECORD, f"undecodable bytes: {exc}", line=lineno
            ) from exc
        yield lineno, text, data
    if tail and not repair:
        raise StorageViolation(
            StorageViolationKind.CORRUPT_RECORD,
            f"final line is a partial write ({len(tail)} bytes, no terminator)",
            line=len(lines) + 1,
        )


def render_data_file(name: str, updates: Iterable[bytes]) -> Iterator[bytes]:
    """The data file that a ledger's table name and update bytes determine, in
    chunks: the header line, then one chunk per batch."""
    yield _data_header(name)
    yield from map(render_batch, updates)


def data_file_tail(path: str | os.PathLike[str], name: str, updates: Iterable[bytes]) -> bytes | None:
    """The bytes the data file at path lacks of render_data_file(name, updates),
    compared one batch at a time: b"" if it holds exactly that rendering, None
    if it is not a byte prefix of it."""
    data, end = Path(path).read_bytes(), 0
    chunks = render_data_file(name, updates)
    for chunk in chunks:
        if not data.startswith(chunk, end):
            rest = data[end:]
            return chunk[len(rest) :] + b"".join(chunks) if chunk.startswith(rest) else None
        end += len(chunk)
    return b"" if end == len(data) else None


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

    A row that is not in canonical form (decode_record checks it with the
    pattern that decides a stored update's rows) is CORRUPT_RECORD. Key
    uniqueness is not enforced, so tampered files stay loadable for comparison.
    """
    lines = stored_lines(Path(path).read_bytes())
    name = parse_header(next(lines)[1], _DATA_PREFIX)
    rows: list[UpdateRecord] = []
    for lineno, text, _ in lines:
        try:
            rows.append(decode_record(text))
        except MalformedBatchError as exc:
            raise StorageViolation(
                StorageViolationKind.CORRUPT_RECORD, str(exc), line=lineno
            ) from exc
    return name, rows


def read_table_rows(path: str | os.PathLike[str], name: str | None) -> list[UpdateRecord]:
    """Read the rows of a data file that must be table name's (StoreMismatchError if not)."""
    found, rows = read_data_file(path)
    if found != name:
        raise StoreMismatchError(f"data file is for table {found!r} but ledger is for {name!r}")
    return rows


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
