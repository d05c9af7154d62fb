"""Coupled durable store: one data file and one ledger file in lockstep.

The ledger is the source of truth and the store's only history; beside it
the store keeps just the set of (opid, timestamp) keys written. Writes go
ledger-first, data file second; if the process dies between the two, open()
finds the data file to be a byte prefix (even empty) of the file the ledger
renders and appends the missing bytes before accepting new writes. The two
paths are independent so the ledger can live on separate, better-guarded
storage than the table it protects.
"""

from __future__ import annotations

import os
from pathlib import Path

from .chain import ChainRecord, Ledger, append_batch, reconstruct
from .encoding import UpdateBatch, render_batch
from .errors import (
    DuplicateKeyError,
    StorageFailureError,
    StoreInconsistentError,
    StoreMismatchError,
)
from .storage import LedgerFile
from .table import DataTable, append_data_rows, create_data_file, read_data_file, render_data_file


class ChainTableStore:
    """Single-writer handle over a (data file, ledger file) pair."""

    def __init__(
        self,
        ledger_file: LedgerFile,
        keys: set[tuple[int, str]],
        table_path: Path,
    ) -> None:
        self._ledger_file = ledger_file
        # A working copy: append_batch grows it before the file commits.
        self._ledger = ledger_file.ledger.copy()
        self._keys = keys
        self._table_path = table_path
        self._broken = False

    @classmethod
    def create(
        cls,
        ledger_path: str | os.PathLike[str],
        table_path: str | os.PathLike[str],
        name: str,
    ) -> "ChainTableStore":
        """Create both files fresh; refuses to overwrite either."""
        ledger_path, table_path = Path(ledger_path), Path(table_path)
        if table_path.exists():
            raise FileExistsError(f"data file already exists: {table_path}")
        ledger_file = LedgerFile.create(ledger_path, name)
        try:
            create_data_file(table_path, name)
        except Exception:
            ledger_file.close()
            ledger_path.unlink(missing_ok=True)
            raise
        return cls(ledger_file, set(), table_path)

    @classmethod
    def open(
        cls,
        ledger_path: str | os.PathLike[str],
        table_path: str | os.PathLike[str],
        repair: bool = False,
    ) -> "ChainTableStore":
        """Open for writing: verify the chain, then reconcile the data file.

        The ledger is read and parsed once, by LedgerFile.open, and verified
        once, by reconstruct; an invalid chain raises InvalidLedgerError.

        A data file holding a byte prefix of the file the ledger renders (an
        interrupted create or coupled write, torn anywhere, even empty) is
        completed with the missing bytes. Anything else refuses to open; run
        the verification commands instead of appending to a tampered store.
        """
        table_path = Path(table_path)
        ledger_file = LedgerFile.open(ledger_path, repair=repair)
        try:
            keys = {row.key for row in reconstruct(ledger_file.ledger).rows}
            expected = b"".join(render_data_file(ledger_file.ledger))
            found = table_path.read_bytes()
            if not expected.startswith(found):
                table_name, _ = read_data_file(table_path)
                if table_name != ledger_file.ledger.name:
                    raise StoreMismatchError(
                        f"data file is for table {table_name!r} but ledger is for "
                        f"{ledger_file.ledger.name!r}"
                    )
                raise StoreInconsistentError(
                    "data file content is not a prefix of the ledger history; "
                    "verify and reconstruct instead of appending"
                )
            if len(found) < len(expected):
                append_data_rows(table_path, expected[len(found) :])
        except Exception:
            ledger_file.close()
            raise
        return cls(ledger_file, keys, table_path)

    @property
    def ledger(self) -> Ledger:
        return self._ledger

    @property
    def table(self) -> DataTable:
        """The row history, derived from the ledger on each read."""
        rows = tuple(row for record in self._ledger.records for row in record.update)
        return DataTable(self.name, rows)

    @property
    def name(self) -> str:
        return self._ledger.name  # type: ignore[return-value]

    def append(self, batch: UpdateBatch) -> ChainRecord:
        """Durably apply one batch to ledger then table; returns the record."""
        if self._broken:
            raise StorageFailureError(
                "a previous append failed after the ledger committed; reopen "
                "the store to reconcile before writing again"
            )
        clashes = [record.key for record in batch if record.key in self._keys]
        if clashes:
            raise DuplicateKeyError(f"(opid, timestamp) already present in table: {clashes}")
        record = append_batch(self._ledger, batch)
        try:
            self._ledger_file.append(record)
        except Exception:
            self._ledger.records.pop()  # nothing durable happened
            raise
        self._keys.update(row.key for row in batch)
        try:
            append_data_rows(self._table_path, render_batch(batch))
        except Exception as exc:
            self._broken = True
            raise StorageFailureError(
                f"ledger record {record.lid} committed but the data file write "
                f"failed; reopening will replay it ({exc})"
            ) from exc
        return record

    def close(self) -> None:
        self._ledger_file.close()

    def __enter__(self) -> "ChainTableStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
