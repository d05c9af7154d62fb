"""Coupled durable store: one data file and one ledger file in lockstep.

The ledger is the source of truth and the store's only history: its
LedgerFile's one in-memory Ledger of records as the file stores them, grown
only by durable appends. Beside it the store keeps just the set of key texts
written (encoding.key_texts). Writes go ledger-first, data file second; if
the process dies between the two, open() finds the data file to be a byte
prefix (even empty) of the file the ledger renders and appends the missing
bytes before accepting new writes. The two paths are independent so the
ledger can live on separate, better-guarded storage than the table it
protects.
"""

from __future__ import annotations

import os
from pathlib import Path

from .chain import ChainRecord, Ledger, seal, verify_chain
from .encoding import UpdateBatch, decode_history, key_texts, render_batch
from .errors import DuplicateKeyError, StorageFailureError, StoreInconsistentError
from .storage import LedgerFile
from .table import DataTable, append_data_rows, create_data_file, read_table_rows, render_data_file


class ChainTableStore:
    """Single-writer handle over a (data file, ledger file) pair."""

    def __init__(
        self,
        ledger_file: LedgerFile,
        keys: set[bytes],
        table_path: Path,
    ) -> None:
        self._ledger_file = ledger_file
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

        The ledger is parsed once, by LedgerFile.open, and verified once (an
        invalid chain raises InvalidLedgerError); keys come from update bytes.

        A data file holding a byte prefix of the file the ledger renders (an
        interrupted create or coupled write, torn anywhere, even empty) is
        completed with the missing bytes. Anything else refuses to open; run
        the verification commands instead of appending to a tampered store.
        """
        table_path = Path(table_path)
        ledger_file = LedgerFile.open(ledger_path, repair=repair)
        try:
            ledger = ledger_file.ledger
            verify_chain(ledger)
            keys = {key for record in ledger.records for key in key_texts(record.update)}
            updates = (record.update for record in ledger.records)
            expected = b"".join(render_data_file(ledger.name, updates))  # type: ignore[arg-type]
            found = table_path.read_bytes()
            if not expected.startswith(found):
                read_table_rows(table_path, ledger.name)
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
        """The verified history; callers must not mutate it."""
        return self._ledger_file.ledger

    @property
    def table(self) -> DataTable:
        """The row history, derived from the ledger on each read."""
        return DataTable(self.name, decode_history(r.update for r in self.ledger.records))

    @property
    def name(self) -> str:
        return self.ledger.name  # type: ignore[return-value]

    def append(self, batch: UpdateBatch) -> ChainRecord:
        """Durably apply one batch to ledger then table; returns the record.
        One hash and two fsyncs at any history length: open verified the
        chain, and only LedgerFile.append grows it, after its checks."""
        if self._broken:
            raise StorageFailureError(
                "a previous append failed after the ledger committed; reopen "
                "the store to reconcile before writing again"
            )
        keys = batch.keys()
        if not self._keys.isdisjoint(keys):
            clashes = [row.key for row, key in zip(batch, keys) if key in self._keys]
            raise DuplicateKeyError(f"(opid, timestamp) already present in table: {clashes}")
        record = seal(self.ledger, batch)
        self._ledger_file.append(record)
        self._keys.update(keys)
        try:
            append_data_rows(self._table_path, render_batch(record.update))
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
