"""Exception types shared across the package.

Plain I/O problems raise the builtin OSError family (FileExistsError,
FileNotFoundError, ...); everything domain-specific derives from
ChainTableError so callers can catch one base.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .chain import FailureKind


class ChainTableError(Exception):
    """Base class for all chain-table domain errors."""


class MalformedBatchError(ChainTableError):
    """An update batch or record violates its structural invariants."""


class InvalidLedgerError(ChainTableError):
    """The ledger fails chain verification: lid is the first failing record,
    kind says which check it failed."""

    def __init__(self, lid: int, kind: "FailureKind") -> None:
        self.lid = lid
        self.kind = kind
        super().__init__(f"ledger fails verification at lid {lid} ({kind.name})")


class DuplicateKeyError(ChainTableError):
    """A (opid, timestamp) primary key is not unique."""


class StorageFailureError(ChainTableError):
    """A coupled table+ledger write failed partway; see message for state."""


class LidOutOfRangeError(ChainTableError):
    """A lid argument does not name an existing chain record."""


class LockError(ChainTableError):
    """The ledger file's writer lock is held by another process."""


class StoreMismatchError(ChainTableError):
    """Ledger and data file headers disagree (wrong table supplied)."""


class StoreInconsistentError(ChainTableError):
    """Data file content is not a prefix of the ledger's row history."""


class StorageViolationKind(enum.Enum):
    NON_APPEND_WRITE = "NON_APPEND_WRITE"
    MULTI_RECORD_WRITE = "MULTI_RECORD_WRITE"
    LID_GAP = "LID_GAP"
    PREV_HASH_MISMATCH = "PREV_HASH_MISMATCH"
    CORRUPT_RECORD = "CORRUPT_RECORD"
    HEADER_MISMATCH = "HEADER_MISMATCH"


class StorageViolation(ChainTableError):
    """A write-principle or on-disk integrity rule was violated.

    kind states which rule; line is the 1-based file line for
    CORRUPT_RECORD, None otherwise.
    """

    def __init__(self, kind: StorageViolationKind, detail: str, line: int | None = None) -> None:
        self.kind = kind
        self.detail = detail
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{kind.value}{where}: {detail}")
