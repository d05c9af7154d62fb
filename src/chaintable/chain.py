"""Hash-chained ledger core: hashing, append, verification, replay.

Every chain record stores (lid, hash, prevHash, update). The record hash is a
double SHA-256 over the preimage

    ascii-decimal lid | canonical update bytes | prevHash hex

with 0x7C ("|") separators and an empty third segment for the genesis record,
whose prevHash is absent. The inner digest's raw 32 bytes feed the outer
SHA-256, matching the usual double-SHA convention. Tampering any stored field
of record k breaks recomputation at k or linkage at k+1, so restoring a
verifiable chain forces rewriting every hash from k to the end.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from .encoding import Hash, UpdateBatch, UpdateRecord, canonical_encode_update
from .errors import InvalidLedgerError, MalformedBatchError
from .table import DataTable, replay_rows

HASH_ALGORITHM = "double-sha256-v1"

_SEPARATOR = b"\x7c"


class FailureKind(enum.Enum):
    HASH_MISMATCH = "HASH_MISMATCH"
    LINK_BREAK = "LINK_BREAK"
    LID_GAP = "LID_GAP"
    GENESIS_VIOLATION = "GENESIS_VIOLATION"


@dataclass(frozen=True)
class ChainRecord:
    """One ledger row. prev_hash is None only for the genesis record."""

    lid: int
    hash: Hash
    prev_hash: Hash | None
    update: UpdateBatch

    def __post_init__(self) -> None:
        if not isinstance(self.lid, int) or isinstance(self.lid, bool) or self.lid < 1:
            raise MalformedBatchError(f"lid must be a positive integer, got {self.lid!r}")


@dataclass
class Ledger:
    """Ordered chain records with contiguous lids 1..n.

    Records are immutable; only the container grows, and only via
    append_batch or LedgerFile.append. Construction does not re-verify so
    that tampered ledgers remain representable; verify_chain is the
    integrity check. name is the table name from the file header of a
    ledger read from disk, None for a ledger built in memory.
    """

    records: list[ChainRecord] = field(default_factory=list)
    name: str | None = None

    def __len__(self) -> int:
        return len(self.records)

    @property
    def tip_hash(self) -> Hash | None:
        return self.records[-1].hash if self.records else None

    def copy(self) -> "Ledger":
        return Ledger(list(self.records), self.name)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a chain scan; valid iff no record failed."""

    valid: bool
    first_invalid_lid: int | None = None
    failure_kind: FailureKind | None = None


@dataclass(frozen=True)
class Divergence:
    """One row-level disagreement between ledger history and a table."""

    position: int  # 1-based row position
    opid: int | None
    expected: UpdateRecord | None  # what the ledger says; None = extra row in table
    found: UpdateRecord | None  # what the table holds; None = row missing


def compute_hash(lid: int, update: UpdateBatch, prev_hash: Hash | None) -> Hash:
    """Double SHA-256 of the record preimage (see module docstring)."""
    if not isinstance(lid, int) or isinstance(lid, bool) or lid < 1:
        raise MalformedBatchError(f"lid must be a positive integer, got {lid!r}")
    preimage = (
        str(lid).encode("ascii")
        + _SEPARATOR
        + canonical_encode_update(update)
        + _SEPARATOR
        + (prev_hash.hex.encode("ascii") if prev_hash is not None else b"")
    )
    inner = hashlib.sha256(preimage).digest()
    return Hash(hashlib.sha256(inner).digest())


def verify_chain(ledger: Ledger) -> VerificationReport:
    """Scan the chain in order and report the first failing record.

    Checks per record, in order: lid contiguity, genesis rule (prevHash
    absent iff lid 1), linkage to the previous stored hash, and recomputation
    of the stored hash. Never modifies the ledger; an empty chain is valid.
    """

    def invalid(lid: int, kind: FailureKind) -> VerificationReport:
        return VerificationReport(valid=False, first_invalid_lid=lid, failure_kind=kind)

    for index, record in enumerate(ledger.records):
        expected_lid = index + 1
        if record.lid != expected_lid:
            return invalid(expected_lid, FailureKind.LID_GAP)
        if (record.prev_hash is None) != (record.lid == 1):
            return invalid(record.lid, FailureKind.GENESIS_VIOLATION)
        if index > 0 and record.prev_hash != ledger.records[index - 1].hash:
            return invalid(record.lid, FailureKind.LINK_BREAK)
        if compute_hash(record.lid, record.update, record.prev_hash) != record.hash:
            return invalid(record.lid, FailureKind.HASH_MISMATCH)
    return VerificationReport(valid=True)


def _require_valid(ledger: Ledger) -> None:
    report = verify_chain(ledger)
    if not report.valid:
        raise InvalidLedgerError(report)


def append_batch(ledger: Ledger, batch: UpdateBatch) -> ChainRecord:
    """Append exactly one chain record carrying batch; returns the record.

    Refuses to extend a ledger that fails verification. Existing records are
    never touched.
    """
    if not isinstance(batch, UpdateBatch):
        raise MalformedBatchError(f"not an update batch: {batch!r}")
    _require_valid(ledger)
    lid = len(ledger.records) + 1
    prev_hash = ledger.tip_hash
    record = ChainRecord(
        lid=lid,
        hash=compute_hash(lid, batch, prev_hash),
        prev_hash=prev_hash,
        update=batch,
    )
    ledger.records.append(record)
    return record


def reconstruct(ledger: Ledger) -> DataTable:
    """Rebuild the full append-only row history from a valid ledger."""
    _require_valid(ledger)
    rows: list[UpdateRecord] = []
    for record in ledger.records:
        rows.extend(record.update.records)
    return DataTable(name="reconstructed", rows=tuple(rows))


def materialize(ledger: Ledger) -> tuple[UpdateRecord, ...]:
    """Replay a valid ledger into the current per-opid state, in opid order.

    The last-replayed record per opid wins (lid order, then within-batch
    order); a null description stays visible as a tombstone.
    """
    return replay_rows(reconstruct(ledger).rows)


def compare_rows(
    expected_rows: Sequence[UpdateRecord], found_rows: Sequence[UpdateRecord]
) -> tuple[Divergence, ...]:
    """Compare a ledger's row history against a table's rows, position by position.

    Every positional disagreement is reported, including rows missing from
    the table and extra rows beyond the ledger history; none means consistent.
    """
    divergences: list[Divergence] = []
    for index in range(max(len(expected_rows), len(found_rows))):
        expected = expected_rows[index] if index < len(expected_rows) else None
        found = found_rows[index] if index < len(found_rows) else None
        if expected != found:
            opid = expected.opid if expected is not None else found.opid  # type: ignore[union-attr]
            divergences.append(
                Divergence(position=index + 1, opid=opid, expected=expected, found=found)
            )
    return tuple(divergences)


def verify_against_table(ledger: Ledger, table: DataTable) -> tuple[Divergence, ...]:
    """Verify the chain once (raising InvalidLedgerError if it is broken), then
    compare its reconstructed history against table with compare_rows."""
    return compare_rows(reconstruct(ledger).rows, table.rows)
