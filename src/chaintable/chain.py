"""Hash-chained ledger core: hashing, append, verification, replay.

Every chain record stores (lid, hash, prevHash, update). The record hash is a
double SHA-256 over the preimage

    ascii-decimal lid | canonical update bytes | prevHash hex

with 0x7C ("|") separators and an empty third segment for the genesis record,
whose prevHash is absent. The inner digest's raw 32 bytes feed the outer
SHA-256, matching the usual double-SHA convention. A hash is carried as the
text it is stored and printed as, 64 lowercase hex characters. Tampering any
stored field of record k breaks recomputation at k or linkage at k+1, so
restoring a verifiable chain forces rewriting every hash from k to the end.
A broken chain is one outcome, InvalidLedgerError, naming the lid and check.
A record is the tuple of its stored line's four fields, the update as its
canonical bytes: the line's own, as the reader (storage.parse_record_line)
builds it, or the UpdateBatch that is those bytes, as seal builds it.
"""

from __future__ import annotations

import enum
import hashlib
from typing import Iterable, NamedTuple, Sequence

from .encoding import (
    UpdateBatch,
    UpdateRecord,
    canonical_encode_update,
    decode_history,
    decode_rows,
    row_texts,
)
from .errors import InvalidLedgerError, MalformedBatchError
from .table import DataTable

HASH_ALGORITHM = "double-sha256-v1"

_SEPARATOR = b"\x7c"


class FailureKind(enum.Enum):
    HASH_MISMATCH = "HASH_MISMATCH"
    LINK_BREAK = "LINK_BREAK"
    LID_GAP = "LID_GAP"
    GENESIS_VIOLATION = "GENESIS_VIOLATION"


class ChainRecord(NamedTuple):
    """One ledger row as stored; hashes are hex text, prev_hash is None only
    for the genesis record, and update is the canonical update bytes, or the
    UpdateBatch that is them (rows come from reconstruct, materialize or .records)."""

    lid: int
    hash: str
    prev_hash: str | None
    update: bytes


def check_lid(lid: object) -> None:
    """Refuse a lid that is not a positive int (a bool is not a lid)."""
    if not isinstance(lid, int) or isinstance(lid, bool) or lid < 1:
        raise MalformedBatchError(f"lid must be a positive integer, got {lid!r}")


class Ledger:
    """Ordered chain records with contiguous lids 1..n.

    Records are immutable; only the container grows, and only via
    append_batch or LedgerFile.append; seal computes a record and appends
    none. Construction does not re-verify so that tampered ledgers remain
    representable; verify_chain is the integrity check. name is the table
    name from the file header of a ledger read from disk, None for a ledger
    built in memory.
    """

    def __init__(self, records: list[ChainRecord] | None = None, name: str | None = None) -> None:
        self.records, self.name = ([] if records is None else records), name

    def __len__(self) -> int:
        return len(self.records)

    @property
    def tip_hash(self) -> str | None:
        return self.records[-1].hash if self.records else None


class Divergence(NamedTuple):
    """One row-level disagreement between ledger history and a table."""

    position: int  # 1-based row position
    opid: int | None
    expected: UpdateRecord | None  # what the ledger says; None = extra row in table
    found: UpdateRecord | None  # what the table holds; None = row missing


def compute_hash(lid: int, update: bytes, prev_hash: str | None) -> str:
    """Double SHA-256 of the record preimage (see module docstring); update is
    the canonical bytes, an UpdateBatch among them."""
    check_lid(lid)
    prev = b"" if prev_hash is None else prev_hash.encode("ascii")
    preimage = _SEPARATOR.join((str(lid).encode("ascii"), update, prev))
    return hashlib.sha256(hashlib.sha256(preimage).digest()).hexdigest()


def verify_chain(ledger: Ledger) -> None:
    """Scan the records in order; raise InvalidLedgerError at the first
    failing one, return None if every one passes. Never modifies the ledger.

    Checks per record, in order: lid contiguity, genesis rule (prevHash
    absent iff lid 1), linkage to the previous stored hash, and recomputation
    of the stored hash. An empty chain is valid. A record whose update is not
    bytes is refused (MalformedBatchError); a batch is its bytes.
    """
    tip = None
    for expected_lid, (lid, stored_hash, prev_hash, update) in enumerate(ledger.records, start=1):
        if not isinstance(update, bytes):
            raise MalformedBatchError(f"record {lid} update is not bytes: {type(update).__name__}")
        if lid != expected_lid:
            raise InvalidLedgerError(expected_lid, FailureKind.LID_GAP)
        if (prev_hash is None) != (lid == 1):
            raise InvalidLedgerError(lid, FailureKind.GENESIS_VIOLATION)
        if prev_hash != tip:  # lid 1's None is tip's None
            raise InvalidLedgerError(lid, FailureKind.LINK_BREAK)
        if compute_hash(lid, update, prev_hash) != stored_hash:
            raise InvalidLedgerError(lid, FailureKind.HASH_MISMATCH)
        tip = stored_hash


def seal(ledger: Ledger, batch: UpdateBatch) -> ChainRecord:
    """Return the record that carries batch after the ledger's tip; the
    ledger is left unchanged and is not verified (append_batch verifies it)."""
    update = canonical_encode_update(batch)  # the batch itself; refuses anything else
    lid = len(ledger.records) + 1
    prev_hash = ledger.tip_hash
    return ChainRecord(lid, compute_hash(lid, update, prev_hash), prev_hash, update)


def append_batch(ledger: Ledger, batch: UpdateBatch) -> ChainRecord:
    """Append exactly one chain record carrying batch; returns the record.

    Refuses to extend a ledger that fails verification. Existing records are
    never touched.
    """
    verify_chain(ledger)
    record = seal(ledger, batch)
    ledger.records.append(record)
    return record


def reconstruct(ledger: Ledger) -> DataTable:
    """Rebuild the full append-only row history from a valid ledger."""
    verify_chain(ledger)
    return DataTable(name="reconstructed", rows=decode_history(r.update for r in ledger.records))


def materialize_rows(updates: Iterable[bytes]) -> list[bytes]:
    """The last row text per opid of a verified chain's updates (lid, then batch order), by opid."""
    last = {int(row[: row.index(b",")]): row for update in updates for row in row_texts(update)}
    return [last[opid] for opid in sorted(last)]


def materialize(ledger: Ledger) -> tuple[UpdateRecord, ...]:
    """The current per-opid state of a ledger, verified once: the rows of
    materialize_rows, decoded, and only those. A null description stays
    visible as a tombstone."""
    verify_chain(ledger)
    return decode_rows(materialize_rows(r.update for r in ledger.records))


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
