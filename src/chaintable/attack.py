"""Adversary simulation: raw-byte tampering of stored ledgers.

Deliberately unsafe. Nothing here goes through the guarded write path; these
helpers rewrite file bytes directly, which is exactly what the threat being
defended against does. They exist so tests and demos can measure that every
such mutation is caught, either by chain verification or, when an adversary
re-hashes a whole suffix, by comparison against the honest table history.
Never run them against a file a live writer holds open.
"""

from __future__ import annotations

import os

from .chain import ChainRecord, Ledger, compute_hash
from .encoding import UpdateBatch, UpdateRecord, decode_rows, row_texts
from .errors import LidOutOfRangeError, StorageViolation
from .storage import ledger_header_line, load_ledger, render_record
from .table import write_durably


def _read_ledger(path: str | os.PathLike[str]) -> Ledger:
    """Parse strictly, so re-rendering a record gives back its exact bytes."""
    try:
        return load_ledger(path)
    except StorageViolation as exc:
        raise ValueError(f"{path} is not a well-formed ledger ({exc}); repair it first") from exc


def overwrite_ledger(path: str | os.PathLike[str], ledger: Ledger) -> None:
    """Replace the file's bytes with ledger's rendering, outside the write guards."""
    lines = [ledger_header_line(ledger.name), *map(render_record, ledger.records)]
    write_durably(path, [(line + "\n").encode("utf-8") for line in lines], "wb")


def forge(
    ledger: Ledger,
    lid: int,
    record_index: int,
    new_description: str | None,
    rewrite_through: int | None = None,
) -> Ledger:
    """A tampered copy of ledger: one description at lid replaced, then the
    stored hash and prevHash recomputed for lids lid..rewrite_through.

    rewrite_through None is the in-place edit (an empty re-hash range). This
    is the one re-hash loop behind every attack helper and the tamper
    command. Only the edited batch is decoded.
    """
    n = len(ledger.records)
    if rewrite_through is None:
        if not 1 <= lid <= n:
            raise LidOutOfRangeError(f"lid {lid} out of range for {n} records")
        rewrite_through = lid - 1
    elif not 1 <= lid <= rewrite_through <= n:
        raise LidOutOfRangeError(
            f"need 1 <= lid <= rewrite_through <= {n}, got lid={lid}, "
            f"rewrite_through={rewrite_through}"
        )
    records = list(ledger.records)
    target = records[lid - 1]
    update = _replace_description(target.update, record_index, new_description)
    records[lid - 1] = ChainRecord(lid, target.hash, target.prev_hash, update)
    for position in range(lid, rewrite_through + 1):
        record = records[position - 1]
        prev = record.prev_hash if position == lid else records[position - 2].hash
        rehashed = compute_hash(position, record.update, prev)
        records[position - 1] = ChainRecord(position, rehashed, prev, record.update)
    return Ledger(records, ledger.name)


def _replace_description(update: bytes, record_index: int, new_description: str | None) -> bytes:
    records = list(decode_rows(row_texts(update)))
    if not 1 <= record_index <= len(records):
        raise ValueError(f"record index {record_index} out of range for a batch of {len(records)}")
    old = records[record_index - 1]
    records[record_index - 1] = UpdateRecord(old.opid, old.timestamp, new_description)
    return UpdateBatch(records)


def tamper_ledger(
    path: str | os.PathLike[str],
    lid: int,
    record_index: int,
    new_description: str | None,
    rewrite_through: int | None = None,
) -> None:
    """Rewrite one update record's description in the file at path, then
    re-hash lids lid..rewrite_through as forge does.

    With rewrite_through None this is the naive in-place edit: exactly one
    line of the file changes, so chain verification fails at lid. With
    rewrite_through < n the chain breaks at rewrite_through + 1; only a
    rewrite through the final record produces a chain that re-verifies, at
    which point the table comparison is what catches the lie.
    """
    forged = forge(_read_ledger(path), lid, record_index, new_description, rewrite_through)
    overwrite_ledger(path, forged)


def measure_rewrite_cascade(ledger: Ledger, k: int) -> int:
    """Count the records whose stored hash fields a k-mutation forces to change.

    Constructive: mutate the update at lid k (flip its first record's
    description), re-hash forward to the end, and count every record whose
    hash or prevHash no longer matches what is stored. Restoring a
    verifiable chain requires rewriting exactly these.
    """
    n = len(ledger.records)
    if not 1 <= k <= n:
        raise LidOutOfRangeError(f"lid {k} out of range for {n} records")
    description = decode_rows(row_texts(ledger.records[k - 1].update)[:1])[0].description
    marker = "tampered" if description is None else description + "'"
    forged = forge(ledger, k, 1, marker, n)
    return sum(
        (old.hash, old.prev_hash) != (new.hash, new.prev_hash)
        for old, new in zip(ledger.records, forged.records)
    )

