"""Adversary simulation: raw-byte tampering of stored ledgers.

Deliberately unsafe. Nothing here goes through the guarded write path; these
helpers rewrite file bytes directly, which is exactly what the threat being
defended against does. They exist so tests and demos can measure that every
such mutation is caught, either by chain verification or, when an adversary
re-hashes a whole suffix, by comparison against the honest table history.
Never run them against a file a live writer holds open.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from pathlib import Path

from .chain import (
    ChainRecord,
    Ledger,
    compute_hash,
    verify_against_table,
    verify_chain,
)
from .encoding import Hash, UpdateBatch, UpdateRecord
from .errors import LidOutOfRangeError, StorageViolation
from .storage import ledger_header_line, load_ledger, render_record
from .table import DataTable


class AttackScenario(enum.Enum):
    INTERMEDIATE = "INTERMEDIATE"  # mutate a record that is not the last
    LAST = "LAST"  # mutate the final record
    TABLE_ONLY = "TABLE_ONLY"  # mutate the data table, leave the ledger alone


@dataclass(frozen=True)
class AttackOutcome:
    """What an attack experiment produced and how it was (or wasn't) caught."""

    scenario: AttackScenario
    detected_by_chain: bool
    detected_by_table_check: bool
    first_invalid_lid: int | None
    records_requiring_rewrite: int


def _read_ledger(path: Path) -> Ledger:
    """Parse strictly, so re-rendering a record gives back its exact bytes."""
    try:
        return load_ledger(path)
    except StorageViolation as exc:
        raise ValueError(f"{path} is not a well-formed ledger ({exc}); repair it first") from exc


def _write_ledger(path: Path, ledger: Ledger) -> None:
    lines = [ledger_header_line(ledger.name), *map(render_record, ledger.records)]
    payload = "".join(line + "\n" for line in lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())


def _replace_description(
    batch: UpdateBatch, record_index: int, new_description: str | None
) -> UpdateBatch:
    if not 1 <= record_index <= len(batch.records):
        raise ValueError(
            f"record index {record_index} out of range for a batch of {len(batch.records)}"
        )
    records = list(batch.records)
    old = records[record_index - 1]
    records[record_index - 1] = UpdateRecord(old.opid, old.timestamp, new_description)
    return UpdateBatch(records)


def tamper_update_in_place(
    path: str | os.PathLike[str],
    lid: int,
    record_index: int,
    new_description: str | None,
) -> None:
    """Rewrite one update record's description, stored hashes untouched.

    This is the naive in-place edit: exactly one line of the file changes and
    nothing is appended, so chain verification fails at that lid.
    """
    path = Path(path)
    ledger = _read_ledger(path)
    records = ledger.records
    if not 1 <= lid <= len(records):
        raise LidOutOfRangeError(f"lid {lid} out of range for {len(records)} records")
    target = records[lid - 1]
    records[lid - 1] = ChainRecord(
        lid=target.lid,
        hash=target.hash,
        prev_hash=target.prev_hash,
        update=_replace_description(target.update, record_index, new_description),
    )
    _write_ledger(path, ledger)


def tamper_with_rehash(
    path: str | os.PathLike[str],
    lid: int,
    record_index: int,
    new_value: str | None,
    rewrite_through: int,
) -> None:
    """Mutate like tamper_update_in_place, then re-hash lids lid..rewrite_through.

    Models the powerful adversary who can rewrite stored hash and prevHash
    fields in sequence. With rewrite_through < n the chain breaks at
    rewrite_through + 1; only a rewrite through the final record produces a
    chain that re-verifies, at which point the table comparison is what
    catches the lie.
    """
    path = Path(path)
    ledger = _read_ledger(path)
    records = ledger.records
    n = len(records)
    if not (1 <= lid <= rewrite_through <= n):
        raise LidOutOfRangeError(
            f"need 1 <= lid <= rewrite_through <= {n}, got lid={lid}, "
            f"rewrite_through={rewrite_through}"
        )
    updates = [record.update for record in records]
    updates[lid - 1] = _replace_description(updates[lid - 1], record_index, new_value)
    hashes: list[Hash] = [record.hash for record in records]
    prevs: list[Hash | None] = [record.prev_hash for record in records]
    for position in range(lid, rewrite_through + 1):
        i = position - 1
        if position > lid:
            prevs[i] = hashes[i - 1]
        hashes[i] = compute_hash(position, updates[i], prevs[i])
        records[i] = ChainRecord(
            lid=position, hash=hashes[i], prev_hash=prevs[i], update=updates[i]
        )
    _write_ledger(path, ledger)


def measure_rewrite_cascade(ledger: Ledger, k: int) -> int:
    """Count the records whose stored hash fields a k-mutation forces to change.

    Constructive: mutate the update at lid k, re-hash forward to the end, and
    count every record whose hash or prevHash no longer matches what is
    stored. Restoring a verifiable chain requires rewriting exactly these.
    """
    n = len(ledger.records)
    if not 1 <= k <= n:
        raise LidOutOfRangeError(f"lid {k} out of range for {n} records")
    changed = 0
    rolling_hash: Hash | None = None
    for i in range(k - 1, n):
        record = ledger.records[i]
        if i == k - 1:
            batch = _mutation_marker(record.update)
            new_prev = record.prev_hash
        else:
            batch = record.update
            new_prev = rolling_hash
        new_hash = compute_hash(record.lid, batch, new_prev)
        if new_hash != record.hash or new_prev != record.prev_hash:
            changed += 1
        rolling_hash = new_hash
    return changed


def _mutation_marker(batch: UpdateBatch) -> UpdateBatch:
    """A minimal content change: flip the first record's description."""
    first = batch.records[0]
    new_description = "tampered" if first.description is None else first.description + "'"
    return _replace_description(batch, 1, new_description)


def assess_detection(
    ledger: Ledger,
    table: DataTable,
    scenario: AttackScenario,
    records_requiring_rewrite: int = 0,
) -> AttackOutcome:
    """Measure which check catches a (possibly tampered) ledger/table pair.

    Pass the tampered side and the honest counterpart. The table comparison
    only runs when the chain still verifies, mirroring the operator workflow.
    """
    report = verify_chain(ledger)
    detected_by_table = False
    if report.valid:
        detected_by_table = not verify_against_table(ledger, table).consistent
    return AttackOutcome(
        scenario=scenario,
        detected_by_chain=not report.valid,
        detected_by_table_check=detected_by_table,
        first_invalid_lid=report.first_invalid_lid,
        records_requiring_rewrite=records_requiring_rewrite,
    )
