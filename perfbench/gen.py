"""Seeded workload inputs and the benchmark's own oracle.

Everything here is independent of the package under test: batches are plain
tuples, and the canonical encoding, the double SHA-256 chain, the data-file
rendering and the per-opid replay are re-derived from the formats documented
in ``src/chaintable/chain.py``, ``encoding.py`` and ``table.py``. The
benchmark checks the program's outputs against these.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

TABLE_NAME = "bench"

# Mostly ASCII, with a share of multi-byte text (2-, 3- and 4-byte UTF-8) and
# characters that JSON must escape.
_ASCII = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,.-:;!?'()/\"\\"
_WIDE = "éèàüößçñøå—€£漢字テスト中文한국어Ωπλ☃★✓🙂"
_EPOCH_US = 1_740_787_200_000_000  # 2025-03-01T00:00:00Z

Row = tuple  # (opid, timestamp, description or None)


class Generator:
    """Deterministic batch stream: 1-7 rows per batch (mean 4), about a third
    of rows re-using an earlier opid, about 10% tombstones, and timestamps
    that are unique across the whole stream."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._opids: list[int] = []
        self._rows = 0

    def _timestamp(self) -> str:
        self._rows += 1
        secs, micros = divmod(_EPOCH_US + self._rows * 1_000_003, 1_000_000)
        return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(secs)) + f".{micros:06d}Z"

    def _description(self) -> str | None:
        rng = self._rng
        if rng.random() < 0.10:
            return None
        length = rng.randint(8, 80)
        if rng.random() < 0.3:
            alphabet = _ASCII + _WIDE * 2
        else:
            alphabet = _ASCII
        return "".join(rng.choice(alphabet) for _ in range(length))

    def batch(self) -> list[Row]:
        rng = self._rng
        rows = []
        for _ in range(rng.randint(1, 7)):
            if self._opids and rng.random() < 1 / 3:
                opid = rng.choice(self._opids)
            else:
                opid = len(self._opids) + 1
                self._opids.append(opid)
            rows.append((opid, self._timestamp(), self._description()))
        return rows

    def batches(self, count: int) -> list[list[Row]]:
        return [self.batch() for _ in range(count)]


def row_json(row: Row) -> str:
    opid, timestamp, description = row
    obj = {"opid": opid, "timestamp": timestamp, "description": description}
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def batch_json(batch: list[Row]) -> str:
    return "[" + ",".join(row_json(row) for row in batch) + "]"


def chain_hash(lid: int, batch: list[Row], prev_hex: str | None) -> str:
    """Double SHA-256 over ``lid | canonical update bytes | prevHash hex``."""
    preimage = b"%d|%s|%s" % (
        lid,
        batch_json(batch).encode("utf-8"),
        b"" if prev_hex is None else prev_hex.encode("ascii"),
    )
    return hashlib.sha256(hashlib.sha256(preimage).digest()).hexdigest()


def chain_hashes(batches: list[list[Row]]) -> list[str]:
    """Stored hash of every record of a chain holding ``batches`` (lid = index + 1)."""
    hashes: list[str] = []
    for lid, batch in enumerate(batches, start=1):
        hashes.append(chain_hash(lid, batch, hashes[-1] if hashes else None))
    return hashes


def ledger_line(lid: int, batch: list[Row], prev_hex: str | None, hash_hex: str) -> str:
    return f"{lid} {hash_hex} {prev_hex or '-'} {batch_json(batch)}"


def data_file_bytes(rows: list[Row]) -> bytes:
    lines = [f"CHAINTABLE-DATA v1 {TABLE_NAME}"] + [row_json(row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def user_bytes(rows: list[Row]) -> int:
    """Canonical row bytes: what the user stored, without any framing."""
    return sum(len(row_json(row).encode("utf-8")) for row in rows)


def replay(rows: list[Row]) -> list[dict]:
    """Latest row per opid, ordered by opid, as ``materialize --json`` renders it."""
    latest = {}
    for row in rows:
        latest[row[0]] = row
    return [
        {"opid": opid, "timestamp": ts, "description": desc, "deleted": desc is None}
        for opid, ts, desc in (latest[o] for o in sorted(latest))
    ]
