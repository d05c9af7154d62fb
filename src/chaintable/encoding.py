"""Update records and their canonical byte encoding.

The canonical form is what gets hashed and what goes on disk, so it is fixed
for all time: a JSON array of record objects, keys always in the order
opid, timestamp, description, no insignificant whitespace, UTF-8 bytes, and
an explicit null for a deletion's absent description. Equal batches encode to
identical bytes; any field difference changes the bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .errors import MalformedBatchError, StorageViolation, StorageViolationKind

_HEX_DIGITS = set("0123456789abcdef")


def _is_control(ch: str) -> bool:
    code = ord(ch)
    return code < 0x20 or 0x7F <= code <= 0x9F


@dataclass(frozen=True)
class Hash:
    """A 32-byte digest, rendered as 64 lowercase hex characters."""

    digest: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.digest, bytes) or len(self.digest) != 32:
            raise ValueError("hash digest must be exactly 32 bytes")

    @classmethod
    def from_hex(cls, text: str) -> "Hash":
        """Parse a 64-character lowercase hex rendering; reject anything else."""
        if len(text) != 64 or not set(text) <= _HEX_DIGITS:
            raise ValueError(f"not a 64-char lowercase hex digest: {text!r}")
        return cls(bytes.fromhex(text))

    @property
    def hex(self) -> str:
        return self.digest.hex()

    def __str__(self) -> str:
        return self.hex


@dataclass(frozen=True)
class UpdateRecord:
    """One data-table row: opid, timestamp, description.

    description None encodes a deletion. The timestamp is an opaque token;
    it is carried and compared only for equality, never ordered.
    """

    opid: int
    timestamp: str
    description: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.opid, int) or isinstance(self.opid, bool) or self.opid < 1:
            raise MalformedBatchError(f"opid must be a positive integer, got {self.opid!r}")
        if not isinstance(self.timestamp, str) or not self.timestamp:
            raise MalformedBatchError("timestamp must be a non-empty string")
        if any(_is_control(ch) for ch in self.timestamp):
            raise MalformedBatchError("timestamp must not contain control characters")
        if self.description is not None and not isinstance(self.description, str):
            raise MalformedBatchError("description must be a string or None")
        for text in (self.timestamp, self.description or ""):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise MalformedBatchError(f"field is not valid unicode text: {exc}") from exc

    @property
    def key(self) -> tuple[int, str]:
        """The data table's primary key."""
        return (self.opid, self.timestamp)

    @property
    def is_deletion(self) -> bool:
        return self.description is None


@dataclass(frozen=True)
class UpdateBatch:
    """The ordered, non-empty set of rows written by one table operation."""

    records: tuple[UpdateRecord, ...]

    def __init__(self, records: Iterable[UpdateRecord]) -> None:
        object.__setattr__(self, "records", tuple(records))
        if not self.records:
            raise MalformedBatchError("an update batch must contain at least one record")
        seen: set[tuple[int, str]] = set()
        for record in self.records:
            if not isinstance(record, UpdateRecord):
                raise MalformedBatchError(f"not an update record: {record!r}")
            if record.key in seen:
                raise MalformedBatchError(
                    f"duplicate (opid, timestamp) within batch: {record.key}"
                )
            seen.add(record.key)

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


def record_as_dict(record: UpdateRecord) -> dict[str, Any]:
    """Record fields in canonical key order."""
    return {
        "opid": record.opid,
        "timestamp": record.timestamp,
        "description": record.description,
    }


def encode_record(record: UpdateRecord) -> str:
    """Canonical one-line JSON object for a single record."""
    return json.dumps(record_as_dict(record), separators=(",", ":"), ensure_ascii=False)


def canonical_encode_update(batch: UpdateBatch) -> bytes:
    """Deterministic byte encoding of a batch, as hashed and as stored."""
    if not isinstance(batch, UpdateBatch):
        raise MalformedBatchError(f"not an update batch: {batch!r}")
    body = ",".join(encode_record(record) for record in batch)
    return ("[" + body + "]").encode("utf-8")


def _record_from_obj(obj: Any) -> UpdateRecord:
    if not isinstance(obj, dict):
        raise MalformedBatchError(f"record must be a JSON object, got {type(obj).__name__}")
    if set(obj) != {"opid", "timestamp", "description"}:
        raise MalformedBatchError(
            f"record object must have exactly the keys opid, timestamp, description; got {sorted(obj)}"
        )
    return UpdateRecord(obj["opid"], obj["timestamp"], obj["description"])


def decode_record(text: str) -> UpdateRecord:
    """Parse one canonical record object."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedBatchError(f"invalid record JSON: {exc}") from exc
    return _record_from_obj(obj)


def _json_value(text: str | bytes) -> Any:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedBatchError(f"invalid update JSON: {exc}") from exc


def _batch_from_value(data: Any) -> UpdateBatch:
    if not isinstance(data, list):
        raise MalformedBatchError("update encoding must be a JSON array of records")
    return UpdateBatch(_record_from_obj(obj) for obj in data)


def decode_update(text: str | bytes) -> UpdateBatch:
    """Parse a canonical update encoding back into a batch."""
    return _batch_from_value(_json_value(text))


def parse_batch_input(text: str | bytes) -> UpdateBatch:
    """Parse operator-supplied batch input (one batch per call).

    Identical to decode_update except that a nested array, i.e. an attempt to
    submit several chain records at once, is rejected as MULTI_RECORD_WRITE
    rather than as a malformed record.
    """
    data = _json_value(text)
    if isinstance(data, list) and any(isinstance(item, list) for item in data):
        raise StorageViolation(
            StorageViolationKind.MULTI_RECORD_WRITE,
            "input contains multiple record arrays; only one chain record may be written at a time",
        )
    return _batch_from_value(data)


def decode_line(data: bytes, lineno: int) -> str:
    """Decode one stored file line; undecodable bytes are a corrupt record."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StorageViolation(
            StorageViolationKind.CORRUPT_RECORD, f"undecodable bytes: {exc}", line=lineno
        ) from exc
