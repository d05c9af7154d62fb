"""Update records and their canonical byte encoding.

The canonical form is what gets hashed and what goes on disk, so it is fixed
for all time: a JSON array of record objects, keys always in the order
opid, timestamp, description, no insignificant whitespace, UTF-8 bytes, and
an explicit null for a deletion's absent description. Equal batches encode to
identical bytes; any field difference changes the bytes.

A record is a tuple checked by the record rules (_row_record builds decoded rows
unchecked). A batch is its canonical bytes, checked once however it is made: by
one canonical-form pattern, which a ledger line's pattern embeds, and no key twice
(check_keys), after the record rules and one encode for rows not read from a file.
Rows are decoded from the bytes only when used.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .errors import MalformedBatchError, StorageViolation, StorageViolationKind

# The one definition of a control character: C0, DEL and C1.
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")

# The canonical form as one pattern: keys in order, no whitespace, an opid int()
# reads, no control character in a timestamp, only the escapes the encoder writes.
# Possessive, so a hostile line is refused without backtracking.
_DIGITS = sys.get_int_max_str_digits()  # 0: no limit
_OPID = f"[1-9][0-9]{{0,{_DIGITS - 1}}}+" if _DIGITS else "[1-9][0-9]*+"
_TIMESTAMP = r'(?:[^"\\\x00-\x1f\x7f-\x9f\ud800-\udfff]++|\\["\\])++'
_DESCRIPTION = r'(?:[^"\\\x00-\x1f\ud800-\udfff]++|\\["\\nrtbf]|\\u00(?:0[0-7bef]|1[0-9a-f]))*+'
_ROW = f'{{"opid":{_OPID},"timestamp":"{_TIMESTAMP}","description":(?:null|"{_DESCRIPTION}")}}'
_CANONICAL_ROW = re.compile(_ROW)
_CANONICAL_UPDATE = re.compile(rf"\[{_ROW}(?:,{_ROW})*+\]")

# One shared encoder: json.dumps with these options builds a new one per call.
# It only ever sees fresh lists of fresh dicts, so it skips the cycle check.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, check_circular=False)
# Decodes a batch's kept bytes, which passed every rule, straight into rows.
_ROWS = json.JSONDecoder(object_hook=lambda row: _row_record(row))
_BOUNDARY = b'},{"opid":'  # only between rows, as a " in a JSON string is escaped


def _check_row(opid: Any, timestamp: Any, description: Any) -> None:
    """The record rules, for an UpdateRecord and for every row of decoded input."""
    if not isinstance(opid, int) or isinstance(opid, bool) or opid < 1:
        raise MalformedBatchError(f"opid must be a positive integer, got {opid!r}")
    if not isinstance(timestamp, str) or not timestamp:
        raise MalformedBatchError("timestamp must be a non-empty string")
    if _CONTROL.search(timestamp):
        raise MalformedBatchError("timestamp must not contain control characters")
    if description is not None and not isinstance(description, str):
        raise MalformedBatchError("description must be a string or None")
    try:  # only a lone surrogate cannot be encoded
        (timestamp + (description or "")).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise MalformedBatchError(f"field is not valid unicode text: {exc}") from exc


class _RecordFields(NamedTuple):
    opid: int
    timestamp: str
    description: str | None


class UpdateRecord(_RecordFields):
    """One data-table row: opid, timestamp, description.

    description None encodes a deletion. The timestamp is an opaque token;
    it is carried and compared only for equality, never ordered.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, opid: int, timestamp: str, description: str | None = None) -> UpdateRecord:
        _check_row(opid, timestamp, description)
        return tuple.__new__(cls, (opid, timestamp, description))

    @property
    def key(self) -> tuple[int, str]:
        """The data table's primary key."""
        return (self.opid, self.timestamp)

    @property
    def is_deletion(self) -> bool:
        return self.description is None


def _row_record(row: dict[str, Any]) -> UpdateRecord:
    """The one place an UpdateRecord is made from values already checked, by
    _check_row or by the canonical pattern (which fixes the key order)."""
    return tuple.__new__(UpdateRecord, row.values())


class UpdateBatch:
    """The ordered, non-empty set of rows written by one table operation.

    A batch is its canonical bytes, encoded once and kept; equality and
    hashing compare them, which, the encoding being injective, is comparing
    rows. records is decoded from the bytes on first use and kept too.
    """

    __slots__ = ("_encoded", "_records")

    def __init__(self, records: Iterable[UpdateRecord]) -> None:
        records = tuple(records)
        for record in records:
            if not isinstance(record, UpdateRecord):
                raise MalformedBatchError(f"not an update record: {record!r}")
        self._encoded = _canonical_bytes(_encode_records([record_as_dict(r) for r in records]))
        self._records: tuple[UpdateRecord, ...] | None = records

    @property
    def records(self) -> tuple[UpdateRecord, ...]:
        if self._records is None:
            self._records = tuple(_ROWS.raw_decode(self._encoded.decode("utf-8"))[0])
        return self._records

    def keys(self) -> list[bytes]:
        """Each row's opid and timestamp as canonical text, so equal texts are equal keys."""
        return key_texts(self._encoded)

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return row_count(self._encoded)

    def __eq__(self, other: object) -> bool:
        return self._encoded == other._encoded if isinstance(other, UpdateBatch) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._encoded)

    def __repr__(self) -> str:
        return f"UpdateBatch({self._encoded!r})"


def record_as_dict(record: UpdateRecord) -> dict[str, Any]:
    """Record fields in canonical key order."""
    return {"opid": record.opid, "timestamp": record.timestamp, "description": record.description}


def encode_record(record: UpdateRecord) -> str:
    """Canonical one-line JSON object for a single record."""
    return _ENCODER.encode(record_as_dict(record))


def _encode_records(rows: Sequence[dict[str, Any]]) -> str:
    """Canonical text of a non-empty batch of checked rows in canonical key order."""
    if not rows:
        raise MalformedBatchError("an update batch must contain at least one record")
    return _ENCODER.encode(rows)


def canonical_encode_update(batch: UpdateBatch) -> bytes:
    """Deterministic byte encoding of a batch, as hashed and as stored."""
    if not isinstance(batch, UpdateBatch):
        raise MalformedBatchError(f"not an update batch: {batch!r}")
    return batch._encoded


def update_bytes(update: bytes | UpdateBatch) -> bytes:
    """An update's canonical bytes, given as those bytes or as the batch they encode."""
    return update if isinstance(update, bytes) else canonical_encode_update(update)


def check_update(encoded: bytes) -> None:
    """Refuse bytes that are not a batch's canonical bytes, as a ledger line's update is."""
    _canonical_bytes(encoded.decode("utf-8", "surrogateescape"))  # no pattern admits a surrogate


def row_texts(encoded: bytes) -> list[bytes]:
    """Each row of a batch as its canonical text between {"opid": and the closing }."""
    return encoded[9:-2].split(_BOUNDARY)


def row_count(encoded: bytes) -> int:
    """The number of rows in a batch's canonical bytes."""
    return encoded.count(_BOUNDARY) + 1


def key_texts(encoded: bytes) -> list[bytes]:
    """The key texts of a batch's canonical bytes (see UpdateBatch.keys)."""
    return [row.partition(b',"description":')[0] for row in row_texts(encoded)]


def check_keys(encoded: bytes) -> bytes:
    """Return a batch's canonical bytes if no key is in them twice; else refuse
    them, naming the first key repeated (found in one pass)."""
    if _BOUNDARY in encoded and len(set(keys := key_texts(encoded))) < len(keys):
        seen: set[bytes] = set()
        for key in keys:
            if key in seen:
                raise MalformedBatchError(f'duplicate key within batch: {{"opid":{key.decode()}}}')
            seen.add(key)
    return encoded


def join_rows(rows: Sequence[bytes]) -> bytes:
    """The JSON array of the record objects of row texts (see row_texts)."""
    return b'[{"opid":' + _BOUNDARY.join(rows) + b"}]" if rows else b"[]"


def decode_rows(rows: Sequence[bytes]) -> tuple[UpdateRecord, ...]:
    """Records of checked row texts (see row_texts), decoded 1000 at a time to bound memory."""
    chunks = (join_rows(rows[i : i + 1000]).decode() for i in range(0, len(rows), 1000))
    return tuple(record for chunk in chunks for record in _ROWS.decode(chunk))


def decode_history(updates: Iterable[bytes]) -> tuple[UpdateRecord, ...]:
    """The records of a chain's canonical update bytes, in order."""
    return decode_rows([row for update in updates for row in row_texts(update)])


def render_batch(encoded: bytes) -> bytes:
    """Data-file lines of a batch: one record object per row text."""
    return encoded[1:-1].replace(_BOUNDARY, b'}\n{"opid":') + b"\n"


def _checked_row(obj: Any) -> dict[str, Any]:
    """A decoded row checked by the record rules, rebuilt in canonical key order."""
    if not isinstance(obj, dict) or obj.keys() != {"opid", "timestamp", "description"}:
        raise MalformedBatchError("record must be an object of opid, timestamp, description")
    row = {"opid": obj["opid"], "timestamp": obj["timestamp"], "description": obj["description"]}
    _check_row(row["opid"], row["timestamp"], row["description"])
    return row


def decode_record(text: str) -> UpdateRecord:
    """Parse one canonical record object, as a data-file row holds it."""
    if not _CANONICAL_ROW.fullmatch(text):
        raise MalformedBatchError("record is not in canonical form")
    return _ROWS.decode(text)


def _json_value(text: str | bytes) -> Any:
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer past
    # the digit limit; RecursionError is nesting deeper than the interpreter allows.
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:
        raise MalformedBatchError(f"invalid update JSON: {exc}") from exc


def _batch_from_value(data: Any) -> UpdateBatch:
    """The batch decoder for decoded JSON values, in any layout."""
    if not isinstance(data, list):
        raise MalformedBatchError("update encoding must be a JSON array of records")
    encoded = _canonical_bytes(_encode_records([_checked_row(obj) for obj in data]))
    batch = object.__new__(UpdateBatch)  # the rows are checked dicts, not UpdateRecords
    batch._encoded, batch._records = encoded, None
    return batch


def decode_update(text: str | bytes) -> UpdateBatch:
    """Parse an update encoding back into a batch (any JSON layout)."""
    return _batch_from_value(_json_value(text))


def _canonical_bytes(text: str) -> bytes:
    """The bytes of an encoded batch, by the one rule for a batch's bytes: the
    canonical pattern, which admits no lone surrogate, then no key twice."""
    if not _CANONICAL_UPDATE.fullmatch(text):
        raise MalformedBatchError("update is not in canonical form")
    return check_keys(text.encode("utf-8"))


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

