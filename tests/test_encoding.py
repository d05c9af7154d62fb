"""Canonical update encoding: determinism, byte layout, validation."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chaintable import (
    MalformedBatchError,
    StorageViolation,
    StorageViolationKind,
    UpdateBatch,
    UpdateRecord,
    canonical_encode_update,
    decode_update,
    parse_batch_input,
)
from chaintable.encoding import _CONTROL, decode_record, encode_record, render_batch


def test_single_record_encoding_is_exact():
    batch = UpdateBatch([UpdateRecord(1, "t1", "opt1")])
    assert canonical_encode_update(batch) == b'[{"opid":1,"timestamp":"t1","description":"opt1"}]'


def test_two_record_encoding_is_exact():
    batch = UpdateBatch([UpdateRecord(2, "t2", "opt2"), UpdateRecord(3, "t3", "opt3")])
    assert canonical_encode_update(batch) == (
        b'[{"opid":2,"timestamp":"t2","description":"opt2"},'
        b'{"opid":3,"timestamp":"t3","description":"opt3"}]'
    )


def test_deletion_encodes_description_as_null():
    batch = UpdateBatch([UpdateRecord(1, "t9", None)])
    assert canonical_encode_update(batch) == b'[{"opid":1,"timestamp":"t9","description":null}]'


def test_encoding_uses_utf8_not_ascii_escapes():
    batch = UpdateBatch([UpdateRecord(1, "t1", "café")])
    assert canonical_encode_update(batch) == (
        '[{"opid":1,"timestamp":"t1","description":"café"}]'.encode("utf-8")
    )


def test_equal_batches_encode_identically():
    a = UpdateBatch([UpdateRecord(1, "t1", "x")])
    b = UpdateBatch([UpdateRecord(1, "t1", "x")])
    assert canonical_encode_update(a) == canonical_encode_update(b)


def test_any_field_difference_changes_bytes():
    base = UpdateBatch([UpdateRecord(1, "t1", "x")])
    for other in (
        UpdateBatch([UpdateRecord(2, "t1", "x")]),
        UpdateBatch([UpdateRecord(1, "t2", "x")]),
        UpdateBatch([UpdateRecord(1, "t1", "y")]),
        UpdateBatch([UpdateRecord(1, "t1", None)]),
    ):
        assert canonical_encode_update(base) != canonical_encode_update(other)


def test_record_validation():
    with pytest.raises(MalformedBatchError):
        UpdateRecord(0, "t1", "x")
    with pytest.raises(MalformedBatchError):
        UpdateRecord(-3, "t1", "x")
    with pytest.raises(MalformedBatchError):
        UpdateRecord(True, "t1", "x")
    with pytest.raises(MalformedBatchError):
        UpdateRecord(1, "", "x")
    with pytest.raises(MalformedBatchError):
        UpdateRecord(1, "t\n1", "x")
    with pytest.raises(MalformedBatchError):
        UpdateRecord(1, 7, "x")
    with pytest.raises(MalformedBatchError):
        UpdateRecord(1, "t1", 7)
    with pytest.raises(MalformedBatchError):  # a tuple's other constructors check too
        UpdateRecord(1, "t1", "x")._replace(opid=0)
    with pytest.raises(MalformedBatchError):
        UpdateRecord._make((1, "t\n1", "x"))


def test_batch_must_be_non_empty():
    with pytest.raises(MalformedBatchError):
        UpdateBatch([])


def test_batch_rejects_duplicate_keys_within_batch():
    with pytest.raises(MalformedBatchError):
        UpdateBatch([UpdateRecord(1, "t1", "a"), UpdateRecord(1, "t1", "b")])


@pytest.mark.parametrize(
    ("keys", "named"),
    [("abba", "b"), ("abab", "a"), ("abcc", "c"), ("aa", "a")],
)
def test_a_duplicate_key_refusal_names_the_first_key_seen_twice(keys, named):
    rows = [{"opid": 1, "timestamp": key, "description": None} for key in keys]
    with pytest.raises(MalformedBatchError) as excinfo:
        decode_update(json.dumps(rows))
    assert str(excinfo.value) == f'duplicate key within batch: {{"opid":1,"timestamp":"{named}"}}'


def test_batch_allows_same_opid_different_timestamp():
    batch = UpdateBatch([UpdateRecord(1, "t1", "a"), UpdateRecord(1, "t2", "b")])
    assert len(batch) == 2


def test_decode_record_requires_exact_keys():
    with pytest.raises(MalformedBatchError):
        decode_record('{"opid":1,"timestamp":"t1"}')
    with pytest.raises(MalformedBatchError):
        decode_record('{"opid":1,"timestamp":"t1","description":"x","extra":0}')
    with pytest.raises(MalformedBatchError):
        decode_record("[1,2]")


def test_decode_update_round_trip():
    batch = UpdateBatch([UpdateRecord(2, "t2", "opt2"), UpdateRecord(3, "t3", None)])
    assert decode_update(canonical_encode_update(batch)) == batch


def test_a_decoded_batch_equals_and_hashes_as_the_batch_it_encodes():
    batch = UpdateBatch([UpdateRecord(2, "t2", "opt2"), UpdateRecord(3, "t3", None)])
    decoded = decode_update(canonical_encode_update(batch))
    assert (decoded == batch, hash(decoded) == hash(batch), len(decoded)) == (True, True, 2)
    assert decoded.records == batch.records
    assert [r.key for r in decoded] == [(2, "t2"), (3, "t3")]
    assert decoded != UpdateBatch([UpdateRecord(2, "t2", "opt2")])
    encoded = canonical_encode_update(batch)  # a batch equals only a batch of its bytes
    assert batch != encoded and batch != batch.records and batch != batch.records[0]
    assert batch.__eq__(encoded) is NotImplemented and repr(encoded) in repr(batch)


def test_parse_batch_input_accepts_one_batch():
    batch = parse_batch_input('[{"opid":1,"timestamp":"t1","description":"opt1"}]')
    assert batch == UpdateBatch([UpdateRecord(1, "t1", "opt1")])


def test_parse_batch_input_rejects_nested_arrays_as_multi_record():
    with pytest.raises(StorageViolation) as excinfo:
        parse_batch_input(
            '[[{"opid":1,"timestamp":"t1","description":"a"}],'
            '[{"opid":2,"timestamp":"t2","description":"b"}]]'
        )
    assert excinfo.value.kind is StorageViolationKind.MULTI_RECORD_WRITE


def test_parse_batch_input_rejects_non_array():
    with pytest.raises(MalformedBatchError):
        parse_batch_input('{"opid":1,"timestamp":"t1","description":"a"}')
    with pytest.raises(MalformedBatchError):
        parse_batch_input("not json")


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=20
)
_records = st.builds(
    UpdateRecord,
    opid=st.integers(min_value=1, max_value=10**9),
    timestamp=_text,
    description=st.one_of(st.none(), _text),
)


@given(st.lists(_records, min_size=1, max_size=6, unique_by=lambda r: r.key))
def test_encode_decode_round_trip_property(records):
    batch = UpdateBatch(records)
    assert decode_update(canonical_encode_update(batch)) == batch
    for record in records:
        assert decode_record(encode_record(record)) == record


def _is_control_reference(ch: str) -> bool:
    """The per-character predicate the control-character regex replaced."""
    code = ord(ch)
    return code < 0x20 or 0x7F <= code <= 0x9F


def test_control_regex_agrees_with_reference_on_every_code_point():
    search = _CONTROL.search
    disagree = [
        code
        for code in range(0x110000)
        if (search(chr(code)) is not None) != _is_control_reference(chr(code))
    ]
    assert disagree == []


def _per_record_join_reference(batch: UpdateBatch) -> bytes:
    """The per-record encoding that the shared batch encoder replaced."""
    body = ",".join(
        json.dumps(
            {"opid": r.opid, "timestamp": r.timestamp, "description": r.description},
            separators=(",", ":"),
            ensure_ascii=False,
        )
        for r in batch
    )
    return ("[" + body + "]").encode("utf-8")


# Characters JSON escapes or that are easy to mis-encode, mixed into arbitrary
# text; timestamps may not hold control characters, descriptions may.
_escaped = st.sampled_from(['"', "\\", "/", "\u2028", "\u2029", "é", "\U0001f600"])
_controls = st.sampled_from(["\x00", "\n", "\x1f", "\x7f", "\x85"])


def _wide_text(*extra, exclude=("Cs",)):
    alphabet = st.one_of(_escaped, *extra, st.characters(blacklist_categories=exclude))
    return st.text(alphabet=alphabet)


_wide_records = st.builds(
    UpdateRecord,
    opid=st.one_of(st.integers(1, 2**64), st.integers(10**300, 10**301)),
    timestamp=_wide_text(exclude=("Cs", "Cc")).filter(bool),
    description=st.one_of(st.none(), _wide_text(_controls)),
)


@given(st.lists(_wide_records, min_size=1, max_size=6, unique_by=lambda r: r.key))
def test_canonical_encoding_matches_per_record_join_reference(records):
    batch = UpdateBatch(records)
    assert canonical_encode_update(batch) == _per_record_join_reference(batch)
    assert decode_update(canonical_encode_update(batch)) == batch


def _with_boundaries(text):
    """Text that may hold a record boundary's bytes, which must not split a row."""
    return st.tuples(text, st.sampled_from(["", '},{"opid":']), text).map("".join)


_row_records = st.builds(
    UpdateRecord,
    opid=st.one_of(st.integers(1, 2**64), st.integers(10**300, 10**301)),
    timestamp=_with_boundaries(_wide_text(exclude=("Cs", "Cc"))).filter(bool),
    description=st.one_of(st.none(), _with_boundaries(_wide_text(_controls))),
)


@given(
    st.lists(
        st.lists(_row_records, min_size=1, max_size=3, unique_by=lambda r: r.key), max_size=3
    )
)
@example([[UpdateRecord(1, '"},{"opid":2,', '},{"opid":3,"timestamp":"t","description":null}')]])
@example([[UpdateRecord(1, "t\u2028", "\\"), UpdateRecord(2, "t\U0001f600", "\x85\u2029")]])
def test_rendered_rows_equal_the_per_row_encode_join(batches):
    batches = [UpdateBatch(records) for records in batches]
    expected = "".join(encode_record(r) + "\n" for batch in batches for r in batch)
    rendered = b"".join(render_batch(canonical_encode_update(batch)) for batch in batches)
    assert rendered == expected.encode("utf-8")
