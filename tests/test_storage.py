"""Guarded ledger persistence: format, append preconditions, durability."""

import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaintable import (
    ChainRecord,
    Divergence,
    InvalidLedgerError,
    Ledger,
    LedgerFile,
    LockError,
    MalformedBatchError,
    StorageViolation,
    StorageViolationKind,
    UpdateBatch,
    UpdateRecord,
    append_batch,
    load_ledger,
    verify_chain,
)
from chaintable.chain import compute_hash
from chaintable.encoding import (
    canonical_encode_update,
    check_keys,
    decode_rows,
    key_texts,
    row_count,
    row_texts,
)
from chaintable.storage import _parse_file, parse_record_line, read_ledger_header, render_record
from chaintable.table import parse_header, stored_lines
from conftest import (
    WORKED_BATCHES,
    WORKED_HISTORY,
    build_worked_ledger,
    parse_record_line_oracle,
    random_batch,
)


def _write_worked_file(path) -> Ledger:
    ledger = build_worked_ledger()
    with LedgerFile.create(path, "Events") as lf:
        for record in ledger.records:
            lf.append(record)
    return ledger


def test_create_writes_exact_header(tmp_path):
    path = tmp_path / "l.ctl"
    with LedgerFile.create(path, "Events") as lf:
        assert len(lf.ledger) == 0 and lf.ledger.tip_hash is None
    assert path.read_bytes() == b"CHAINTABLE-LEDGER v1 Events double-sha256-v1\n"
    assert read_ledger_header(path) == "Events"


def test_create_refuses_existing_path(tmp_path):
    path = tmp_path / "l.ctl"
    LedgerFile.create(path, "Events").close()
    with pytest.raises(FileExistsError):
        LedgerFile.create(path, "Events")


def test_create_fails_on_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        LedgerFile.create(tmp_path, "Events")  # a directory, not a file


def test_open_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        LedgerFile.open(tmp_path / "absent.ctl")


def test_append_and_load_round_trip(tmp_path):
    path = tmp_path / "l.ctl"
    ledger = _write_worked_file(path)
    loaded = load_ledger(path)
    assert [render_record(r) for r in loaded.records] == [
        render_record(r) for r in ledger.records
    ]
    assert verify_chain(loaded) is None


def test_load_shares_a_linked_prev_hash_with_the_previous_record(tmp_path):
    path = tmp_path / "l.ctl"
    _write_worked_file(path)
    first, second, third = load_ledger(path).records
    assert first.prev_hash is None
    assert second.prev_hash is first.hash and third.prev_hash is second.hash
    with LedgerFile.open(path) as lf:  # the writer's loader shares them too
        first, second, third = lf.ledger.records
        assert second.prev_hash is first.hash and third.prev_hash is second.hash
    # A prevHash that does not link is kept as its own stored text.
    relinked = path.read_bytes().replace(f" {first.hash} [".encode(), f" {'ab' * 32} [".encode())
    path.write_bytes(relinked)
    assert load_ledger(path).records[1].prev_hash == "ab" * 32


def test_append_rejects_lid_gap_without_writing(tmp_path):
    path = tmp_path / "l.ctl"
    ledger = build_worked_ledger()
    with LedgerFile.create(path, "Events") as lf:
        lf.append(ledger.records[0])
        lf.append(ledger.records[1])
        before = path.read_bytes()
        skipped = ChainRecord(4, ledger.records[2].hash, ledger.records[1].hash, WORKED_BATCHES[2])
        with pytest.raises(StorageViolation) as excinfo:
            lf.append(skipped)
        assert excinfo.value.kind is StorageViolationKind.LID_GAP
        with pytest.raises(StorageViolation) as excinfo:
            lf.append(ledger.records[1])  # repeat = attempted rewrite
        assert excinfo.value.kind is StorageViolationKind.LID_GAP
        assert path.read_bytes() == before


def test_append_rejects_prev_hash_mismatch_without_writing(tmp_path):
    path = tmp_path / "l.ctl"
    ledger = build_worked_ledger()
    with LedgerFile.create(path, "Events") as lf:
        lf.append(ledger.records[0])
        lf.append(ledger.records[1])
        before = path.read_bytes()
        bad_prev = "03" * 32
        forged = ChainRecord(3, compute_hash(3, WORKED_BATCHES[2], bad_prev), bad_prev, WORKED_BATCHES[2])
        with pytest.raises(StorageViolation) as excinfo:
            lf.append(forged)
        assert excinfo.value.kind is StorageViolationKind.PREV_HASH_MISMATCH
        assert path.read_bytes() == before


@pytest.mark.parametrize(
    "spoil", [str.upper, lambda h: h[:-1], bytes.fromhex], ids=["upper-case", "63 chars", "bytes"]
)
def test_append_refuses_a_hash_that_is_not_lowercase_hex(tmp_path, spoil):
    path = tmp_path / "l.ctl"
    ledger = build_worked_ledger()
    with LedgerFile.create(path, "Events") as lf:
        lf.append(ledger.records[0])
        before = path.read_bytes()
        record = ledger.records[1]
        with pytest.raises(ValueError):
            lf.append(ChainRecord(2, spoil(record.hash), record.prev_hash, record.update))
        assert path.read_bytes() == before and len(lf.ledger) == 1
        lf.append(record)


@pytest.mark.parametrize("payload", [list, tuple], ids=["list", "tuple"])
def test_append_rejects_multi_record_payload(tmp_path, payload):
    path = tmp_path / "l.ctl"
    ledger = build_worked_ledger()
    with LedgerFile.create(path, "Events") as lf:
        with pytest.raises(StorageViolation) as excinfo:
            lf.append(payload(ledger.records))
        assert excinfo.value.kind is StorageViolationKind.MULTI_RECORD_WRITE
        assert path.read_bytes() == b"CHAINTABLE-LEDGER v1 Events double-sha256-v1\n"
        assert len(lf.ledger) == 0
        lf.append(ledger.records[0])  # a ChainRecord is a tuple, and one record
        assert len(lf.ledger) == 1


@pytest.mark.parametrize(
    ("payload", "kind"),
    [
        (lambda records: WORKED_HISTORY[0], None),
        (lambda records: Divergence(1, 1, WORKED_HISTORY[0], None), None),
        (list, StorageViolationKind.MULTI_RECORD_WRITE),
        (tuple, StorageViolationKind.MULTI_RECORD_WRITE),
    ],
    ids=["UpdateRecord", "Divergence", "list", "tuple"],
)
def test_append_refuses_a_value_that_is_not_one_chain_record(tmp_path, payload, kind):
    """A tuple type other than ChainRecord is a TypeError, as any other value
    is; a plain list or tuple of records is MULTI_RECORD_WRITE. Neither writes."""
    path = tmp_path / "l.ctl"
    ledger = build_worked_ledger()
    with LedgerFile.create(path, "Events") as lf:
        before = path.read_bytes()
        with pytest.raises(TypeError if kind is None else StorageViolation) as excinfo:
            lf.append(payload(ledger.records))
        assert getattr(excinfo.value, "kind", None) is kind
        assert (path.read_bytes(), len(lf.ledger)) == (before, 0)


_B1 = b'[{"opid":1,"timestamp":"t1","description":"opt1"}]'


def _sealed(lid, update, prev_hash=None):
    return ChainRecord(lid, compute_hash(lid, update, prev_hash), prev_hash, update)


@pytest.mark.parametrize(
    ("record", "refusal"),
    [
        (_sealed(1, b'[{"opid": 1,"timestamp":"t1","description":"opt1"}]'), MalformedBatchError),
        (_sealed(1, b'[{"opid":1,"description":"opt1","timestamp":"t1"}]'), MalformedBatchError),
        (_sealed(1, b'[{"opid":1,"timestamp":"t\xff","description":null}]'), MalformedBatchError),
        (_sealed(1, b"[]"), MalformedBatchError),
        (_sealed(1, _B1[:-1] + b"," + _B1[1:]), MalformedBatchError),  # a key twice
        (_sealed(1, _B1)._replace(update=_B1.decode()), MalformedBatchError),
        (_sealed(1, _B1)._replace(hash="AB" * 32), ValueError),
        (_sealed(1, _B1)._replace(hash="ab" * 31), ValueError),
        (_sealed(1, _B1)._replace(lid=0), MalformedBatchError),
        (_sealed(1, _B1)._replace(lid=True), MalformedBatchError),
        (_sealed(1, _B1)._replace(lid="1"), MalformedBatchError),
    ],
    ids=[
        "space",
        "key-order",
        "not-utf8",
        "empty",
        "key-twice",
        "str-update",
        "upper-hash",
        "short-hash",
        "lid-0",
        "lid-True",
        "lid-str",
    ],
)
def test_append_refuses_a_record_the_reader_would_refuse(tmp_path, record, refusal):
    """No line is written that parse_record_line would refuse; a refusal
    writes no byte and leaves the in-memory ledger as it was."""
    path = tmp_path / "l.ctl"
    with LedgerFile.create(path, "Events") as lf:
        before = path.read_bytes()
        with pytest.raises(refusal):
            lf.append(record)
        assert (path.read_bytes(), len(lf.ledger)) == (before, 0)
        lf.append(_sealed(1, _B1))
    assert verify_chain(load_ledger(path)) is None


def test_a_record_of_canonical_bytes_comes_back_equal_after_a_reopen(tmp_path):
    path = tmp_path / "l.ctl"
    first = _sealed(1, _B1)
    second = _sealed(2, canonical_encode_update(WORKED_BATCHES[1]), first.hash)
    with LedgerFile.create(path, "Events") as lf:
        lf.append(first)
        lf.append(second)
        assert lf.ledger.records == [first, second]
    with LedgerFile.open(path) as lf:
        assert lf.ledger.records == [first, second]
    assert load_ledger(path).records == [first, second]


def test_append_keeps_the_bytes_of_a_record_given_a_batch(tmp_path):
    path = tmp_path / "l.ctl"
    batch = WORKED_BATCHES[0]
    with LedgerFile.create(path, "Events") as lf:
        lf.append(ChainRecord(1, compute_hash(1, batch, None), None, batch))
        (kept,) = lf.ledger.records
    assert kept.update is batch and kept.update == bytes(batch)
    (loaded,) = load_ledger(path).records
    assert type(loaded.update) is bytes and loaded == kept


def test_append_detects_out_of_band_change(tmp_path):
    path = tmp_path / "l.ctl"
    ledger = build_worked_ledger()
    with LedgerFile.create(path, "Events") as lf:
        lf.append(ledger.records[0])
        with open(path, "ab") as other:
            other.write(b"intruder\n")
        with pytest.raises(StorageViolation) as excinfo:
            lf.append(ledger.records[1])
        assert excinfo.value.kind is StorageViolationKind.NON_APPEND_WRITE


def test_second_writer_is_locked_out(tmp_path):
    path = tmp_path / "l.ctl"
    with LedgerFile.create(path, "Events"):
        with pytest.raises(LockError):
            LedgerFile.open(path)
    # Lock is released on close.
    LedgerFile.open(path).close()


def test_load_returns_chain_invalid_ledger(tmp_path):
    path = tmp_path / "l.ctl"
    _write_worked_file(path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace("opt2", "opt5")
    path.write_text("\n".join(lines) + "\n")
    loaded = load_ledger(path)  # loads fine; verification is a separate step
    with pytest.raises(InvalidLedgerError) as excinfo:
        verify_chain(loaded)
    assert excinfo.value.lid == 2


def test_load_reports_partial_final_line(tmp_path):
    path = tmp_path / "l.ctl"
    _write_worked_file(path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-5])
    with pytest.raises(StorageViolation) as excinfo:
        load_ledger(path)
    assert excinfo.value.kind is StorageViolationKind.CORRUPT_RECORD
    assert excinfo.value.line == 4
    # The repair flag drops exactly the unacknowledged tail.
    repaired = load_ledger(path, repair=True)
    assert len(repaired) == 2 and verify_chain(repaired) is None


def test_open_with_repair_truncates_partial_tail(tmp_path):
    path = tmp_path / "l.ctl"
    ledger = _write_worked_file(path)
    whole = path.read_bytes()
    path.write_bytes(whole + b"5 deadbeef")
    with pytest.raises(StorageViolation):
        LedgerFile.open(path)
    with LedgerFile.open(path, repair=True) as lf:
        assert len(lf.ledger) == 3
        # After repair the file is appendable again at the right lid.
        record = append_batch(ledger, UpdateBatch([UpdateRecord(7, "t7", "x")]))
        lf.append(record)
    assert len(load_ledger(path)) == 4


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "l.ctl"
    path.write_bytes(b"CHAINTABLE-LEDGER v9 Events double-sha256-v1\n")
    with pytest.raises(StorageViolation) as excinfo:
        load_ledger(path)
    assert excinfo.value.kind is StorageViolationKind.HEADER_MISMATCH


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "l.ctl"
    path.write_bytes(b"")
    with pytest.raises(StorageViolation) as excinfo:
        load_ledger(path)
    assert excinfo.value.kind is StorageViolationKind.CORRUPT_RECORD
    assert excinfo.value.line == 1


@pytest.mark.parametrize(
    "mangle",
    [
        lambda line: line.replace(" ", "  ", 1),  # double separator
        lambda line: line.upper(),  # hex case
        lambda line: line + " extra",
        lambda line: "0" + line,  # leading zero lid
        lambda line: line.split(" ", 1)[1],  # missing field
    ],
)
def test_parse_record_line_requires_canonical_form(mangle, tmp_path):
    path = tmp_path / "l.ctl"
    _write_worked_file(path)
    good = path.read_text().splitlines()[1]
    with pytest.raises(StorageViolation) as excinfo:
        parse_record_line(mangle(good), 2)
    assert excinfo.value.kind is StorageViolationKind.CORRUPT_RECORD


_pieces = st.one_of(
    st.sampled_from(['"', "\\", "/", "é", "\U0001f600", "\u2028", " ", "},{", '"opid":']),
    st.characters(blacklist_categories=("Cs", "Cc")),
)
_controls = st.sampled_from(["\x00", "\n", "\x85"])
_rows = st.lists(
    st.tuples(
        st.integers(1, 2**70),
        st.lists(_pieces, min_size=1, max_size=5).map("".join),
        st.one_of(st.none(), st.lists(st.one_of(_pieces, _controls), max_size=5).map("".join)),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda row: row[:2],
)
_ORDER = ("opid", "timestamp", "description")
_MUTATIONS = (
    "whitespace", "reorder", "duplicate key", "opid", "ascii escapes", "surrogate",
    "upper hex", "lid 01", "duplicate row", "extra key", "missing key", "not a list", "flip",
)


@st.composite
def _record_lines(draw):
    """A canonical record line (a fifth of the draws), or one with a single
    deviation of the kind a hand edit or a faulty writer makes."""
    rows = draw(_rows)
    lid = str(draw(st.integers(1, 10**20)))
    digest = draw(st.binary(min_size=32, max_size=32)).hex()
    prev = draw(st.one_of(st.just("-"), st.binary(min_size=32, max_size=32).map(bytes.hex)))
    text = lambda value: json.dumps(value, ensure_ascii=False)  # noqa: E731
    fields = [{"opid": str(o), "timestamp": text(t), "description": text(d)} for o, t, d in rows]
    orders, extras = [_ORDER] * len(rows), [""] * len(rows)
    i = draw(st.integers(0, len(rows) - 1))
    mutation = draw(st.sampled_from((None, None, None, *_MUTATIONS)))
    if mutation == "reorder":
        orders[i] = draw(st.permutations(_ORDER))
    elif mutation == "missing key":
        gone = draw(st.sampled_from(_ORDER))
        orders[i] = tuple(k for k in _ORDER if k != gone)
    elif mutation == "duplicate key":
        key = draw(st.sampled_from(_ORDER))
        extras[i] = f',"{key}":' + draw(st.sampled_from([fields[i][key], "2", '"t"', "null"]))
    elif mutation == "extra key":
        extras[i] = ',"x":1'
    elif mutation == "opid":
        literals = ["1.0", "true", "false", "0", "-1", "01", '"1"', "1e0", "null", "NaN"]
        fields[i]["opid"] = draw(st.sampled_from(literals))
    elif mutation == "ascii escapes":
        _, t, d = rows[i]
        fields[i]["timestamp"], fields[i]["description"] = json.dumps(t), json.dumps(d)
    elif mutation == "surrogate":
        key = draw(st.sampled_from(["timestamp", "description"]))
        fields[i][key] = draw(st.sampled_from(['"a\\ud800"', '"\\udc00"', '"\\ud83d\\ude00"']))
    elif mutation == "upper hex":
        digest, prev = draw(st.sampled_from([(digest.upper(), prev), (digest, prev.upper())]))
    elif mutation == "lid 01":
        lid = "0" + lid
    elif mutation == "duplicate row":
        fields.append(fields[i])
        orders.append(_ORDER)
        extras.append("")
    objects = [
        "{" + ",".join(f'"{k}":{f[k]}' for k in order) + extra + "}"
        for f, order, extra in zip(fields, orders, extras)
    ]
    update = "[" + ",".join(objects) + "]" if mutation != "not a list" else objects[i]
    line = f"{lid} {digest} {prev} {update}"
    if mutation == "whitespace":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from([" ", "\t", "\n", "\r"])) + line[at:]
    elif mutation == "flip":
        at = draw(st.integers(0, len(line) - 1))
        flipped = draw(st.sampled_from(list('01aA"\\{}[],: -é') + ["\x00"]))
        line = line[:at] + flipped + line[at + 1 :]
    return line


_GOOD = '7 ' + "ab" * 32 + " - " + '[{"opid":1,"timestamp":"t1","description":null}]'


def _update(*rows: tuple) -> str:
    """An update of rows given as JSON texts (opid, timestamp, description)."""
    fields = ('{"opid":%s,"timestamp":%s,"description":%s}' % row for row in rows)
    return "[" + ",".join(fields) + "]"


def _c0_forms(code: int) -> list[str]:
    """A C0 character as a JSON string: its canonical escape, a long escape in
    either hex case (one is canonical, or neither is for a short escape), and
    the raw character."""
    return sorted({json.dumps(chr(code)), '"\\u%04X"' % code, '"\\u%04x"' % code, f'"{chr(code)}"'})


# Edge cases of the canonical form: opids at and past the digit limit; every
# C0 character in each form, as timestamp (never allowed) and description;
# \/; raw DEL, C1 and a lone surrogate; an empty timestamp; a row twice; and
# texts holding a row boundary or a key's end.
_EDGE_UPDATES = [
    _update(("9" * 4300, '"t"', "null")),
    _update(("9" * 5000, '"t"', "null")),
    *(_update((1, form, '"d"')) for code in range(32) for form in _c0_forms(code)),
    *(_update((1, '"t"', form)) for code in range(32) for form in _c0_forms(code)),
    _update((1, '"t"', '"a\\/b"')),
    *(_update((1, f'"a{ch}"', '"d"')) for ch in ("\x7f", "\x85", "\x9f", "\ud800")),
    *(_update((1, '"t"', f'"a{ch}"')) for ch in ("\x7f", "\x85", "\x9f", "\ud800")),
    _update((1, '""', "null")),
    _update((1, '"t"', "null"), (1, '"t"', "null")),
    _update((1, '"t"', "null"), (1, '"t"', '"other"')),
    _update((1, json.dumps('t},{"opid":1'), "null"), (1, '"t"', "null")),
    _update((1, '"t"', json.dumps('d},{"opid":1,"timestamp":"t","description":null'))),
    _update((1, json.dumps('t,"description":x'), "null"), (1, '"t"', "null")),
]


def _check_line(line: str, lineno: int, data=None, tip=None) -> ChainRecord:
    """A record line checked as the loader before its one key scan checked it:
    parse_record_line, then no key twice in the update, refused at lineno."""
    record = parse_record_line(line, lineno, data, tip)
    try:
        check_keys(record.update)
    except MalformedBatchError as exc:
        raise StorageViolation(StorageViolationKind.CORRUPT_RECORD, str(exc), line=lineno) from exc
    return record


def _edge_examples(test):
    for update in _EDGE_UPDATES:
        test = example(f"7 {'ab' * 32} - {update}", 5)(test)
    return test


@settings(max_examples=250, deadline=None)
@given(_record_lines(), st.integers(2, 10**6))
@_edge_examples
@example(_GOOD, 2)
@example(_GOOD.replace("null", '"\\u00e9"'), 3)
@example("1\n" + _GOOD[1:], 4)
def test_parse_record_line_agrees_with_the_parser_it_replaced(line, lineno):
    """The check-once parser, with the loader's no-key-twice rule, accepts
    exactly the lines that decoding every row and comparing the re-rendered
    line accepts, with equal records and rows, and refuses the rest as
    CORRUPT_RECORD at the same line."""
    try:
        expected = parse_record_line_oracle(line, lineno)
    except StorageViolation as refusal:
        assert refusal.kind is StorageViolationKind.CORRUPT_RECORD
        with pytest.raises(StorageViolation) as excinfo:
            _check_line(line, lineno)
        assert (excinfo.value.kind, excinfo.value.line) == (refusal.kind, lineno)
        return
    lid, stored_hash, prev_hash, update = _check_line(line, lineno)
    assert (lid, stored_hash, prev_hash) == (expected.lid, expected.hash, expected.prev_hash)
    rows = tuple(UpdateRecord(**row) for row in json.loads(expected.update))
    assert update == expected.update
    assert decode_rows(row_texts(update)) == rows
    assert row_count(update) == len(rows)


_NOT_A_LINE = "record line is not <lid> <hash hex> <prevHash hex or -> <update>"


@pytest.mark.parametrize(
    ("line", "message"),
    [
        (_GOOD.replace(" - ", " -- "), _NOT_A_LINE),
        (_GOOD.replace("ab", "AB", 1) + " ", _NOT_A_LINE),
        (_GOOD.replace("null", "nul"), "update is not in canonical form"),
        (_GOOD + " ", "update is not in canonical form"),
        # The lid is read before the update is judged.
        ("9" * 5000 + _GOOD[1:].replace("null", "nul"), "Exceeds the limit"),
    ],
    ids=["fields", "fields-and-update", "update", "update-trailing", "lid-first"],
)
def test_parse_record_line_names_the_field_at_fault(line, message):
    with pytest.raises(StorageViolation) as excinfo:
        parse_record_line(line, 3)
    assert excinfo.value.line == 3
    assert excinfo.value.detail.startswith(message)


def test_a_load_names_the_line_whose_update_holds_a_key_twice(tmp_path):
    """A key twice in one update is the loader's to refuse, not the line check's."""
    twice = _GOOD.replace("}]", '},{"opid":1,"timestamp":"t1","description":"x"}]')
    assert parse_record_line(twice, 3).update == twice.split(" ", 3)[3].encode()
    path = tmp_path / "l.ctl"
    path.write_text(f"CHAINTABLE-LEDGER v1 Events double-sha256-v1\n{_GOOD}\n{twice}\n")
    with pytest.raises(StorageViolation) as excinfo:
        load_ledger(path)
    assert (excinfo.value.kind, excinfo.value.line) == (StorageViolationKind.CORRUPT_RECORD, 3)
    assert excinfo.value.detail.startswith('duplicate key within batch: {"opid":1,"timestamp":"t1"}')


# Texts that are not 64 lowercase ASCII hex digits, each refused once as the
# hash and once as the prevHash of a good line; "-" is refused as a hash.
_BAD_HASHES = {
    "upper-case": "AB" * 32,
    "mixed-case": "a" * 63 + "A",
    "62 chars": "00" * 31,
    "63 chars": "ab" * 31 + "a",
    "65 chars": "ab" * 32 + "a",
    "66 chars": "00" * 33,
    "trailing newline": "ab" * 32 + "\n",
    "arabic digits": "\u0663" * 64,
    "fullwidth": "\uff11" * 64,
    "0x": "0x" + "a" * 62,
    "G": "G" * 64,
    "empty": "",
}
_BAD_HASH_FIELDS = [
    *(
        pytest.param(field, text, id=f"{name}-{label}")
        for field, name in ((1, "hash"), (2, "prevHash"))
        for label, text in _BAD_HASHES.items()
    ),
    pytest.param(1, "-", id="hash-dash"),
]


@pytest.mark.parametrize("field, text", _BAD_HASH_FIELDS)
def test_parse_record_line_refuses_a_bad_hash_field(field, text):
    fields = ["7", "ab" * 32, "cd" * 32, '[{"opid":1,"timestamp":"t1","description":null}]']
    assert parse_record_line(" ".join(fields), 5)[2] == "cd" * 32
    fields[field] = text
    with pytest.raises(StorageViolation) as excinfo:
        parse_record_line(" ".join(fields), 5)
    assert (excinfo.value.kind, excinfo.value.line) == (StorageViolationKind.CORRUPT_RECORD, 5)


@pytest.mark.parametrize(
    "update",
    [
        '[{"opid":1,"timestamp":"' + "\\" * 10**6,
        '[{"opid":1,"timestamp":"' + "a" * 10**6,
        '[{"opid":1,"timestamp":"t","description":"' + "a\\n" * (10**6 // 3),
        '[{"opid":' + "9" * 10**6,
    ],
    ids=["backslashes", "letters", "escapes", "digits"],
)
def test_a_hostile_update_is_refused_in_one_pass(update):
    """A 1 MB unterminated update is refused without backtracking."""
    start = time.perf_counter()
    with pytest.raises(StorageViolation) as excinfo:
        parse_record_line(f"7 {'ab' * 32} - {update}", 2)
    assert excinfo.value.kind is StorageViolationKind.CORRUPT_RECORD
    assert time.perf_counter() - start < 0.5


def test_file_prefix_is_invariant_across_appends(tmp_path):
    rng = Random(13)
    path = tmp_path / "l.ctl"
    ledger = Ledger()
    with LedgerFile.create(path, "Events") as lf:
        for _ in range(20):
            before = path.read_bytes()
            record = append_batch(ledger, random_batch(rng))
            lf.append(record)
            after = path.read_bytes()
            assert after.startswith(before)
            assert len(after) > len(before)
    assert verify_chain(load_ledger(path)) is None


# Opens the ledger at argv[1], fails one append on RLIMIT_FSIZE (set in this
# process only), lifts the limit, then either closes (argv[2] == "close") or
# appends the same record again; prints the failed append's errno.
_FAILED_APPEND_CHILD = """
import os, resource, sys
from chaintable import Ledger, LedgerFile, UpdateBatch, UpdateRecord, append_batch

path, then = sys.argv[1], sys.argv[2]
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
with LedgerFile.open(path) as lf:
    batch = UpdateBatch([UpdateRecord(9, "t9", "after a failed write")])
    record = append_batch(Ledger(list(lf.ledger.records)), batch)
    resource.setrlimit(resource.RLIMIT_FSIZE, (os.path.getsize(path) + 20, hard))
    try:
        lf.append(record)
    except OSError as exc:
        print(exc.errno)
    resource.setrlimit(resource.RLIMIT_FSIZE, (hard, hard))
    if then == "append":
        lf.append(record)
"""


@pytest.mark.parametrize("then", ["close", "append"])
def test_failed_append_leaves_no_bytes_queued(tmp_path, then):
    path = tmp_path / "l.ctl"
    ledger = _write_worked_file(path)
    before = path.read_bytes()
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _FAILED_APPEND_CHILD, str(path), then],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(errno.EFBIG)]
    if then == "close":
        assert path.read_bytes() == before
        return
    record = append_batch(ledger, UpdateBatch([UpdateRecord(9, "t9", "after a failed write")]))
    loaded = load_ledger(path)
    assert verify_chain(loaded) is None
    assert loaded.records == ledger.records
    assert path.read_bytes() == before + (render_record(record) + "\n").encode("utf-8")


# --- one key scan per load -----------------------------------------------------

_KEY_TEXT_BYTES = '{"opid":1,"timestamp":"t"'  # a key text's bytes outside any row
_SCAN_TIMESTAMPS = ("t", 't"q', "t\\", "é€", _KEY_TEXT_BYTES)
_SCAN_DESCRIPTIONS = (
    None,
    "d",
    '{"opid":2,"timestamp":"t","description":null}',
    ',"description":"x"',
)
_scan_rows = st.tuples(
    st.integers(1, 2), st.sampled_from(_SCAN_TIMESTAMPS), st.sampled_from(_SCAN_DESCRIPTIONS)
)


def _json_update(*rows) -> bytes:
    """The canonical bytes of rows (opid, timestamp, description), written by
    json.dumps, so a batch may hold a key twice."""
    rows = [{"opid": o, "timestamp": t, "description": d} for o, t, d in rows]
    return json.dumps(rows, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


_NON_CANONICAL = _json_update((1, "t", "d")).replace(b",", b", ", 1)
_UNDECODABLE = b'[{"opid":1,"timestamp":"\xff","description":null}]'
_scan_updates = st.one_of(
    st.lists(_scan_rows, min_size=1, max_size=3).map(lambda rows: _json_update(*rows)),
    st.sampled_from((_NON_CANONICAL, _UNDECODABLE)),
)
# Torn tails: none, one holding a key text no record holds, one holding a key twice.
_TORN_NEW_KEY = b"9 " + b"ab" * 32 + b' - [{"opid":9,"timestamp":"torn","description":null}]'
_TORN_KEY_TWICE = b"9 " + b"ab" * 32 + b" - " + _json_update((1, "t", None), (1, "t", None))
_SCAN_TAILS = (b"", _TORN_NEW_KEY, _TORN_KEY_TWICE)


def _ledger_bytes(name: str, updates, tail: bytes) -> bytes:
    """A ledger file of name and one record line per update (lids 1.., any
    hashes: loading does not verify the chain), plus an unterminated tail."""
    lines, prev = [f"CHAINTABLE-LEDGER v1 {name} double-sha256-v1".encode("utf-8")], b"-"
    for lid, update in enumerate(updates, start=1):
        hash_hex = f"{lid:064x}".encode()
        lines.append(b"%d %s %s %s" % (lid, hash_hex, prev, update))
        prev = hash_hex
    return b"".join(line + b"\n" for line in lines) + tail


def _load_line_by_line(raw: bytes, repair: bool) -> Ledger:
    """The loader before its one key scan: each line's key check after its line check."""
    lines = stored_lines(raw, repair)
    name = parse_header(next(lines)[1], "CHAINTABLE-LEDGER v1 ", " double-sha256-v1")
    records: list[ChainRecord] = []
    for lineno, text, data in lines:
        records.append(_check_line(text, lineno, data, records[-1].hash if records else None))
    return Ledger(records, name)


def _outcome(load, raw: bytes, repair: bool):
    """(name, records) of a load, or its refusal's (class, message, kind, line)."""
    try:
        ledger = load(raw, repair)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "kind", None), getattr(exc, "line", None)
    return ledger.name, ledger.records


_TWICE = _json_update((2, 't"q', "d"), (2, 't"q', None))  # a batch holding a key twice
_ONCE = _json_update((1, "t", "d"))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(("Events", _KEY_TEXT_BYTES)),
    st.lists(_scan_updates, max_size=6),
    st.sampled_from(_SCAN_TAILS),
    st.booleans(),
)
@example("Events", [_ONCE, _TWICE], b"", False)  # a key twice in one batch only
@example("Events", [_ONCE, _ONCE, _TWICE], b"", False)  # and across two batches
@example("Events", [_ONCE, _ONCE], b"", False)  # across two batches only: loads
@example("Events", [_NON_CANONICAL, _TWICE], b"", False)
@example("Events", [_TWICE, _NON_CANONICAL], b"", False)
@example("Events", [_UNDECODABLE, _TWICE], b"", False)
@example("Events", [_ONCE, _TWICE, _UNDECODABLE], b"", False)
@example("Events", [_TWICE], _TORN_NEW_KEY, False)
@example("Events", [_ONCE], _TORN_KEY_TWICE, False)
@example("Events", [_ONCE], _TORN_NEW_KEY, True)
@example("Events", [_ONCE], _TORN_KEY_TWICE, True)
@example(_KEY_TEXT_BYTES, [], b"", False)
@example(_KEY_TEXT_BYTES, [_ONCE], b"", False)
def test_one_key_scan_loads_as_the_line_by_line_check(name, updates, tail, repair):
    """Every load ends as the line-by-line check ends it: the same records,
    or the same refusal of the same line. A loaded ledger's key set is its
    records' key texts, excluding the header's and a torn tail's."""
    raw = _ledger_bytes(name, updates, tail)
    expected = _outcome(_load_line_by_line, raw, repair)
    assert _outcome(lambda raw, repair: _parse_file(raw, repair)[0], raw, repair) == expected
    if not isinstance(expected[0], type):
        assert _parse_file(raw, repair)[1] == {
            key for record in expected[1] for key in key_texts(record.update)
        }
