"""Record hashing against the independent reference implementation.

reference_sha256 is a from-scratch SHA-256 that never touches hashlib; the
golden file was produced by it before the package existed and is frozen.
"""

import hashlib

from hypothesis import given
from hypothesis import strategies as st

import reference_sha256
from chaintable import UpdateBatch, UpdateRecord, compute_hash
from conftest import WORKED_BATCHES, build_worked_ledger, golden_digest


def _double_via_hashlib(data: bytes) -> str:
    return hashlib.sha256(hashlib.sha256(data).digest()).hexdigest()


def test_empty_input_golden(golden):
    assert reference_sha256.double_sha256_hex(b"") == golden["empty_input"]
    assert _double_via_hashlib(b"") == golden["empty_input"]


def test_golden_preimages_still_match_reference(golden):
    for case in golden["preimages"]:
        preimage = case["preimage"].encode("utf-8")
        assert reference_sha256.double_sha256_hex(preimage) == case["double_sha256"]
        assert _double_via_hashlib(preimage) == case["double_sha256"]


def test_compute_hash_matches_goldens(golden):
    ledger = build_worked_ledger()
    labels = ("worked-example-lid-1", "worked-example-lid-2", "worked-example-lid-3")
    for record, label in zip(ledger.records, labels):
        assert record.hash == golden_digest(golden, label)


def test_genesis_preimage_has_empty_third_segment(golden):
    h = compute_hash(1, WORKED_BATCHES[0], None)
    assert h == golden_digest(golden, "worked-example-lid-1")
    # The same call with a prev hash present must differ.
    assert compute_hash(1, WORKED_BATCHES[0], h) != h


def test_tampered_update_changes_hash(golden):
    ledger = build_worked_ledger()
    h2 = ledger.records[1].hash
    honest = compute_hash(3, UpdateBatch([UpdateRecord(1, "t4", "opt4")]), h2)
    tampered = compute_hash(3, UpdateBatch([UpdateRecord(1, "t4", "opt6")]), h2)
    assert honest == golden_digest(golden, "worked-example-lid-3")
    assert tampered == golden_digest(golden, "worked-example-lid-3-tampered-opt6")
    assert honest != tampered


def test_compute_hash_is_deterministic():
    batch = UpdateBatch([UpdateRecord(4, "t7", "x")])
    prev = "11" * 32
    assert compute_hash(5, batch, prev) == compute_hash(5, batch, prev)


@given(st.binary(min_size=0, max_size=300))
def test_reference_sha256_agrees_with_hashlib(data):
    assert reference_sha256.sha256(data) == hashlib.sha256(data).digest()
    assert reference_sha256.double_sha256_hex(data) == _double_via_hashlib(data)


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=12
)


@given(
    lid=st.integers(min_value=1, max_value=10**6),
    opid=st.integers(min_value=1, max_value=10**6),
    timestamp=_text,
    description=st.one_of(st.none(), _text),
)
def test_any_single_field_change_changes_hash(lid, opid, timestamp, description):
    prev = "22" * 32
    base = compute_hash(lid, UpdateBatch([UpdateRecord(opid, timestamp, description)]), prev)
    variants = [
        compute_hash(lid + 1, UpdateBatch([UpdateRecord(opid, timestamp, description)]), prev),
        compute_hash(lid, UpdateBatch([UpdateRecord(opid + 1, timestamp, description)]), prev),
        compute_hash(lid, UpdateBatch([UpdateRecord(opid, timestamp + "x", description)]), prev),
        compute_hash(
            lid,
            UpdateBatch(
                [UpdateRecord(opid, timestamp, "x" if description is None else description + "x")]
            ),
            prev,
        ),
        compute_hash(lid, UpdateBatch([UpdateRecord(opid, timestamp, description)]), None),
    ]
    for variant in variants:
        assert variant != base
