"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Each criterion states its runtime bound inline and fails if exceeded.
Golden digests come from tests/golden/double_sha256.json, which was produced
by the independent reference implementation (tests/gen_golden.py) before the
package was built and is frozen; nothing here recomputes goldens.
"""

import hashlib
import json
import time
from random import Random

import reference_sha256
from chaintable import (
    ChainRecord,
    DataTable,
    InvalidLedgerError,
    Ledger,
    StorageViolation,
    StorageViolationKind,
    UpdateBatch,
    UpdateRecord,
    append_batch,
    canonical_encode_update,
    decode_update,
    load_ledger,
    materialize,
    measure_rewrite_cascade,
    read_data_file,
    reconstruct,
    replay_rows,
    verify_against_table,
    verify_chain,
)
from chaintable.chain import compute_hash
from chaintable.encoding import encode_record
from chaintable.storage import LedgerFile
from conftest import (
    GOLDEN_PATH,
    WORKED_BATCHES,
    WORKED_HISTORY,
    WORKED_VIEW,
    build_worked_ledger,
    golden_digest,
    invoke_cli,
    random_batch,
    random_ledger,
    random_op_sequence,
    replay_ledger,
)

B1 = '[{"opid":1,"timestamp":"t1","description":"opt1"}]'
B2 = (
    '[{"opid":2,"timestamp":"t2","description":"opt2"},'
    '{"opid":3,"timestamp":"t3","description":"opt3"}]'
)
B3 = '[{"opid":1,"timestamp":"t4","description":"opt4"}]'


def _run(criterion: int, description: str, bound_seconds: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < bound_seconds, (
            f"criterion {criterion} took {elapsed:.2f}s, bound is {bound_seconds}s"
        )
    except BaseException:
        print(f"ACCEPTANCE {criterion} FAIL: {description}")
        raise
    print(
        f"ACCEPTANCE {criterion} PASS: {description} "
        f"({elapsed:.2f}s < {bound_seconds}s)"
    )


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _cli_worked_store(tmp_path):
    tmp_path.mkdir(exist_ok=True)
    ledger, table = tmp_path / "l.ctl", tmp_path / "t.ctd"
    assert invoke_cli(["init", "Events", "--ledger", ledger, "--table", table])[0] == 0
    for batch in (B1, B2, B3):
        code, _, err = invoke_cli(["append", "--ledger", ledger, "--table", table], batch)
        assert code == 0, err
    return ledger, table


def test_acceptance_1_worked_example_reproduction(tmp_path):
    def body():
        golden = _golden()
        ledger_path, table_path = _cli_worked_store(tmp_path)

        ledger = load_ledger(ledger_path)
        assert [r.lid for r in ledger.records] == [1, 2, 3]
        assert ledger.records[0].prev_hash is None
        assert ledger.records[1].prev_hash == ledger.records[0].hash
        assert ledger.records[2].prev_hash == ledger.records[1].hash
        labels = ("worked-example-lid-1", "worked-example-lid-2", "worked-example-lid-3")
        for record, label in zip(ledger.records, labels):
            assert record.hash == golden_digest(golden, label)

        name, rows = read_data_file(table_path)
        assert name == "Events" and tuple(rows) == WORKED_HISTORY

        rebuilt_path = table_path.with_name("rebuilt.ctd")
        code, _, _ = invoke_cli(["reconstruct", "--ledger", ledger_path, "--out", rebuilt_path])
        assert code == 0
        assert rebuilt_path.read_bytes() == table_path.read_bytes()

        code, out, _ = invoke_cli(["materialize", "--ledger", ledger_path, "--json"])
        assert code == 0
        entries = json.loads(out)["view"]
        assert [(e["opid"], e["timestamp"], e["description"]) for e in entries] == list(
            WORKED_VIEW
        )

    _run(1, "worked example reproduces the three-record chain, history, and view", 1.0, body)


def test_acceptance_2_scenario_one_detection(tmp_path):
    def body():
        # In-place mutation of lid 2: caught at lid 2.
        ledger_path, table_path = _cli_worked_store(tmp_path / "a")
        code, _, _ = invoke_cli(
            ["tamper", "--ledger", ledger_path, "--scenario", "1", "--lid", "2", "--set", "opt5"]
        )
        assert code == 0
        code, out, _ = invoke_cli(["verify", "--ledger", ledger_path, "--json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["chain"]["first_invalid_lid"] == 2

        # Adversarial rehash of lid 2 only: caught at lid 3.
        ledger_path, table_path = _cli_worked_store(tmp_path / "b")
        code, _, _ = invoke_cli(
            [
                "tamper", "--ledger", ledger_path, "--scenario", "1",
                "--lid", "2", "--set", "opt5", "--rehash-through", "2",
            ]
        )
        assert code == 0
        code, out, _ = invoke_cli(["verify", "--ledger", ledger_path, "--json"])
        assert code == 1
        assert json.loads(out)["chain"]["first_invalid_lid"] == 3

    _run(2, "in-place lid-2 tamper detected at lid 2, partial rehash at lid 3, exit 1", 1.0, body)


def test_acceptance_3_scenario_two_detection(tmp_path):
    def body():
        ledger_path, table_path = _cli_worked_store(tmp_path)
        code, _, _ = invoke_cli(
            ["tamper", "--ledger", ledger_path, "--scenario", "2", "--set", "opt6"]
        )
        assert code == 0
        # Chain verification alone passes.
        assert invoke_cli(["verify", "--ledger", ledger_path])[0] == 0
        # The honest table exposes the lie at the final row.
        code, out, _ = invoke_cli(
            ["verify", "--ledger", ledger_path, "--table", table_path, "--json"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["chain"]["valid"] is True
        divergences = payload["table"]["divergences"]
        assert len(divergences) == 1 and divergences[0]["position"] == len(WORKED_HISTORY)

    _run(3, "full-rehash last-record tamper passes the chain, fails the table check", 1.0, body)


def test_acceptance_4_rewrite_cascade_law():
    def body():
        rng = Random(101)
        for _ in range(200):
            n = rng.randint(1, 64)
            ledger = random_ledger(rng, n)
            for k in range(1, n + 1):
                assert measure_rewrite_cascade(ledger, k) == n - k + 1

    _run(4, "rewrite cascade is exactly n-k+1 on 200 random ledgers, all k", 30.0, body)


def _encoded(records) -> bytes:
    return canonical_encode_update(UpdateBatch(records))


def _field_mutations(record: ChainRecord):
    """Six single-field mutants of one chain record, each still representable."""
    first, *rest = decode_update(record.update).records
    max_opid = max(r.opid for r in [first, *rest])
    yield "opid", ChainRecord(
        record.lid, record.hash, record.prev_hash,
        _encoded([UpdateRecord(max_opid + 1, first.timestamp, first.description)] + rest),
    )
    yield "timestamp", ChainRecord(
        record.lid, record.hash, record.prev_hash,
        _encoded([UpdateRecord(first.opid, first.timestamp + "x", first.description)] + rest),
    )
    new_description = "x" if first.description is None else first.description + "x"
    yield "description", ChainRecord(
        record.lid, record.hash, record.prev_hash,
        _encoded([UpdateRecord(first.opid, first.timestamp, new_description)] + rest),
    )
    flipped = _flip_last_digit(record.hash)
    yield "hash", ChainRecord(record.lid, flipped, record.prev_hash, record.update)
    new_prev = "55" * 32 if record.prev_hash is None else _flip_last_digit(record.prev_hash)
    yield "prevHash", ChainRecord(record.lid, record.hash, new_prev, record.update)
    yield "lid", ChainRecord(record.lid + 1, record.hash, record.prev_hash, record.update)


def _flip_last_digit(hex_text: str) -> str:
    return hex_text[:-1] + format(int(hex_text[-1], 16) ^ 0xF, "x")


def _rehashed_suffix(ledger: Ledger, k: int) -> Ledger:
    """Mutate the update at lid k, then forge hashes k..n so the chain verifies."""
    records = list(ledger.records)
    target = records[k - 1]
    first, *rest = decode_update(target.update).records
    forged_update = _encoded(
        [UpdateRecord(first.opid, first.timestamp + "forged", first.description)] + rest
    )
    updates = [r.update for r in records]
    updates[k - 1] = forged_update
    prev = records[k - 2].hash if k > 1 else None
    for i in range(k - 1, len(records)):
        new_hash = compute_hash(i + 1, updates[i], prev)
        records[i] = ChainRecord(i + 1, new_hash, prev, updates[i])
        prev = new_hash
    return Ledger(records)


def test_acceptance_5_detection_completeness_sweep():
    def body():
        rng = Random(202)
        escapes = []
        for n in range(1, 17):
            for _ in range(3):
                ledger = random_ledger(rng, n)
                honest_table = reconstruct(ledger)
                for index in range(n):
                    for field, mutant in _field_mutations(ledger.records[index]):
                        mutated = Ledger(list(ledger.records))
                        mutated.records[index] = mutant
                        try:
                            verify_chain(mutated)
                        except InvalidLedgerError:
                            continue
                        escapes.append((n, index + 1, field))
                # The one rewrite that fools verify_chain: a fully re-hashed suffix.
                for k in range(1, n + 1):
                    forged = _rehashed_suffix(ledger, k)
                    assert verify_chain(forged) is None
                    if not verify_against_table(forged, honest_table):
                        escapes.append((n, k, "rehashed-suffix"))
        assert escapes == []

    _run(5, "exhaustive single-field mutation sweep has zero escapes (n <= 16)", 60.0, body)


def test_acceptance_6_round_trip_equivalence():
    def body():
        rng = Random(303)
        for _ in range(500):
            history, ledger = [], Ledger()
            for batch in random_op_sequence(rng, rng.randint(1, 10)):
                append_batch(ledger, batch)
                history.extend(batch.records)
            table = DataTable("Events", tuple(history))
            assert len(table.keys()) == len(table)  # keys stay unique
            rebuilt = reconstruct(ledger)
            assert [encode_record(r) for r in rebuilt.rows] == [
                encode_record(r) for r in table.rows
            ]
            assert materialize(ledger) == replay_rows(table.rows)
            assert materialize(ledger) == replay_ledger(ledger)

    _run(6, "500 random op sequences: reconstruct == history, materialize == view", 30.0, body)


def test_acceptance_7_write_principle_enforcement(tmp_path):
    def body():
        rng = Random(404)
        path = tmp_path / "l.ctl"
        ledger = Ledger()
        with LedgerFile.create(path, "Events") as lf:
            for _ in range(30):
                before = path.read_bytes()
                lf.append(append_batch(ledger, random_batch(rng)))
                assert path.read_bytes().startswith(before)  # prefix invariance

            before = path.read_bytes()
            tip = ledger.tip_hash
            gap = ChainRecord(
                len(ledger) + 5, compute_hash(len(ledger) + 5, WORKED_BATCHES[0], tip),
                tip, WORKED_BATCHES[0],
            )
            bad_prev_hash = "07" * 32
            bad_prev = ChainRecord(
                len(ledger) + 1,
                compute_hash(len(ledger) + 1, WORKED_BATCHES[0], bad_prev_hash),
                bad_prev_hash, WORKED_BATCHES[0],
            )
            for payload, kind in (
                (gap, StorageViolationKind.LID_GAP),
                (bad_prev, StorageViolationKind.PREV_HASH_MISMATCH),
                ([gap, bad_prev], StorageViolationKind.MULTI_RECORD_WRITE),
            ):
                try:
                    lf.append(payload)
                    raise AssertionError(f"{kind} was not rejected")
                except StorageViolation as exc:
                    assert exc.kind is kind
                assert path.read_bytes() == before  # aborts write nothing
        assert verify_chain(load_ledger(path)) is None

    _run(7, "append-only prefix invariance holds; principle violations write nothing", 30.0, body)


def test_acceptance_8_truncation_sweep(tmp_path):
    def body():
        source = tmp_path / "l.ctl"
        with LedgerFile.create(source, "Events") as lf:
            for record in build_worked_ledger().records:
                lf.append(record)
        content = source.read_bytes()
        boundaries = [i + 1 for i, b in enumerate(content) if b == 0x0A]
        header_end = boundaries[0]
        worked = build_worked_ledger().records

        target = tmp_path / "cut.ctl"
        for cut in range(len(content)):
            target.write_bytes(content[:cut])
            try:
                ledger = load_ledger(target)
            except StorageViolation as exc:
                assert exc.kind is StorageViolationKind.CORRUPT_RECORD
                complete = sum(1 for b in boundaries if b <= cut)
                assert exc.line == complete + 1  # only the final partial line
            else:
                assert cut in boundaries  # success only on a full-record prefix
                assert ledger.records == worked[: len(ledger.records)]
                assert verify_chain(ledger) is None
            # The repair flag recovers every prefix with a complete header.
            if cut >= header_end:
                repaired = load_ledger(target, repair=True)
                assert verify_chain(repaired) is None
                complete_records = sum(1 for b in boundaries[1:] if b <= cut)
                assert len(repaired) == complete_records

    _run(8, "every byte-truncation either loads a full-record prefix or is CORRUPT_RECORD", 30.0, body)


def test_acceptance_9_hash_oracle_goldens():
    def body():
        golden = _golden()
        assert reference_sha256.double_sha256_hex(b"") == golden["empty_input"]
        assert (
            hashlib.sha256(hashlib.sha256(b"").digest()).hexdigest() == golden["empty_input"]
        )
        assert len(golden["preimages"]) >= 3
        for case in golden["preimages"]:
            preimage = case["preimage"].encode("utf-8")
            assert reference_sha256.double_sha256_hex(preimage) == case["double_sha256"]
            assert (
                hashlib.sha256(hashlib.sha256(preimage).digest()).hexdigest()
                == case["double_sha256"]
            )
        # The package's record hashing lands on the same golden digests.
        ledger = build_worked_ledger()
        labels = ("worked-example-lid-1", "worked-example-lid-2", "worked-example-lid-3")
        for record, label in zip(ledger.records, labels):
            assert record.hash == golden_digest(golden, label)

    _run(9, "double-SHA-256 goldens match the independent reference implementation", 30.0, body)
