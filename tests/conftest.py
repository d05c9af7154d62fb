"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import atexit
import contextlib
import io
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path
from random import Random

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from chaintable import (
    ChainRecord,
    ChainTableStore,
    Ledger,
    MalformedBatchError,
    StorageViolation,
    StorageViolationKind,
    UpdateBatch,
    UpdateRecord,
    append_batch,
    decode_update,
)
from chaintable.cli import main as cli_main

# Property tests draw the same examples on every run and keep no example
# database, so a run neither varies nor leaves a .hypothesis/ directory.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# Hypothesis also caches constants it reads from the source while tests are
# collected; that cache goes to a temporary directory, removed at exit.
_hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
atexit.register(shutil.rmtree, _hypothesis_home, ignore_errors=True)
set_hypothesis_home_dir(_hypothesis_home)

GOLDEN_PATH = Path(__file__).parent / "golden" / "double_sha256.json"

# The worked example: Insertion 1, Insertion 2 (two rows), Update 1.
WORKED_BATCHES = (
    UpdateBatch([UpdateRecord(1, "t1", "opt1")]),
    UpdateBatch([UpdateRecord(2, "t2", "opt2"), UpdateRecord(3, "t3", "opt3")]),
    UpdateBatch([UpdateRecord(1, "t4", "opt4")]),
)

WORKED_HISTORY = (
    UpdateRecord(1, "t1", "opt1"),
    UpdateRecord(2, "t2", "opt2"),
    UpdateRecord(3, "t3", "opt3"),
    UpdateRecord(1, "t4", "opt4"),
)

WORKED_VIEW = (
    (1, "t4", "opt4"),
    (2, "t2", "opt2"),
    (3, "t3", "opt3"),
)


@pytest.fixture(scope="session")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def golden_digest(golden: dict, label: str) -> str:
    for case in golden["preimages"]:
        if case["label"] == label:
            return case["double_sha256"]
    raise KeyError(label)


def build_worked_ledger() -> Ledger:
    ledger = Ledger()
    for batch in WORKED_BATCHES:
        append_batch(ledger, batch)
    return ledger


def replay_ledger(ledger: Ledger) -> tuple[UpdateRecord, ...]:
    """Oracle for materialize: replay the chain records directly, without
    reconstruct or replay_rows, so the two routes can be checked against each
    other. The last-replayed record per opid wins (lid order, then
    within-batch order)."""
    latest: dict[int, UpdateRecord] = {}
    for record in ledger.records:
        for update in decode_update(record.update).records:
            latest[update.opid] = update
    return tuple(latest[opid] for opid in sorted(latest))


_ORACLE_HEX = set("0123456789abcdef")
_ORACLE_LID = re.compile(r"^[1-9][0-9]*$")


def _oracle_hash(text: str) -> str:
    if len(text) != 64 or not set(text) <= _ORACLE_HEX:
        raise ValueError(f"not a 64-char lowercase hex digest: {text!r}")
    return text


def _oracle_record(obj: object) -> UpdateRecord:
    if not isinstance(obj, dict):
        raise MalformedBatchError("record must be a JSON object")
    if set(obj) != {"opid", "timestamp", "description"}:
        raise MalformedBatchError("record object must have exactly three keys")
    return UpdateRecord(obj["opid"], obj["timestamp"], obj["description"])


def parse_record_line_oracle(line: str, lineno: int) -> ChainRecord:
    """Oracle for a record line as a load checks it (storage.parse_record_line,
    then no key twice): build every row as an UpdateRecord, then require the
    line to equal its re-rendering, made here with json.dumps rather than the
    library's encoder."""

    def corrupt(detail: str) -> StorageViolation:
        return StorageViolation(StorageViolationKind.CORRUPT_RECORD, detail, line=lineno)

    parts = line.split(" ", 3)
    if len(parts) != 4:
        raise corrupt("record line does not have 4 space-separated fields")
    lid_text, hash_text, prev_text, update_text = parts
    if not _ORACLE_LID.match(lid_text):
        raise corrupt(f"bad lid field {lid_text!r}")
    try:
        lid = int(lid_text)
        stored_hash = _oracle_hash(hash_text)
        prev_hash = None if prev_text == "-" else _oracle_hash(prev_text)
        data = json.loads(update_text)
        if not isinstance(data, list):
            raise MalformedBatchError("update encoding must be a JSON array of records")
        records = [_oracle_record(obj) for obj in data]
        UpdateBatch(records)  # the batch rules: no key twice
    except (ValueError, RecursionError, MalformedBatchError) as exc:
        raise corrupt(str(exc)) from exc
    rendered = json.dumps(
        [{"opid": r.opid, "timestamp": r.timestamp, "description": r.description} for r in records],
        separators=(",", ":"),
        ensure_ascii=False,
    )
    prev = "-" if prev_hash is None else prev_hash
    if f"{lid} {stored_hash} {prev} {rendered}" != line:
        raise corrupt("record line is not in canonical form")
    return ChainRecord(lid, stored_hash, prev_hash, rendered.encode("utf-8"))


@pytest.fixture
def worked_ledger() -> Ledger:
    return build_worked_ledger()


@pytest.fixture
def worked_store(tmp_path: Path) -> tuple[Path, Path]:
    """On-disk worked example; returns (ledger_path, table_path)."""
    ledger_path = tmp_path / "ledger.ctl"
    table_path = tmp_path / "table.ctd"
    with ChainTableStore.create(ledger_path, table_path, "Events") as store:
        for batch in WORKED_BATCHES:
            store.append(batch)
    return ledger_path, table_path


def random_batch(rng: Random, counter: list[int] | None = None) -> UpdateBatch:
    """A small batch; with counter, (opid, timestamp) keys are globally unique."""
    records = []
    for _ in range(rng.randint(1, 3)):
        if counter is None:
            opid = rng.randint(1, 9)
            timestamp = f"t{rng.randint(1, 99)}"
        else:
            counter[0] += 1
            opid = rng.randint(1, 9)
            timestamp = f"t{counter[0]}"
        description = None if rng.random() < 0.2 else f"d{rng.randint(0, 999)}"
        record = UpdateRecord(opid, timestamp, description)
        if any(r.key == record.key for r in records):
            continue
        records.append(record)
    if not records:
        records.append(UpdateRecord(1, f"t{rng.randint(100, 999)}", "d"))
    return UpdateBatch(records)


def random_ledger(rng: Random, n: int) -> Ledger:
    ledger = Ledger()
    for _ in range(n):
        append_batch(ledger, random_batch(rng))
    return ledger


def random_op_sequence(rng: Random, n_batches: int) -> list[UpdateBatch]:
    """Insert/update/delete mix with globally unique (opid, timestamp) keys."""
    counter = 0
    live_opids: list[int] = []
    next_opid = 1
    batches: list[UpdateBatch] = []
    for _ in range(n_batches):
        records = []
        for _ in range(rng.randint(1, 3)):
            counter += 1
            timestamp = f"t{counter}"
            choice = rng.random()
            if not live_opids or choice < 0.5:
                opid = next_opid
                next_opid += 1
                live_opids.append(opid)
                records.append(UpdateRecord(opid, timestamp, f"ins{counter}"))
            elif choice < 0.8:
                records.append(UpdateRecord(rng.choice(live_opids), timestamp, f"upd{counter}"))
            else:
                records.append(UpdateRecord(rng.choice(live_opids), timestamp, None))
        batches.append(UpdateBatch(records))
    return batches


def invoke_cli(argv: list, stdin_text: str | None = None) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr). Stdout is a
    UTF-8 text layer over bytes, so what the CLI writes to sys.stdout.buffer is
    captured too."""
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), "utf-8"), io.StringIO()
    old_stdin = sys.stdin
    try:
        sys.stdin = io.TextIOWrapper(io.BytesIO((stdin_text or "").encode("utf-8")), "utf-8")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main([str(a) for a in argv])
    finally:
        sys.stdin = old_stdin
    stdout.flush()
    return code, stdout.buffer.getvalue().decode("utf-8"), stderr.getvalue()
