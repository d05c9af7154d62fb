"""chaintable benchmark: one closed-loop client, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's starting history from the seed through the library,
times the workload's operations for about S seconds, checks every output
against the benchmark's own oracle (gen.py), runs two tamper scenarios on
copies, and prints one JSON result as the last line of standard output.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs a
fixed traced schedule and reports per-layer metrics instead. Exits 1 when a
check fails and 2 when it cannot run. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from tracer import FSYNC, TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / ".out"

CHILD_TIMEOUT_S = 150
READS = ("verify", "verify_table", "reconstruct", "materialize", "status")


@dataclass(frozen=True)
class Workload:
    records: int  # starting history, in chain records
    append: str  # "session": in-process ChainTableStore.append; "cli": one process per batch
    round_size: int  # appends per cycle, on a fresh copy of the history
    traced_appends: int  # appends in one traced pass


WORKLOADS = {
    "session_append": Workload(1000, "session", 50, 20),
    "cli_append": Workload(1000, "cli", 4, 3),
    "cli_audit": Workload(10000, "cli", 1, 1),
}
MIN_CYCLES = 3


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- processes ------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], stdout: Path) -> tuple[float, int, float, float]:
    """Run one child to completion: (wall s, exit code, peak RSS MB, start time)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], _child_env(), file_actions=actions)

    def kill(*_: object) -> None:
        os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024, start


# The host's speed drifts by up to a third within a minute, in CPU time as
# well as wall time, so raw wall times spread more between runs than any
# useful bound. A fixed reference process, doing the kind of work the CLI
# does (interpreter start-up, imports, JSON, SHA-256) but not importing
# chaintable, runs before every timed operation and once after the last.
# Each operation is reported at reference speed: seconds * REFERENCE_S /
# mean(reference before, reference after). REFERENCE_S is about the
# reference's median on a 2-core x86 VM, so the numbers stay close to raw
# milliseconds there. Raw medians are printed too.
REFERENCE = """
import argparse, dataclasses, enum, hashlib, json, pathlib, re
rows = [{"opid": i, "timestamp": "2025-03-01T00:00:00.%06dZ" % i,
         "description": "r\u00e9f\u00e9rence " * (i % 8 + 1)} for i in range(2000)]
for row in json.loads(json.dumps(rows, separators=(",", ":"), ensure_ascii=False)):
    hashlib.sha256(hashlib.sha256(json.dumps(row).encode()).digest()).digest()
"""
REFERENCE_S = 0.1
# In-process appends follow the host better with an in-process reference:
# the session worker times child.reference() before each append.
SESSION_REFERENCE_S = 0.002


# --- the store --------------------------------------------------------------


@dataclass
class Store:
    path: Path

    @property
    def ledger(self) -> Path:
        return self.path / "ledger"

    @property
    def data(self) -> Path:
        return self.path / "data"

    def copy_to(self, path: Path) -> "Store":
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        shutil.copyfile(self.ledger, path / "ledger")
        shutil.copyfile(self.data, path / "data")
        return Store(path)

    def size(self) -> int:
        return self.ledger.stat().st_size + self.data.stat().st_size


def build_store(path: Path, batches: list[list[gen.Row]]) -> float:
    """Write the starting history through the library; returns its duration.

    LedgerFile.append is the library's only way to add a ledger record (one
    fsync each); ChainTableStore.append would re-verify the chain per record.
    """
    from chaintable.chain import ChainRecord, compute_hash
    from chaintable.encoding import UpdateBatch, UpdateRecord
    from chaintable.storage import LedgerFile
    from chaintable.table import write_data_file

    shutil.rmtree(path, ignore_errors=True)
    start = time.perf_counter()
    path.mkdir(parents=True)
    rows = []
    with LedgerFile.create(path / "ledger", gen.TABLE_NAME) as ledger:
        prev = None
        for lid, batch in enumerate(batches, start=1):
            update = UpdateBatch(UpdateRecord(*row) for row in batch)
            record = ChainRecord(lid, compute_hash(lid, update, prev), prev, update)
            ledger.append(record)
            prev = record.hash
            rows.extend(update.records)
    write_data_file(path / "data", gen.TABLE_NAME, rows)
    return time.perf_counter() - start


def run_cli_inprocess(argv: list[str]) -> tuple[int, str]:
    """Untimed checks call the CLI in this process and capture its output."""
    from chaintable.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buffer.getvalue()


# --- oracle -----------------------------------------------------------------


class Oracle:
    """What the store must hold after the base history plus j appended batches."""

    def __init__(self, base: list[list[gen.Row]], appended: list[list[gen.Row]]) -> None:
        self.base, self.appended = base, appended
        batches = base + appended
        self.hashes = gen.chain_hashes(batches)
        header = f"CHAINTABLE-LEDGER v1 {gen.TABLE_NAME} double-sha256-v1\n"
        lines = [
            gen.ledger_line(lid, batch, self.hashes[lid - 2] if lid > 1 else None, self.hashes[lid - 1])
            + "\n"
            for lid, batch in enumerate(batches, start=1)
        ]
        n = len(base)
        self.base_ledger = (header + "".join(lines[:n])).encode("utf-8")
        self.append_lines = [line.encode("utf-8") for line in lines[n:]]
        self.base_rows = [row for batch in base for row in batch]
        self.base_data = gen.data_file_bytes(self.base_rows)
        self.view = gen.replay(self.base_rows)

    def rows(self, j: int) -> list[gen.Row]:
        return self.base_rows + [row for batch in self.appended[:j] for row in batch]

    def check_store(self, store: Store, j: int) -> None:
        ledger = store.ledger.read_bytes()
        check(
            ledger == self.base_ledger + b"".join(self.append_lines[:j]),
            f"ledger after {j} appends differs from the oracle's chain",
        )
        tip = ledger.rsplit(b"\n", 2)[-2].split(b" ", 2)[1].decode()
        check(tip == self.hashes[len(self.base) + j - 1], "tip hash differs from hashlib's")
        check(
            store.data.read_bytes() == gen.data_file_bytes(self.rows(j)),
            f"data file after {j} appends differs from the generated rows",
        )


# --- measurement ------------------------------------------------------------


@dataclass
class Run:
    name: str
    workload: Workload
    seed: int
    seconds: float
    trace: bool
    records: int
    tamper_input: bool
    rng: random.Random = field(init=False)
    # (kind, seconds, own reference seconds or None) in the order measured.
    # Kind "reference" is the reference process, run before every timed
    # operation and once at the end; it brackets the operations that have
    # no reference of their own.
    timeline: list[tuple[str, float, float | None]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def reference(self) -> None:
        wall, code, _, _ = spawn(["-c", REFERENCE], WORK / "reference.out")
        check(code == 0, f"reference process exited {code}")
        self.timeline.append(("reference", wall, None))

    def record(
        self, kind: str, seconds: float, code: int = 0, rss_mb: float = 0.0, own: float | None = None
    ) -> None:
        """Count one timed operation; a failed one ends the run without a result."""
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        check(code == 0, f"timed {kind} exited {code}")
        self.timeline.append((kind, seconds, own))

    def raw(self) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {}
        for kind, seconds, _ in self.timeline:
            samples.setdefault(kind, []).append(seconds)
        return samples

    def at_reference_speed(self) -> dict[str, list[float]]:
        """Every operation's seconds at reference speed: scaled by its own
        in-process reference, or else by the mean of the reference runs just
        before and just after it."""
        samples: dict[str, list[float]] = {}
        pending: list[tuple[str, float]] = []
        before = 0.0
        for kind, seconds, own in self.timeline:
            if own is not None:
                samples.setdefault(kind, []).append(seconds * SESSION_REFERENCE_S / own)
            elif kind != "reference":
                pending.append((kind, seconds))
            else:
                for op, op_seconds in pending:
                    samples.setdefault(op, []).append(op_seconds * 2 * REFERENCE_S / (before + seconds))
                pending, before = [], seconds
        check(not pending, "operations after the last reference run")
        return samples


def read_argv(kind: str, store: Store, out: Path) -> list[str]:
    argv = {
        "verify": ["verify"],
        "verify_table": ["verify", "--table", str(store.data)],
        "reconstruct": ["reconstruct", "--out", str(out)],
        "materialize": ["materialize", "--json"],
        "status": ["status"],
    }[kind]
    return [*argv, "--ledger", str(store.ledger)]


def check_read(kind: str, stdout: Path, rebuilt: Path, oracle: Oracle, n: int) -> None:
    text = stdout.read_text(encoding="utf-8")
    if kind in ("verify", "verify_table"):
        check(f"chain: valid ({n} records)" in text, f"{kind}: chain not reported valid")
    if kind == "verify_table":
        check(f"table: consistent ({len(oracle.base_rows)} rows)" in text, "table not consistent")
    if kind == "reconstruct":
        check(rebuilt.read_bytes() == oracle.base_data, "reconstruct output differs from the data file")
    if kind == "materialize":
        check(json.loads(text)["view"] == oracle.view, "materialize differs from the replay")
    if kind == "status":
        check(f"tip hash: {oracle.hashes[n - 1]}" in text, "status reports another tip")


def read_rotation(run: Run, base: Store, oracle: Oracle) -> None:
    """The five read commands, one process each, in a shuffled order."""
    stdout, rebuilt = WORK / "read.out", WORK / "rebuilt"
    for kind in run.rng.sample(READS, len(READS)):
        run.reference()
        wall, code, rss, _ = spawn(["-m", "chaintable", *read_argv(kind, base, rebuilt)], stdout)
        run.record(kind, wall, code, rss)
        check_read(kind, stdout, rebuilt, oracle, run.records)


def write_batches(path: Path, batches: list[list[gen.Row]]) -> None:
    path.write_text("".join(gen.batch_json(b) + "\n" for b in batches), encoding="utf-8")


def session_round(store: Store, batches: list, spans: Path | None = None, op: int = 0):
    """One worker process: open the store, append every batch. Returns
    (worker result, exit code, peak RSS MB)."""
    write_batches(WORK / "batches.jsonl", batches)
    out = WORK / "session.json"
    argv = [str(HERE / "child.py"), "session", "--ledger", str(store.ledger)]
    argv += ["--table", str(store.data), "--batches", str(WORK / "batches.jsonl"), "--out", str(out)]
    if spans is not None:
        argv += ["--spans", str(spans), "--op", str(op)]
    _, code, rss, _ = spawn(argv, WORK / "session.stdout")
    result = json.loads(out.read_text()) if code == 0 else None
    return result, code, rss


def cli_append(store: Store, batch: list[gen.Row], spans: Path | None = None, op: int = 0):
    batch_file = WORK / "batch.json"
    batch_file.write_text(gen.batch_json(batch), encoding="utf-8")
    argv = ["append", "--ledger", str(store.ledger), "--table", str(store.data)]
    argv += ["--input", str(batch_file)]
    if spans is None:
        return spawn(["-m", "chaintable", *argv], WORK / "append.out")
    traced = [str(HERE / "child.py"), "cli", "--op", str(op), "--spans", str(spans), "--"]
    return spawn([*traced, *argv], WORK / "append.out")


def append_round(run: Run, base: Store, oracle: Oracle) -> Store:
    """round_size appends on a fresh copy of the base history. A session
    worker also reports its ChainTableStore.open time, as kind "open"."""
    size = run.workload.round_size
    batches = oracle.appended[:size]
    store = base.copy_to(WORK / "round")
    if run.workload.append == "session":
        run.reference()
        result, code, rss = session_round(store, batches)
        check(code == 0, f"session worker exited {code}")
        run.peak_rss_mb = max(run.peak_rss_mb, rss)
        run.timeline.append(("open", result["open_s"], None))
        for seconds, own in zip(result["append_s"], result["reference_s"]):
            run.record("append", seconds, own=own)
    else:
        for batch in batches:
            run.reference()
            wall, code, rss, _ = cli_append(store, batch)
            run.record("append", wall, code, rss)
    oracle.check_store(store, size)
    return store


def timed_cycles(run: Run, base: Store, oracle: Oracle) -> float:
    """Timed region: cycles of one append round and one read rotation until
    --seconds have passed (at least MIN_CYCLES), so that every metric samples
    the whole run. Returns the bytes stored per user byte after the first
    round."""
    deadline = time.perf_counter() + run.seconds
    ratio = 0.0
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() < deadline:
        store = append_round(run, base, oracle)
        if not ratio:
            ratio = store.size() / gen.user_bytes(oracle.rows(run.workload.round_size))
        read_rotation(run, base, oracle)
        cycles += 1
    run.reference()
    code, text = run_cli_inprocess(["verify", "--ledger", str(store.ledger)])
    check(code == 0, f"final store fails verify: {text.strip()}")
    return ratio


# --- tamper checks ------------------------------------------------------------


def tamper(store: Store, oracle: Oracle, lid: int, index: int, rehash: bool) -> None:
    """Edit one description of record ``lid`` in the stored bytes, keeping its
    stored hash or, with ``rehash``, replacing it by the edited record's hash."""
    opid, timestamp, description = oracle.base[lid - 1][index]
    edited = list(oracle.base[lid - 1])
    edited[index] = (opid, timestamp, "tampered" if description is None else description + "!")
    prev = oracle.hashes[lid - 2] if lid > 1 else None
    stored = gen.chain_hash(lid, edited, prev) if rehash else oracle.hashes[lid - 1]
    lines = store.ledger.read_bytes().split(b"\n")
    lines[lid] = gen.ledger_line(lid, edited, prev, stored).encode("utf-8")
    store.ledger.write_bytes(b"\n".join(lines))


def tamper_checks(run: Run, base: Store, oracle: Oracle) -> None:
    """Untimed, on copies: a mid-chain edit and a re-hashed tip must be caught."""
    n = run.records
    rng = random.Random(run.seed)
    k = min(rng.randint(n // 4 + 1, 3 * n // 4 + 1), n - 1)
    store = base.copy_to(WORK / "tamper")
    tamper(store, oracle, k, 0, rehash=False)
    code, text = run_cli_inprocess(["verify", "--json", "--ledger", str(store.ledger)])
    check(code == 1, f"scenario 1 at lid {k}: verify exited {code}, expected 1")
    check(json.loads(text)["chain"]["first_invalid_lid"] == k, f"scenario 1 did not name lid {k}")

    store = base.copy_to(WORK / "tamper")
    index = rng.randrange(len(oracle.base[n - 1]))
    tamper(store, oracle, n, index, rehash=True)
    code, _ = run_cli_inprocess(["verify", "--ledger", str(store.ledger)])
    check(code == 0, f"scenario 2: verify of a re-hashed tip exited {code}, expected 0")
    argv = ["verify", "--json", "--ledger", str(store.ledger), "--table", str(store.data)]
    code, text = run_cli_inprocess(argv)
    check(code == 1, f"scenario 2: verify --table exited {code}, expected 1")
    row = len(oracle.base_rows) - len(oracle.base[n - 1]) + index + 1
    positions = [d["position"] for d in json.loads(text)["table"]["divergences"]]
    check(positions == [row], f"scenario 2: divergence at {positions}, expected row {row}")


# --- traced run -----------------------------------------------------------------


class Trace:
    """Per-layer totals of one traced pass."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.io = [0, 0]
        self.ops = 0
        self.hash_base = 0
        self.startup_s: list[float] = []
        self.walls = {"traced": 0.0, "untraced": 0.0}
        self.kinds: dict[str, dict[str, int]] = {}

    def add_spans(self, path: Path, kinds: dict[int, tuple[str, int]]) -> dict:
        """Fold one child's span file in; kinds maps op id -> (kind, hash base)."""
        payload = json.loads(path.read_text())
        names, spans = payload["names"], payload["spans"]
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name_index, start, end, _, op) in enumerate(spans):
            name = names[name_index]
            self.self_ns[name] = self.self_ns.get(name, 0) + (end - start - child_ns[i])
            self.calls[name] = self.calls.get(name, 0) + 1
            kind = self.kinds.setdefault(kinds[op][0], {"ops": 0})
            kind[name] = kind.get(name, 0) + 1
        for op, (kind, base) in kinds.items():
            read, written = payload["io"][str(op)]
            self.io[0] += read
            self.io[1] += written
            self.hash_base += base
            if kind != "session_open":
                self.ops += 1
            self.kinds.setdefault(kind, {"ops": 0})
            self.kinds[kind]["ops"] += 1
            self.kinds[kind]["checked_records"] = self.kinds[kind].get("checked_records", 0) + base
        return payload

    def counts(self) -> dict[str, int]:
        return {
            "chain.compute_hash.calls": self.calls.get("chain.compute_hash", 0),
            "storage.parse_record_line.calls": self.calls.get("storage.parse_record_line", 0),
            "encoding.canonical_encode_update.calls": self.calls.get("encoding.canonical_encode_update", 0),
            "io.fsync.calls": self.calls.get(FSYNC, 0),
        }

    def metrics(self) -> dict[str, float]:
        per_op = {name: value / self.ops for name, value in self.counts().items()}
        per_op["chain.hashes_per_checked_record"] = self.calls.get("chain.compute_hash", 0) / self.hash_base
        for name in TRACED:
            per_op[f"{name}.self_ms"] = self.self_ns.get(name, 0) / 1e6 / self.ops
        per_op["io.fsync_ms"] = self.self_ns.get(FSYNC, 0) / 1e6 / self.ops
        per_op["io.read_bytes"] = self.io[0] / self.ops
        per_op["io.write_bytes"] = self.io[1] / self.ops
        per_op["cli.startup_ms"] = statistics.fmean(self.startup_s) * 1000
        per_op["trace.overhead_ratio"] = self.walls["traced"] / self.walls["untraced"]
        return per_op


def traced_pass(run: Run, base: Store, oracle: Oracle, pass_dir: Path) -> Trace:
    """One fixed schedule: each read once and the workload's traced appends,
    every operation run untraced and then traced on identical inputs."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    trace = Trace()
    n = run.records
    op = 0
    stdout, rebuilt = WORK / "read.out", WORK / "rebuilt"
    for kind in READS:
        wall, code, _, _ = spawn(["-m", "chaintable", *read_argv(kind, base, rebuilt)], stdout)
        check(code == 0, f"untraced {kind} exited {code}")
        trace.walls["untraced"] += wall
        op += 1
        spans = pass_dir / f"op{op}.json"
        argv = [str(HERE / "child.py"), "cli", "--op", str(op), "--spans", str(spans), "--"]
        wall, code, _, start = spawn(argv + read_argv(kind, base, rebuilt), stdout)
        check(code == 0, f"traced {kind} exited {code}")
        check_read(kind, stdout, rebuilt, oracle, n)
        trace.walls["traced"] += wall
        payload = trace.add_spans(spans, {op: (kind, 0 if kind == "status" else n)})
        trace.startup_s.append(payload["main_start"] - start - payload["install_s"])

    batches = oracle.appended[: run.workload.traced_appends]
    if run.workload.append == "session":
        plain, code, _ = session_round(base.copy_to(WORK / "untraced"), batches)
        check(code == 0, f"untraced session exited {code}")
        spans = pass_dir / "session.json"
        store = base.copy_to(WORK / "traced")
        traced, code, _ = session_round(store, batches, spans, op + 1)
        check(code == 0, f"traced session exited {code}")
        trace.walls["untraced"] += sum(plain["append_s"])
        trace.walls["traced"] += sum(traced["append_s"])
        kinds = {op + 1: ("session_open", n)}
        kinds.update({op + 1 + i: ("session_append", 1) for i in range(1, len(batches) + 1)})
        trace.add_spans(spans, kinds)
    else:
        plain_store = base.copy_to(WORK / "untraced")
        store = base.copy_to(WORK / "traced")
        for i, batch in enumerate(batches):
            wall, code, _, _ = cli_append(plain_store, batch)
            check(code == 0, f"untraced append exited {code}")
            trace.walls["untraced"] += wall
            op += 1
            spans = pass_dir / f"op{op}.json"
            wall, code, _, start = cli_append(store, batch, spans, op)
            check(code == 0, f"traced append exited {code}")
            trace.walls["traced"] += wall
            payload = trace.add_spans(spans, {op: ("cli_append", n + i + 1)})
            trace.startup_s.append(payload["main_start"] - start - payload["install_s"])
    oracle.check_store(store, len(batches))
    return trace


# --- reporting --------------------------------------------------------------------


def machine_facts() -> dict[str, object]:
    cwd = os.getcwd()
    fs, best = "unknown", ""
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            mount = parts[1]
            if (cwd == mount or cwd.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
                fs, best = parts[2], mount
    probe = WORK / "fsync-probe"
    latencies = []
    with open(probe, "wb") as fh:
        for _ in range(50):
            fh.write(b"x" * 200)
            fh.flush()
            start = time.perf_counter()
            os.fsync(fh.fileno())
            latencies.append(time.perf_counter() - start)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "filesystem": fs,
        "fsync_200B_p50_ms": round(statistics.median(latencies) * 1000, 4),
    }


def end_to_end(run: Run, ratio: float) -> dict[str, tuple[float, str, int]]:
    samples = run.at_reference_speed()
    setup_s = statistics.median(samples["setup"])
    if "open" in samples:
        setup_s += statistics.median(samples["open"])
    appends = samples["append"]
    metrics: dict[str, tuple[float, str, int]] = {
        "setup_s": (setup_s, "s", len(samples["setup"])),
        "append_p50_ms": (statistics.median(appends) * 1000, "ms", len(appends)),
        "append_p95_ms": (statistics.quantiles(appends, n=100, method="inclusive")[94] * 1000, "ms", len(appends)),
        "append_ops_per_s": (len(appends) / sum(appends), "1/s", len(appends)),
    }
    for kind, name in zip(READS, ("verify", "verify_table", "reconstruct", "materialize", "status")):
        values = samples[kind]
        metrics[f"{name}_p50_ms"] = (statistics.median(values) * 1000, "ms", len(values))
    metrics["peak_rss_mb"] = (run.peak_rss_mb, "MB", run.attempted)
    metrics["bytes_per_user_byte"] = (ratio, "ratio", 1)
    completed = sum(len(samples[kind]) for kind in ("append", *READS))
    metrics["success_rate"] = (completed / run.attempted, "ratio", run.attempted)
    return metrics


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio"


def print_kinds(kinds: dict[str, dict[str, int]]) -> None:
    """Counts per operation kind of one traced pass (totals over its ops)."""
    columns = ("chain.compute_hash", "storage.parse_record_line", FSYNC)
    print(f"  {'kind':16s} {'ops':>4s} {'records':>8s} {'hashes':>8s} {'parses':>8s} {'fsyncs':>7s}")
    for kind, counts in sorted(kinds.items()):
        values = " ".join(f"{counts.get(c, 0):8d}" for c in columns)
        print(f"  {kind:16s} {counts['ops']:4d} {counts['checked_records']:8d} {values}")


def emit(run: Run, metrics: dict[str, tuple[float, str, int]], facts: dict) -> None:
    """Print the metrics for people, then the result line. Only a run whose
    every check passed gets here, so nothing attempted has failed."""
    print(f"workload {run.name}  seed {run.seed}  records {run.records}  trace {int(run.trace)}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for kind, values in run.raw().items():
        print(f"  raw {kind} p50 {statistics.median(values) * 1000:.4f} ms n={len(values)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:44s} {value:14.4f} {unit:6s} n={samples}")
    result = {
        "correct": True,
        "attempted": run.attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))


def execute(run: Run) -> None:
    """Run the workload; raises CheckFailed when a check fails."""
    workload = run.workload
    generator = gen.Generator(run.seed)
    base_batches = generator.batches(run.records)
    appended = generator.batches(max(workload.round_size, workload.traced_appends))
    oracle = Oracle(base_batches, appended)

    # Set-up, three times: build the history through the library.
    for i in range(3):
        run.reference()
        run.timeline.append(("setup", build_store(WORK / f"setup{i}", base_batches), None))
    base = Store(WORK / "setup0")
    for i in (1, 2):
        shutil.rmtree(WORK / f"setup{i}")
    oracle.check_store(base, 0)
    if run.tamper_input:
        tamper(base, oracle, run.records // 2, 0, rehash=False)
    facts = machine_facts()

    if run.trace:
        out_dir = OUT / f"trace-{run.name}"
        deadline = time.perf_counter() + run.seconds
        passes: list[Trace] = []
        while not passes or time.perf_counter() < deadline:
            passes.append(traced_pass(run, base, oracle, out_dir))
            check(passes[-1].counts() == passes[0].counts(), "traced counts differ between passes")
        run.attempted = sum(t.ops for t in passes)
        per_pass = [t.metrics() for t in passes]
        metrics = {
            name: (statistics.median(m[name] for m in per_pass), per_layer_unit(name), len(per_pass))
            for name in per_pass[0]
        }
        summary = {"records": run.records, "ops": passes[0].ops, "kinds": passes[0].kinds}
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=1))
        print_kinds(passes[0].kinds)
    else:
        metrics = end_to_end(run, timed_cycles(run, base, oracle))
    tamper_checks(run, base, oracle)
    emit(run, metrics, facts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=int, help="override the history length (smoke runs)")
    parser.add_argument(
        "--tamper-input",
        action="store_true",
        help="corrupt one stored record after set-up; the run must then fail",
    )
    args = parser.parse_args()
    if not (SRC / "chaintable" / "__init__.py").is_file():
        print(f"error: no chaintable sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    run = Run(
        args.workload,
        workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.records or workload.records,
        args.tamper_input,
    )
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        execute(run)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
