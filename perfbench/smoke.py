"""Smoke run of the benchmark at n=100 records, a few seconds per run.

    python3 perfbench/smoke.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, that two traced runs with the same seed give identical counts, and
that a deliberately tampered input makes the run fail. It also prints the
traced hash and parse counts next to the formulas of the ROADMAP count table;
those are reported, not asserted, because they are expected to change.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
N = 100


def bench(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1"]
    argv += ["--seconds", "1", "--trace", str(trace), "--records", str(N), *extra]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    raise SystemExit(1)


def result(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(found: dict, expected: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in found["metrics"].items()}
    if got != want:
        fail(f"{what}: metrics {sorted(got.items())} differ from {sorted(want.items())}")
    if not found["correct"] or found["attempted"] < 1 or found["failed"]:
        fail(f"{what}: result {found}")


def roadmap_table(workload: str) -> None:
    """Traced counts per command beside the ROADMAP formulas (n = records before the command)."""
    kinds = json.loads((HERE / ".out" / f"trace-{workload}" / "summary.json").read_text())["kinds"]
    formulas = {
        "cli_append": (("3n+1", lambda n: 3 * n + 1), ("2n", lambda n: 2 * n)),
        "verify_table": (("2n", lambda n: 2 * n), ("n", lambda n: n)),
        "materialize": (("2n", lambda n: 2 * n), ("n", lambda n: n)),
        "status": (("0", lambda n: 0), ("n", lambda n: n)),
    }
    for kind, ((hashes, hash_count), (parses, parse_count)) in formulas.items():
        if kind not in kinds:
            continue
        ops = kinds[kind]["ops"]
        ns = [N + i for i in range(ops)] if kind == "cli_append" else [N] * ops
        expect_h = sum(hash_count(n) for n in ns)
        expect_p = sum(parse_count(n) for n in ns)
        got_h = kinds[kind].get("chain.compute_hash", 0)
        got_p = kinds[kind].get("storage.parse_record_line", 0)
        verdict = "match" if (got_h, got_p) == (expect_h, expect_p) else "DIFFERS"
        print(
            f"  {workload:14s} {kind:13s} ops={ops} hashes {got_h} (ROADMAP {hashes}: {expect_h}) "
            f"parses {got_p} (ROADMAP {parses}: {expect_p}) {verdict}"
        )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(result(bench(workload, 0), f"{workload} untraced"), spec["end_to_end"], workload)
        first = result(bench(workload, 1), f"{workload} traced")
        summary = (HERE / ".out" / f"trace-{workload}" / "summary.json").read_text()
        second = result(bench(workload, 1), f"{workload} traced again")
        check_metrics(first, spec["per_layer"], f"{workload} traced")
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
            for r in (first, second)
        ]
        again = (HERE / ".out" / f"trace-{workload}" / "summary.json").read_text()
        if counts[0] != counts[1] or json.loads(summary)["kinds"] != json.loads(again)["kinds"]:
            fail(f"{workload}: traced counts differ between two runs with one seed")
        tampered = bench(workload, 0, "--tamper-input")
        if tampered.returncode == 0:
            fail(f"{workload}: a tampered input did not fail the run")
        print(f"ok {workload}: metrics and units, repeatable counts, tampered input fails")
        roadmap_table(workload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
