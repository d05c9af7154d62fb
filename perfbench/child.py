"""Child processes started by run.py, with ``src`` on PYTHONPATH.

    child.py cli --op N --spans OUT -- ARGV...
        Run ``chaintable.cli.main(ARGV)`` in this process under the tracer and
        write its spans to OUT. Exits with main's return code.

    child.py session --ledger L --table T --batches B --out OUT [--op N --spans S]
        An embedded writer: open one ChainTableStore, parse each line of B
        (one JSON batch per line) with parse_batch_input, then time each
        ``append``, right after timing one in-process reference (see
        ``reference``). Writes the open time and both lists of times to OUT.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from tracer import Tracer, install

_REFERENCE_ROWS = [
    {"opid": i, "timestamp": f"2025-03-01T00:00:{i % 60:02d}.000000Z", "description": "réf " * (i % 9 + 2)}
    for i in range(300)
]


def reference() -> float:
    """Time a fixed slice of what an append spends its time on (canonical
    JSON and double SHA-256 in Python), to follow the host's speed."""
    start = time.perf_counter()
    for row in _REFERENCE_ROWS:
        text = json.dumps(row, separators=(",", ":"), ensure_ascii=False)
        hashlib.sha256(hashlib.sha256(text.encode("utf-8")).digest()).digest()
    return time.perf_counter() - start


def run_cli(args: argparse.Namespace) -> int:
    import chaintable.cli

    start = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    install_s = time.perf_counter() - start
    tracer.begin(args.op)
    start = time.perf_counter()
    code = chaintable.cli.main(args.argv)
    main_s = time.perf_counter() - start
    tracer.end()
    sys.stdout.flush()
    # perf_counter is CLOCK_MONOTONIC, so main_start is comparable with the
    # parent's clock: start-up = main_start - spawn time - install_s.
    tracer.dump(args.spans, code=code, main_start=start, main_s=main_s, install_s=install_s)
    return code


def run_session(args: argparse.Namespace) -> int:
    import chaintable.encoding
    import chaintable.store

    tracer = None
    if args.spans:
        tracer = Tracer()
        install(tracer)
        tracer.begin(args.op)
    # Looked up after install, so that the traced wrappers are the ones called.
    parse_batch_input = chaintable.encoding.parse_batch_input
    ChainTableStore = chaintable.store.ChainTableStore
    with open(args.batches, "rb") as fh:
        lines = fh.read().splitlines()
    start = time.perf_counter()
    store = ChainTableStore.open(args.ledger, args.table)
    open_s = time.perf_counter() - start
    batches = [parse_batch_input(line) for line in lines]
    if tracer:
        tracer.end()
    append_s, reference_s = [], []
    with store:
        for offset, batch in enumerate(batches, start=1):
            reference_s.append(reference())
            if tracer:
                tracer.begin(args.op + offset)
            start = time.perf_counter()
            store.append(batch)
            append_s.append(time.perf_counter() - start)
            if tracer:
                tracer.end()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"open_s": open_s, "append_s": append_s, "reference_s": reference_s}, fh)
    if tracer:
        tracer.dump(args.spans)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--op", type=int, required=True)
    cli.add_argument("--spans", required=True)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    session = sub.add_parser("session")
    for name in ("--ledger", "--table", "--batches", "--out"):
        session.add_argument(name, required=True)
    session.add_argument("--op", type=int, default=0)
    session.add_argument("--spans")
    args = parser.parse_args()
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return run_cli(args)
    return run_session(args)


if __name__ == "__main__":
    raise SystemExit(main())
