"""Operator command line for chain-table stores.

Subcommands: init, append, verify, reconstruct, materialize, tamper, status.
Exit codes are machine-stable so scripts can gate on them:

    0  success
    1  integrity violation detected (broken chain, divergent table)
    2  usage or validation error (nothing written)
    3  I/O or storage failure (nothing partially written)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

from .attack import forge, measure_rewrite_cascade, overwrite_ledger
from .chain import Divergence, compare_rows, materialize_rows, verify_chain
from .encoding import (
    decode_history,
    decode_rows,
    encode_record,
    join_rows,
    parse_batch_input,
    record_as_dict,
    row_count,
)
from .errors import (
    ChainTableError,
    DuplicateKeyError,
    InvalidLedgerError,
    LidOutOfRangeError,
    LockError,
    MalformedBatchError,
    StorageFailureError,
    StorageViolation,
    StorageViolationKind,
    StoreInconsistentError,
    StoreMismatchError,
)
from .storage import load_ledger
from .store import ChainTableStore
from .table import read_table_rows, render_data_file, replace_file

EXIT_OK = 0
EXIT_INTEGRITY = 1
EXIT_USAGE = 2
EXIT_STORAGE = 3


def _emit(args: argparse.Namespace, payload: dict[str, Any], lines: Iterable[str]) -> None:
    if args.json:
        print(json.dumps(payload, separators=(",", ":"), ensure_ascii=False))
    else:
        for line in lines:
            print(line)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def cmd_init(args: argparse.Namespace) -> int:
    store = ChainTableStore.create(args.ledger, args.table, args.name)
    store.close()
    _emit(
        args,
        {"name": args.name, "ledger": str(args.ledger), "table": str(args.table)},
        [
            f"initialized chain table '{args.name}'",
            f"  ledger: {args.ledger}",
            f"  table:  {args.table}",
        ],
    )
    return EXIT_OK


def cmd_append(args: argparse.Namespace) -> int:
    if args.input is None:
        raw: str | bytes = sys.stdin.read()
    else:
        raw = Path(args.input).read_bytes()
    batch = parse_batch_input(raw)
    with ChainTableStore.open(args.ledger, args.table) as store:
        record = store.append(batch)
    _emit(
        args,
        {
            "lid": record.lid,
            "hash": record.hash,
            "prev_hash": record.prev_hash,
            "records": len(batch),
        },
        [f"appended lid {record.lid} ({len(batch)} update record(s))", f"hash: {record.hash}"],
    )
    return EXIT_OK


def _divergence_payload(div: Divergence) -> dict[str, Any]:
    return {
        "position": div.position,
        "opid": div.opid,
        "expected": None if div.expected is None else record_as_dict(div.expected),
        "found": None if div.found is None else record_as_dict(div.found),
    }


def _divergence_line(div: Divergence) -> str:
    expected = "absent" if div.expected is None else encode_record(div.expected)
    found = "absent" if div.found is None else encode_record(div.found)
    return f"  row {div.position}: expected {expected}, found {found}"


def _holds(path: str | Path, chunks: Iterable[bytes]) -> bool:
    """Whether the file at path holds exactly chunks, compared as they are made."""
    data, end = Path(path).read_bytes(), 0
    for chunk in chunks:
        if not data.startswith(chunk, end):
            return False
        end += len(chunk)
    return end == len(data)


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        ledger = load_ledger(args.ledger)
    except StorageViolation as exc:
        # A file that cannot even be parsed is an integrity failure here,
        # not a usage error: verify exists to pronounce on exactly that.
        _fail(str(exc))
        chain = {"valid": False, "failure_kind": exc.kind.name, "line": exc.line}
        _emit(args, {"chain": chain, "table": None}, [])
        return EXIT_INTEGRITY

    chain = {"valid": True, "records": len(ledger), "first_invalid_lid": None, "failure_kind": None}
    payload: dict[str, Any] = {"chain": chain, "table": None}
    try:  # one verification, before any data file is read
        verify_chain(ledger)
    except InvalidLedgerError as exc:
        chain.update(valid=False, first_invalid_lid=exc.lid, failure_kind=exc.kind.name)
        lines = ["chain: INVALID", f"first invalid lid: {exc.lid}", f"failure: {exc.kind.name}"]
        _emit(args, payload, lines)
        return EXIT_INTEGRITY
    lines = [f"chain: valid ({len(ledger)} records)"]

    if args.table is not None:
        # Rows, of either file, are decoded only when the data file differs.
        updates = [record.update for record in ledger.records]
        rows, divergences = sum(map(row_count, updates)), ()
        if not _holds(args.table, render_data_file(ledger.name, updates)):
            found = read_table_rows(args.table, ledger.name)
            rows, divergences = len(found), compare_rows(decode_history(updates), found)
        payload["table"] = {
            "consistent": not divergences,
            "rows": rows,
            "divergences": [_divergence_payload(d) for d in divergences],
        }
        if not divergences:
            lines.append(f"table: consistent ({rows} rows)")
        else:
            lines.append("table: DIVERGENT")
            lines.extend(_divergence_line(d) for d in divergences)
            _emit(args, payload, lines)
            return EXIT_INTEGRITY

    _emit(args, payload, lines)
    return EXIT_OK


def _refuse_out_on_ledger(args: argparse.Namespace) -> None:
    if args.out is not None and Path(args.out).exists() and Path(args.out).samefile(args.ledger):
        raise ValueError(f"--out {args.out} is the ledger itself; refusing to overwrite it")


def cmd_reconstruct(args: argparse.Namespace) -> int:
    ledger = load_ledger(args.ledger)
    verify_chain(ledger)
    _refuse_out_on_ledger(args)
    updates = [record.update for record in ledger.records]
    replace_file(args.out, render_data_file(ledger.name, updates))
    rows = sum(map(row_count, updates))
    _emit(
        args,
        {"rows": rows, "out": str(args.out), "name": ledger.name},
        [f"reconstructed {rows} rows into {args.out}"],
    )
    return EXIT_OK


def cmd_materialize(args: argparse.Namespace) -> int:
    ledger = load_ledger(args.ledger)
    verify_chain(ledger)
    rows = materialize_rows(record.update for record in ledger.records)
    _refuse_out_on_ledger(args)
    if args.json or args.out is not None:
        # A row text is what json.dumps writes for its row: "deleted" is spliced in.
        deleted = (b',"deleted":false', b',"deleted":true')
        view = join_rows([row + deleted[row.endswith(b":null")] for row in rows])
    if args.out is not None:
        replace_file(args.out, [view + b"\n"])
    if args.json:
        print(f'{{"view":{view.decode()},"out":{json.dumps(args.out, ensure_ascii=False)}}}')
        return EXIT_OK
    for e in decode_rows(rows):
        if e.is_deletion:
            print(f"opid {e.opid}: deleted (tombstone at timestamp {e.timestamp})")
        else:
            print(f"opid {e.opid}: timestamp={e.timestamp} description={e.description}")
    if args.out is not None:
        print(f"wrote {len(rows)} entries to {args.out}")
    return EXIT_OK


def cmd_tamper(args: argparse.Namespace) -> int:
    ledger = load_ledger(args.ledger)
    n = len(ledger)
    if n == 0:
        _fail("ledger holds no records; nothing to tamper with")
        return EXIT_USAGE
    if args.scenario == 1 and args.lid is None:
        _fail("--scenario 1 requires --lid")
        return EXIT_USAGE
    if args.scenario == 2 and (args.lid, args.rehash_through) != (None, None):
        _fail("--scenario 2 always forges the final record; it takes no --lid or --rehash-through")
        return EXIT_USAGE

    lid, rehashed = (args.lid, args.rehash_through) if args.scenario == 1 else (n, n)
    forged = forge(ledger, lid, args.record, args.set, rehashed)
    cascade = measure_rewrite_cascade(ledger, lid)
    overwrite_ledger(args.ledger, forged)
    if rehashed is None:
        prediction = f"chain verification fails, first invalid lid: {lid}"
    elif rehashed < n:
        prediction = f"chain verification fails, first invalid lid: {rehashed + 1}"
    else:
        prediction = (
            "chain verification passes; only comparison against the honest "
            "data table exposes the rewrite"
        )

    _emit(
        args,
        {
            "scenario": args.scenario,
            "lid": lid,
            "record": args.record,
            "set": args.set,
            "rehash_through": rehashed,
            "records_requiring_rewrite": cascade,
            "prediction": prediction,
        },
        [
            f"mutated record {args.record} of lid {lid}: description -> {args.set!r}",
            (
                "stored hashes left untouched"
                if rehashed is None
                else f"re-hashed lids {lid}..{rehashed}"
            ),
            f"a verifiable forgery would need {cascade} record(s) rewritten",
            f"prediction: {prediction}",
        ],
    )
    return EXIT_OK


def cmd_status(args: argparse.Namespace) -> int:
    ledger = load_ledger(args.ledger)
    name, records, tip = ledger.name, len(ledger), ledger.tip_hash
    _emit(
        args,
        {"name": name, "records": records, "tip": tip},
        [f"table name: {name}", f"records: {records}", f"tip hash: {tip or '-'}"],
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaintable",
        description="Tamper-evident append-only table backed by a hash-chained ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str, handler: Any) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--ledger", required=True, metavar="PATH", help="ledger file")
        p.add_argument("--json", action="store_true", help="emit one JSON object instead of text")
        p.set_defaults(handler=handler)
        return p

    p = add("init", "create a fresh ledger file and data file pair", cmd_init)
    p.add_argument("name", help="table name recorded in both headers")
    p.add_argument("--table", required=True, metavar="PATH", help="data file")

    p = add("append", "append one update batch (JSON array of records)", cmd_append)
    p.add_argument("--table", required=True, metavar="PATH", help="data file")
    p.add_argument(
        "--input", metavar="PATH", help="read the batch from this file instead of stdin"
    )

    p = add("verify", "verify the hash chain, optionally against a data file", cmd_verify)
    p.add_argument("--table", metavar="PATH", help="data file to compare against the ledger")

    p = add("reconstruct", "rebuild the data file from the ledger alone", cmd_reconstruct)
    p.add_argument("--out", required=True, metavar="PATH", help="where to write the rebuilt file")

    p = add("materialize", "replay the ledger into the current per-opid view", cmd_materialize)
    p.add_argument("--out", metavar="PATH", help="also write the view as JSON to this file")

    p = add("tamper", "simulate an attack by mutating stored bytes", cmd_tamper)
    p.add_argument("--scenario", required=True, type=int, choices=(1, 2), help="attack scenario")
    p.add_argument("--lid", type=int, help="target record (scenario 1)")
    p.add_argument("--set", required=True, metavar="TEXT", help="replacement description")
    p.add_argument(
        "--record", type=int, default=1, metavar="N", help="update record within the batch"
    )
    p.add_argument(
        "--rehash-through",
        type=int,
        metavar="LID",
        help="scenario 1: also recompute stored hashes up to this lid",
    )

    add("status", "print record count and tip hash", cmd_status)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        return args.handler(args)
    except StorageViolation as exc:
        _fail(str(exc))
        if exc.kind is StorageViolationKind.MULTI_RECORD_WRITE:
            return EXIT_USAGE
        return EXIT_STORAGE
    except (InvalidLedgerError, StoreInconsistentError) as exc:
        _fail(str(exc))
        return EXIT_INTEGRITY
    except (
        MalformedBatchError,
        DuplicateKeyError,
        StoreMismatchError,
        LidOutOfRangeError,
        FileExistsError,
        ValueError,
    ) as exc:
        _fail(str(exc))
        return EXIT_USAGE
    except (LockError, StorageFailureError, OSError) as exc:
        _fail(str(exc))
        return EXIT_STORAGE
    except ChainTableError as exc:  # any remaining library error is a usage problem
        _fail(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
