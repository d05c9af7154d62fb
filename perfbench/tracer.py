"""Span tracer that wraps chaintable's public functions from outside.

``install`` rebinds each traced function in every ``chaintable`` module that
holds a reference to it (methods are replaced on their class), plus
``os.fsync`` as the ``io.fsync`` layer. Nothing under ``src/`` changes. Each
call records one span ``(name, start_ns, end_ns, parent, op)`` in memory;
``dump`` writes them out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# Layer boundaries: "module.function" or "module.Class.method".
TRACED = (
    "chain.compute_hash",
    "chain.verify_chain",
    "chain.append_batch",
    "chain.reconstruct",
    "chain.materialize",
    "chain.verify_against_table",
    "encoding.canonical_encode_update",
    "encoding.decode_update",
    "encoding.parse_batch_input",
    "storage.parse_record_line",
    "storage.load_ledger",
    "storage.LedgerFile.open",
    "storage.LedgerFile.append",
    "storage.read_ledger_header",
    "table.read_data_file",
    "table.append_data_rows",
    "table.write_data_file",
    "table.DataTable.keys",
    "store.ChainTableStore.open",
    "store.ChainTableStore.append",
    "cli.main",
)
FSYNC = "io.fsync"


def proc_io() -> tuple[int, int]:
    """Bytes this process has passed through read and write system calls."""
    fields = {}
    with open("/proc/self/io", "rb") as fh:
        for line in fh:
            key, _, value = line.partition(b":")
            fields[key] = int(value)
    return fields[b"rchar"], fields[b"wchar"]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.op = 0
        self.io: dict[int, list[int]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.op)

        return traced

    def begin(self, op: int) -> None:
        """Start operation ``op``: later spans and I/O are charged to it."""
        self.op = op
        self.io[op] = list(proc_io())

    def end(self) -> None:
        read, written = proc_io()
        start = self.io[self.op]
        self.io[self.op] = [read - start[0], written - start[1]]

    def dump(self, path: str, **extra) -> None:
        payload = {"names": self.names, "spans": self.spans, "io": self.io, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    package = importlib.import_module("chaintable")
    modules = [m for n, m in sys.modules.items() if n == "chaintable" or n.startswith("chaintable.")]
    for name in TRACED:
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"{package.__name__}.{module_name}")
        if len(path) == 2:
            cls = getattr(owner, path[0])
            raw = cls.__dict__[path[1]]
            if isinstance(raw, classmethod):
                setattr(cls, path[1], classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, path[1], tracer.wrap(name, raw))
            continue
        original = getattr(owner, path[0])
        wrapped = tracer.wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    os.fsync = tracer.wrap(FSYNC, os.fsync)
