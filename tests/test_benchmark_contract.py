"""What perfbench/ uses of the library keeps working.

The benchmark drives chaintable from outside: its tracer rebinds the names in
perfbench/tracer.py's TRACED, and run.build_store writes the starting history
through ChainRecord, compute_hash, LedgerFile and write_data_file. A rename
there breaks the benchmark, so this runs both in a fresh interpreter (the
tracer rebinds os.fsync process-wide) and checks the files against the
benchmark's own oracle.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import inspect, sys
from pathlib import Path

root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
import chaintable.cli  # imported before install, as perfbench/child.py does
from chaintable.storage import LedgerFile
from chaintable.store import ChainTableStore
from chaintable.table import DataTable
import gen, run
from tracer import Tracer, install

assert isinstance(LedgerFile.__dict__["open"], classmethod)
assert isinstance(ChainTableStore.__dict__["open"], classmethod)
assert inspect.isfunction(DataTable.__dict__["keys"])
tracer = Tracer()
install(tracer)
batches = gen.Generator(1).batches(6)
run.build_store(out, batches)
run.Oracle(batches, []).check_store(run.Store(out), 0)
code, _ = run.run_cli_inprocess(["verify", "--ledger", f"{out}/ledger", "--table", f"{out}/data"])
assert code == 0, code
traced = {tracer.names[span[0]] for span in tracer.spans}
assert {"chain.compute_hash", "storage.LedgerFile.append", "cli.main"} <= traced, traced
print("ok")
"""


def test_tracer_installs_and_build_store_matches_the_oracle(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path / "store")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
