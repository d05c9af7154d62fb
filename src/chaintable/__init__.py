"""Tamper-evident append-only tables backed by a hash-chained ledger.

Every write to the protected data table is captured as an update batch and
sealed into a ledger record whose double SHA-256 hash covers the previous
record's hash. Rewriting history therefore forces rewriting every later
record, and a single pass over the chain exposes any in-place edit. The data
table itself is append-only: inserts, updates, and deletions all become new
rows, and the current state is a replay projection, never a mutation.
"""

from .attack import (
    AttackOutcome,
    AttackScenario,
    assess_detection,
    measure_rewrite_cascade,
    tamper_update_in_place,
    tamper_with_rehash,
)
from .chain import (
    HASH_ALGORITHM,
    ChainRecord,
    ConsistencyReport,
    Divergence,
    FailureKind,
    Ledger,
    VerificationReport,
    append_batch,
    compute_hash,
    materialize,
    reconstruct,
    verify_against_table,
    verify_chain,
)
from .encoding import (
    Hash,
    UpdateBatch,
    UpdateRecord,
    canonical_encode_update,
    decode_update,
    parse_batch_input,
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
from .storage import LedgerFile, load_ledger, read_ledger_header
from .store import ChainTableStore
from .table import (
    ActualView,
    DataRow,
    DataTable,
    ViewEntry,
    actual_view,
    import_history,
    read_data_file,
    replay_rows,
    write_data_file,
)

__version__ = "1.0.0"

__all__ = [
    "ActualView",
    "AttackOutcome",
    "AttackScenario",
    "ChainRecord",
    "ChainTableError",
    "ChainTableStore",
    "ConsistencyReport",
    "DataRow",
    "DataTable",
    "Divergence",
    "DuplicateKeyError",
    "FailureKind",
    "HASH_ALGORITHM",
    "Hash",
    "InvalidLedgerError",
    "Ledger",
    "LedgerFile",
    "LidOutOfRangeError",
    "LockError",
    "MalformedBatchError",
    "StorageFailureError",
    "StorageViolation",
    "StorageViolationKind",
    "StoreInconsistentError",
    "StoreMismatchError",
    "UpdateBatch",
    "UpdateRecord",
    "VerificationReport",
    "ViewEntry",
    "actual_view",
    "append_batch",
    "assess_detection",
    "canonical_encode_update",
    "compute_hash",
    "decode_update",
    "import_history",
    "load_ledger",
    "materialize",
    "measure_rewrite_cascade",
    "parse_batch_input",
    "read_data_file",
    "read_ledger_header",
    "reconstruct",
    "replay_rows",
    "tamper_update_in_place",
    "tamper_with_rehash",
    "verify_against_table",
    "verify_chain",
    "write_data_file",
    "__version__",
]
