"""Tamper-evident append-only tables backed by a hash-chained ledger.

Every write to the protected data table is captured as an update batch and
sealed into a ledger record whose double SHA-256 hash covers the previous
record's hash. Rewriting history therefore forces rewriting every later
record, and a single pass over the chain exposes any in-place edit. The data
table itself is append-only: inserts, updates, and deletions all become new
rows, and the current state is a replay projection, never a mutation.
"""

from .attack import measure_rewrite_cascade, tamper_ledger
from .chain import (
    HASH_ALGORITHM,
    ChainRecord,
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
from .storage import LedgerFile, load_ledger
from .store import ChainTableStore
from .table import DataTable, read_data_file, replay_rows, write_data_file

__version__ = "1.0.0"

__all__ = [
    "ChainRecord",
    "ChainTableError",
    "ChainTableStore",
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
    "append_batch",
    "canonical_encode_update",
    "compute_hash",
    "decode_update",
    "load_ledger",
    "materialize",
    "measure_rewrite_cascade",
    "parse_batch_input",
    "read_data_file",
    "reconstruct",
    "replay_rows",
    "tamper_ledger",
    "verify_against_table",
    "verify_chain",
    "write_data_file",
    "__version__",
]
