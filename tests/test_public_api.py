"""The package's public surface is pinned: a new public name is a deliberate
edit to this list."""

import chaintable

PUBLIC_NAMES = [
    "ChainRecord",
    "ChainTableError",
    "ChainTableStore",
    "DataTable",
    "Divergence",
    "DuplicateKeyError",
    "FailureKind",
    "HASH_ALGORITHM",
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
    "__version__",
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
]


def test_all_is_exactly_the_pinned_names():
    assert sorted(chaintable.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 37


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(chaintable, name) is not None, name


def test_deleted_wrappers_stay_deleted():
    # Replay returns a row tuple, the table check a divergence tuple, a hash
    # is its hex text and a broken chain raises InvalidLedgerError; the
    # wrappers that only repackaged them are gone and must not come back.
    for name in (
        "ActualView",
        "AttackOutcome",
        "ConsistencyReport",
        "assess_detection",
        "Hash",
        "VerificationReport",
    ):
        assert not hasattr(chaintable, name), name
    assert not hasattr(chaintable.Ledger, "copy")
