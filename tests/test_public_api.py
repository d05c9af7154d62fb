"""The package's public surface is pinned: a new public name is a deliberate
edit to this list."""

import chaintable
import chaintable.chain
import chaintable.encoding
import chaintable.storage

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


def test_one_record_type_replaces_the_checked_line():
    # A checked ledger line is its ChainRecord, so the second shape of a
    # record and the loader and verifier that served it are gone.
    assert not hasattr(chaintable.storage, "load_lines")
    assert not hasattr(chaintable.storage, "CheckedLine")
    assert not hasattr(chaintable.chain, "verify_lines")


def test_a_batch_is_its_bytes_with_no_second_spelling():
    # An UpdateBatch is a bytes, so the helper that turned a batch into its
    # bytes, the dict rebuild of decoded rows and the batch's own key reader are gone.
    assert not hasattr(chaintable.encoding, "update_bytes")
    assert not hasattr(chaintable.encoding, "_checked_row")
    assert not hasattr(chaintable.UpdateBatch, "keys")
    for name in ("__eq__", "__hash__", "__len__", "__iter__"):  # the bytes' own
        assert name not in vars(chaintable.UpdateBatch), name


def test_a_loaded_record_is_a_tuple_holding_the_update_bytes(tmp_path):
    ledger, table = tmp_path / "l.ctl", tmp_path / "t.ctd"
    batch = chaintable.UpdateBatch([chaintable.UpdateRecord(1, "t1", "opt1")])
    with chaintable.ChainTableStore.create(ledger, table, "Events") as store:
        store.append(batch)
    record = chaintable.load_ledger(ledger).records[0]
    assert isinstance(record, chaintable.ChainRecord) and isinstance(record, tuple)
    assert record._fields == ("lid", "hash", "prev_hash", "update")
    assert type(record.update) is bytes
    assert record.update == chaintable.canonical_encode_update(batch)
