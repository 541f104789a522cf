"""Serialization of configurations, run results, and the witness store."""

from .serialize import (
    WITNESS_SCHEMA,
    WitnessFormatError,
    WitnessRecord,
    load_configuration,
    save_configuration,
    witness_from_dict,
    witness_id,
    witness_to_dict,
)
from .jsonl import JsonlStore
from .ledger import (
    LEDGER_SCHEMA,
    LedgerError,
    LedgerScope,
    RunLedger,
    ShardCheckpoint,
    StaleRunError,
    decode_payload,
    encode_payload,
    open_ledger,
    run_id,
)
from .query import Page, QueryError, WitnessQueryIndex
from .witnessdb import (
    CellRecord,
    WitnessDB,
    WitnessVerification,
    rule_registry_name,
    verify_witness,
)

__all__ = [
    "save_configuration",
    "load_configuration",
    "WITNESS_SCHEMA",
    "WitnessFormatError",
    "WitnessRecord",
    "witness_id",
    "witness_to_dict",
    "witness_from_dict",
    "JsonlStore",
    "LEDGER_SCHEMA",
    "LedgerError",
    "LedgerScope",
    "RunLedger",
    "ShardCheckpoint",
    "StaleRunError",
    "decode_payload",
    "encode_payload",
    "open_ledger",
    "run_id",
    "Page",
    "QueryError",
    "WitnessQueryIndex",
    "CellRecord",
    "WitnessDB",
    "WitnessVerification",
    "rule_registry_name",
    "verify_witness",
]
