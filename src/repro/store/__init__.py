"""The persistent result store: campaigns as a queryable artifact.

One WAL-mode SQLite file accumulates everything that outlives a run —
run/fn summaries (which are the campaign cache), campaign executions
and chaos/explore violation witnesses — so "millions of runs" survive
the process that produced them and resume and dedup queries become one
``SELECT``.  A frontier run's work queue, leases and cross-shard
fingerprints use the same schema in a file of the run's own, never the
campaign database.

* :class:`ResultStore` — the file, its single write connection with
  buffered batch inserts, and read-only query connections
  (:mod:`repro.store.db`);
* :class:`StoreResultCache` — the campaign cache: what ``--cache`` /
  ``cache=True`` / a directory resolves to (:mod:`repro.store.cache`);
* :class:`FingerprintExchange` — batched cross-shard visited-set
  exchange for the frontier's shards (:mod:`repro.store.exchange`);
* ``python -m repro.store`` — ``summarise`` / ``show`` /
  ``--migrate`` (:mod:`repro.store.__main__`).

Schema and versioning live in :mod:`repro.store.schema`: every row
carries a format version, the file carries a schema version, and a
mismatch is refused with a clear error instead of silently misread.
See ``docs/STORE.md`` for the tour.
"""

from repro.store.cache import StoreResultCache
from repro.store.db import (
    BufferedWriter,
    CorruptPayload,
    DEFAULT_STORE_DIR,
    ResultStore,
    StoreError,
    WorkItem,
    decode_payload,
    drain_busy_retries,
    encode_payload,
    resolve_store_path,
    retry_locked,
)
from repro.store.exchange import FingerprintExchange, exchange_scope
from repro.store.schema import ROW_FORMAT, SCHEMA_VERSION, SchemaVersionError

__all__ = [
    "BufferedWriter",
    "CorruptPayload",
    "DEFAULT_STORE_DIR",
    "FingerprintExchange",
    "ResultStore",
    "ROW_FORMAT",
    "SCHEMA_VERSION",
    "SchemaVersionError",
    "StoreError",
    "StoreResultCache",
    "WorkItem",
    "decode_payload",
    "drain_busy_retries",
    "encode_payload",
    "exchange_scope",
    "resolve_store_path",
    "retry_locked",
]
