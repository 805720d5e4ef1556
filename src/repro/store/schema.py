"""Versioned schema for the campaign database.

One SQLite file holds everything the ROADMAP calls "millions of runs
as a queryable artifact": run/fn summaries keyed by spec fingerprint ×
code salt (the campaign cache, :mod:`repro.store.cache`), campaign
executions with their cell digests, and chaos/explore violation
witnesses.  The same schema serves a frontier run's own coordination
file — its work queue, leases and shared visited-set fingerprints —
which :func:`~repro.explore.frontierd.run_frontier` keeps in a file of
its own, never in a campaign database.

Every table carries an explicit per-row ``format`` column **and** the
file carries a whole-schema version in the ``meta`` table.  A store
written by a different schema version is refused with a clear error at
open time — never silently misread — and ``python -m repro.store
--migrate`` walks :data:`MIGRATIONS` forward one version at a time.
"""

from __future__ import annotations

import sqlite3
from typing import Callable, Dict

#: Whole-file schema version, stamped into ``meta('schema_version')``.
#: Bump on any table/column change and register a migration below.
#:
#: v2 added the distributed-frontier substrate: ``work_queue`` (shard
#: roots as claimable items) and ``leases`` (expiring per-item
#: ownership — the timeout-as-failure-detector the coordinator reads).
#:
#: The batched claim/complete protocol (``claim_work_batch`` /
#: ``complete_work_batch`` / ``heartbeat_worker``) deliberately needs
#: no bump: a batch lease is N ordinary per-item ``leases`` rows
#: written in one transaction, a coalesced heartbeat is one UPDATE
#: over ``(scope, worker)``, and batch completion reuses the same
#: ``work_queue`` status machine — so v2 stores written by per-item
#: and batched code interoperate row-for-row.
#:
#: v3 dropped the table of benchmark reports trended across CI runs;
#: the repo benchmark keeps no history in the store.
#:
#: v4 dropped the ``exchange_scopes`` registry and ``work_queue.kind``:
#: coordination rows live only in a frontier run's own file, so there
#: is no leak in a campaign database to collect.
SCHEMA_VERSION = 4

#: Per-row format version written into every row's ``format`` column.
#: Tracks the *payload* conventions (pickle framing, JSON shapes)
#: independently of table layout.
ROW_FORMAT = 1

TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS run_summaries (
    key        TEXT NOT NULL,              -- spec content fingerprint
    salt       TEXT NOT NULL,              -- source-tree hash (cache salt)
    format     INTEGER NOT NULL,           -- row format version
    kind       TEXT NOT NULL,              -- 'run' | 'fn'
    digest     TEXT NOT NULL,              -- summary.stable_digest()
    tags       TEXT NOT NULL,              -- JSON tag dict
    wall_clock REAL NOT NULL,
    created    REAL NOT NULL,
    payload    BLOB NOT NULL,              -- checksummed pickle frame
    PRIMARY KEY (salt, key)
);

CREATE TABLE IF NOT EXISTS campaigns (
    id         INTEGER PRIMARY KEY,
    format     INTEGER NOT NULL,
    name       TEXT,
    digest     TEXT NOT NULL,              -- hash of the cell-key list
    salt       TEXT NOT NULL,
    cells      INTEGER NOT NULL,
    hits       INTEGER NOT NULL,
    executed   INTEGER NOT NULL,
    failures   INTEGER NOT NULL,
    corrupt    INTEGER NOT NULL,
    wall_clock REAL NOT NULL,
    workers    INTEGER NOT NULL,
    created    REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS campaigns_digest ON campaigns (digest, salt);

CREATE TABLE IF NOT EXISTS fingerprints (
    id        INTEGER PRIMARY KEY,
    scope     TEXT NOT NULL,               -- case/options fingerprint
    fp        TEXT NOT NULL,               -- state digest
    remaining INTEGER NOT NULL,            -- ticks left when recorded
    format    INTEGER NOT NULL,
    UNIQUE (scope, fp)
);

CREATE TABLE IF NOT EXISTS witnesses (
    id       INTEGER PRIMARY KEY,
    format   INTEGER NOT NULL,
    family   TEXT NOT NULL,                -- 'chaos' | 'explore'
    target   TEXT NOT NULL,
    violated TEXT NOT NULL,                -- JSON clause list
    document TEXT NOT NULL,                -- the full artifact JSON
    created  REAL NOT NULL
);

CREATE TABLE IF NOT EXISTS work_queue (
    id         INTEGER PRIMARY KEY,
    scope      TEXT NOT NULL,              -- one frontier run
    item       TEXT NOT NULL,              -- JSON work description
    status     TEXT NOT NULL,              -- pending|leased|done|quarantined
    attempts   INTEGER NOT NULL,           -- claims so far
    not_before REAL NOT NULL,              -- earliest next claim (backoff)
    result     BLOB,                       -- checksummed frame, once done
    error      TEXT,                       -- last failure incident (JSON)
    format     INTEGER NOT NULL,
    created    REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS work_queue_scope ON work_queue (scope, status);

CREATE TABLE IF NOT EXISTS leases (
    work_id   INTEGER PRIMARY KEY,         -- the leased work_queue row
    scope     TEXT NOT NULL,
    worker    TEXT NOT NULL,               -- claimant identity
    acquired  REAL NOT NULL,
    heartbeat REAL NOT NULL,               -- last liveness signal
    expires   REAL NOT NULL,               -- suspicion threshold
    format    INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS leases_scope ON leases (scope, expires);
"""


class StoreError(RuntimeError):
    """Any campaign-database failure the caller should see."""


class SchemaVersionError(StoreError):
    """The file speaks a different schema version than the code."""

    def __init__(self, path, found: int, expected: int):
        self.path = path
        self.found = found
        self.expected = expected
        direction = (
            "run `python -m repro.store --migrate --db %s` to upgrade it"
            % path
            if found < expected
            else "it was written by newer code; upgrade this checkout"
        )
        super().__init__(
            f"store {path} has schema v{found}, this code speaks "
            f"v{expected}; {direction}"
        )


def create_schema(con: sqlite3.Connection) -> None:
    """Create every table and stamp the current schema version."""
    con.executescript(TABLES)
    con.execute(
        "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
        ("schema_version", str(SCHEMA_VERSION)),
    )
    con.commit()


def read_version(con: sqlite3.Connection) -> int:
    """The file's stamped schema version; 0 for a pre-versioned file."""
    try:
        row = con.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
    except sqlite3.OperationalError:
        return 0  # no meta table: a store from before versioning
    if row is None:
        return 0
    try:
        return int(row[0])
    except (TypeError, ValueError):
        return 0


def check_version(con: sqlite3.Connection, path) -> None:
    """Refuse (loudly) to touch a store from another schema version."""
    found = read_version(con)
    if found != SCHEMA_VERSION:
        raise SchemaVersionError(path, found, SCHEMA_VERSION)


def _migrate_0_to_1(con: sqlite3.Connection) -> None:
    """v0 → v1: create any missing table and stamp the version.

    v0 is the pre-versioned layout (same tables, no ``meta`` stamp), so
    the table DDL is idempotent over it.
    """
    create_schema(con)


def _migrate_1_to_2(con: sqlite3.Connection) -> None:
    """v1 → v2: add ``work_queue``/``leases``; the idempotent DDL is the
    whole migration."""
    create_schema(con)


def _migrate_2_to_3(con: sqlite3.Connection) -> None:
    """v2 → v3: drop ``bench_history`` and its index; no other table
    changes."""
    con.execute("DROP INDEX IF EXISTS bench_history_bench")
    con.execute("DROP TABLE IF EXISTS bench_history")


def _migrate_3_to_4(con: sqlite3.Connection) -> None:
    """v3 → v4: drop the coordination tables and re-create them without
    ``exchange_scopes`` and ``work_queue.kind``.

    In a campaign database those tables held only per-run or leaked
    rows, so dropping them is also the last sweep; every other table
    is untouched.
    """
    for table in ("exchange_scopes", "leases", "work_queue", "fingerprints"):
        con.execute(f"DROP TABLE IF EXISTS {table}")
    create_schema(con)


#: from-version → in-place migration to from-version + 1.
MIGRATIONS: Dict[int, Callable[[sqlite3.Connection], None]] = {
    0: _migrate_0_to_1,
    1: _migrate_1_to_2,
    2: _migrate_2_to_3,
    3: _migrate_3_to_4,
}


def migrate(con: sqlite3.Connection, path) -> int:
    """Walk the file forward to :data:`SCHEMA_VERSION`; returns it.

    Raises :class:`SchemaVersionError` for files from the future (no
    down-migrations) and :class:`StoreError` on a gap in the chain.
    """
    version = read_version(con)
    if version > SCHEMA_VERSION:
        raise SchemaVersionError(path, version, SCHEMA_VERSION)
    while version < SCHEMA_VERSION:
        step = MIGRATIONS.get(version)
        if step is None:
            raise StoreError(
                f"no migration registered from schema v{version} "
                f"(store {path})"
            )
        step(con)
        con.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", str(version + 1)),
        )
        con.commit()
        version = read_version(con)
    return version
