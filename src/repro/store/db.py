"""The campaign database: one WAL-mode SQLite file, one writer.

Connection discipline (the pyotter pattern): a store object owns a
single lazily-opened **write connection** whose inserts go through
:class:`BufferedWriter`\\ s — rows accumulate in memory and land in one
``executemany`` per batch, each batch one committed transaction, so a
killed writer loses at most its uncommitted tail and never corrupts
the file.  Queries that must not block (or be blocked by) the writer —
the reporting CLI — open short-lived **read-only** connections
(``mode=ro``).  WAL mode plus a busy timeout lets many processes read
while one writes.

Every open checks the file's stamped schema version first and refuses
a mismatch with a clear error (see :mod:`repro.store.schema`).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import sqlite3
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.store.schema import (
    ROW_FORMAT,
    SCHEMA_VERSION,
    SchemaVersionError,
    StoreError,
    check_version,
    create_schema,
    migrate,
)

#: Default store location, overridable via $REPRO_STORE_DIR.
DEFAULT_STORE_DIR = ".repro-store"
STORE_FILENAME = "store.sqlite"

#: Summary payload framing: magic + hex sha256(payload)[:32] + pickle.
#: SQLite checksums pages, not rows, and a foreign or torn row should
#: read as corrupt, not as a wrong summary.
_MAGIC = b"RPST1\n"
_CHECKSUM_LEN = 32


class CorruptPayload(StoreError):
    """A stored summary payload failed its frame or checksum check."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def encode_payload(summary: Any) -> bytes:
    """Pickle ``summary`` into the checksummed frame."""
    payload = pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL)
    checksum = hashlib.sha256(payload).hexdigest()[:_CHECKSUM_LEN].encode()
    return _MAGIC + checksum + payload


def decode_payload(blob: bytes) -> Any:
    """The summary back out of a frame; :class:`CorruptPayload` if torn."""
    header_len = len(_MAGIC) + _CHECKSUM_LEN
    if len(blob) < header_len or not blob.startswith(_MAGIC):
        raise CorruptPayload("bad magic (foreign or truncated payload)")
    stored = blob[len(_MAGIC) : header_len]
    payload = blob[header_len:]
    actual = hashlib.sha256(payload).hexdigest()[:_CHECKSUM_LEN].encode()
    if stored != actual:
        raise CorruptPayload("checksum mismatch (truncated or bit-rotted)")
    try:
        return pickle.loads(payload)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
        raise CorruptPayload(f"payload does not unpickle: {exc}")


def resolve_store_path(root: Optional[os.PathLike] = None) -> Path:
    """The store file under ``root`` (default ``$REPRO_STORE_DIR``)."""
    if root is None:
        root = os.environ.get("REPRO_STORE_DIR", DEFAULT_STORE_DIR)
    root = Path(root)
    if root.suffix == ".sqlite":
        return root
    return root / STORE_FILENAME


# -- SQLITE_BUSY retry ----------------------------------------------------
#: With several processes sharing one store file, the 30s busy timeout
#: usually absorbs contention — but SQLITE_BUSY can still surface (e.g.
#: a writer starved past the timeout, or a deadlock broken by returning
#: busy).  Opens and buffered writes therefore retry through
#: :func:`retry_locked`: jittered exponential backoff.
BUSY_MAX_RETRIES = 6
BUSY_BASE_DELAY = 0.05


def _is_busy_error(exc: BaseException) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text


def retry_locked(
    operation: Callable[[], Any],
    retries: int = BUSY_MAX_RETRIES,
    base_delay: float = BUSY_BASE_DELAY,
) -> Any:
    """Run ``operation``, retrying SQLITE_BUSY/locked with jittered backoff.

    Anything that is not a busy/locked :class:`sqlite3.OperationalError`
    propagates immediately; so does busy after ``retries`` attempts —
    the caller sees the real error, never a silent swallow.
    """
    attempt = 0
    while True:
        try:
            return operation()
        except sqlite3.OperationalError as exc:
            if not _is_busy_error(exc) or attempt >= retries:
                raise
            attempt += 1
            time.sleep(
                base_delay * (2 ** (attempt - 1)) * (0.5 + random.random())
            )


class BufferedWriter:
    """Batched ``executemany`` inserts; one transaction per flush."""

    def __init__(self, con: sqlite3.Connection, sql: str, batch: int = 256):
        self.con = con
        self.sql = sql
        self.batch = max(1, batch)
        self.rows: List[Tuple] = []

    def insert(self, *row: Any) -> None:
        self.rows.append(row)
        if len(self.rows) >= self.batch:
            self.flush()

    def flush(self) -> None:
        if not self.rows:
            return

        def _commit() -> None:
            with self.con:  # one committed transaction per batch
                self.con.executemany(self.sql, self.rows)

        retry_locked(_commit)
        self.rows.clear()


class ResultStore:
    """One campaign database file; see the module doc for the shape.

    ``batch`` sizes the buffered summary writer (1 = commit per put —
    what the crash-safety tests use to pin "no committed row is ever
    lost").
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        batch: int = 64,
        create: bool = True,
    ):
        self.path = resolve_store_path(root)
        self.batch = batch
        self._write: Optional[sqlite3.Connection] = None
        if create and not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            con = self._connect(self.path)
            try:
                create_schema(con)
            finally:
                con.close()
        elif not self.path.exists():
            raise StoreError(f"no store at {self.path}")
        self._writers: Dict[str, BufferedWriter] = {}

    # -- connections ---------------------------------------------------
    @staticmethod
    def _connect(path: Path, read_only: bool = False) -> sqlite3.Connection:
        def _open() -> sqlite3.Connection:
            if read_only:
                con = sqlite3.connect(
                    f"file:{path}?mode=ro", uri=True, timeout=30.0
                )
            else:
                con = sqlite3.connect(path, timeout=30.0)
                con.execute("PRAGMA journal_mode=WAL")
                con.execute("PRAGMA synchronous=NORMAL")
            con.execute("PRAGMA busy_timeout=30000")
            return con

        return retry_locked(_open)

    @property
    def write_connection(self) -> sqlite3.Connection:
        """The store's single write connection (opened on first use)."""
        if self._write is None:
            con = self._connect(self.path)
            check_version(con, self.path)
            self._write = con
        return self._write

    def read_connection(self) -> sqlite3.Connection:
        """A fresh read-only connection (caller closes)."""
        con = self._connect(self.path, read_only=True)
        check_version(con, self.path)
        return con

    def _writer(self, table: str, sql: str) -> BufferedWriter:
        writer = self._writers.get(table)
        if writer is None:
            writer = BufferedWriter(self.write_connection, sql, self.batch)
            self._writers[table] = writer
        return writer

    def flush(self) -> None:
        """Commit every buffered row."""
        for writer in self._writers.values():
            writer.flush()

    def close(self) -> None:
        """Flush and close every connection; the next call reopens.

        The buffered writers go with the write connection they were
        bound to, so a later put starts a fresh one.
        """
        self.flush()
        self._writers.clear()
        if self._write is not None:
            self._write.close()
            self._write = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r})"

    # -- run summaries -------------------------------------------------
    def put_summary(self, key: str, salt: str, summary: Any) -> None:
        """Record one cell result (buffered; see :meth:`flush`)."""
        kind = "fn" if type(summary).__name__ == "FnSummary" else "run"
        self._writer(
            "run_summaries",
            "INSERT OR REPLACE INTO run_summaries "
            "(key, salt, format, kind, digest, tags, wall_clock, created, "
            "payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
        ).insert(
            key,
            salt,
            ROW_FORMAT,
            kind,
            summary.stable_digest(),
            json.dumps(getattr(summary, "tags", {}), sort_keys=True, default=repr),
            getattr(summary, "wall_clock", 0.0),
            time.time(),
            encode_payload(summary),
        )

    def get_summary(self, key: str, salt: str) -> Optional[Any]:
        """The stored summary, or None on miss.

        Raises :class:`CorruptPayload` on a torn row (the caller decides
        whether that is an event or an error) — the row is deleted first
        so the next lookup is a clean miss.
        """
        row = self.write_connection.execute(
            "SELECT format, payload FROM run_summaries "
            "WHERE key = ? AND salt = ?",
            (key, salt),
        ).fetchone()
        if row is None:
            return None
        row_format, blob = row
        if row_format != ROW_FORMAT:
            self.delete_summary(key, salt)
            raise CorruptPayload(
                f"row format v{row_format}, this code writes v{ROW_FORMAT}"
            )
        try:
            return decode_payload(blob)
        except CorruptPayload:
            self.delete_summary(key, salt)
            raise

    def delete_summary(self, key: str, salt: str) -> None:
        with self.write_connection as con:
            con.execute(
                "DELETE FROM run_summaries WHERE key = ? AND salt = ?",
                (key, salt),
            )

    # -- campaigns -----------------------------------------------------
    @staticmethod
    def campaign_digest(keys: Sequence[str]) -> str:
        """Content hash of a campaign's ordered cell-key list."""
        digest = hashlib.sha256()
        for key in keys:
            digest.update(key.encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def record_campaign(
        self,
        name: Optional[str],
        digest: str,
        salt: str,
        cells: int,
        hits: int,
        executed: int,
        failures: int,
        corrupt: int,
        wall_clock: float,
        workers: int,
    ) -> None:
        """One executed campaign, committed immediately."""
        self.flush()  # cell rows land before (never after) their campaign
        with self.write_connection as con:
            con.execute(
                "INSERT INTO campaigns (format, name, digest, salt, cells, "
                "hits, executed, failures, corrupt, wall_clock, workers, "
                "created) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    ROW_FORMAT,
                    name,
                    digest,
                    salt,
                    cells,
                    hits,
                    executed,
                    failures,
                    corrupt,
                    wall_clock,
                    workers,
                    time.time(),
                ),
            )

    # -- maintenance ---------------------------------------------------
    def migrate(self) -> int:
        """Walk the file to the current schema version; returns it."""
        con = self._connect(self.path)
        try:
            return migrate(con, self.path)
        finally:
            con.close()


__all__ = [
    "BufferedWriter",
    "CorruptPayload",
    "DEFAULT_STORE_DIR",
    "ResultStore",
    "SCHEMA_VERSION",
    "SchemaVersionError",
    "StoreError",
    "decode_payload",
    "encode_payload",
    "resolve_store_path",
    "retry_locked",
]
