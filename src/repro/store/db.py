"""The campaign database: one WAL-mode SQLite file, one writer.

Connection discipline (the pyotter pattern): a store object owns a
single lazily-opened **write connection** whose inserts go through
:class:`BufferedWriter`\\ s — rows accumulate in memory and land in one
``executemany`` per batch, each batch one committed transaction, so a
killed writer loses at most its uncommitted tail and never corrupts
the file.  Queries that must not block (or be blocked by) the writer —
the reporting CLI, worker processes pulling fingerprints — open
short-lived **read-only** connections (``mode=ro``).  WAL mode plus a
busy timeout lets many processes read while one writes, which is
exactly the campaign shape: one parent recording, N workers polling.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
#: With many worker processes sharing one store file, the 30s busy
#: timeout usually absorbs contention — but SQLITE_BUSY can still
#: surface (e.g. a writer starved past the timeout, or a deadlock
#: broken by returning busy).  Every store operation therefore retries
#: through :func:`retry_locked`: jittered exponential backoff, counted
#: in a module tally that callers drain into the ``store_busy_retries``
#: perf counter.
BUSY_MAX_RETRIES = 6
BUSY_BASE_DELAY = 0.05

_busy_retries = 0


def drain_busy_retries() -> int:
    """Take (and reset) the busy-retry tally since the last drain."""
    global _busy_retries
    count, _busy_retries = _busy_retries, 0
    return count


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
    global _busy_retries
    attempt = 0
    while True:
        try:
            return operation()
        except sqlite3.OperationalError as exc:
            if not _is_busy_error(exc) or attempt >= retries:
                raise
            attempt += 1
            _busy_retries += 1
            time.sleep(
                base_delay * (2 ** (attempt - 1)) * (0.5 + random.random())
            )


@dataclass(frozen=True)
class WorkItem:
    """One claimed ``work_queue`` row: the lease's subject."""

    id: int
    item: Dict[str, Any]
    attempts: int


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
        self._read: Optional[sqlite3.Connection] = None
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

    @property
    def shared_read_connection(self) -> sqlite3.Connection:
        """The store's own long-lived read-only connection.

        Hot-path reads (the exchange's cursored fingerprint pulls, the
        workers' queue polls) must not pay a connection open — WAL-mode
        readers never block the writer, so one reused handle per store
        object is safe.  Like the write connection it is bound to the
        creating thread; threads own their own store objects.
        """
        if self._read is None:
            self._read = self._connect(self.path, read_only=True)
            check_version(self._read, self.path)
        return self._read

    def _immediate(self, txn: Callable[[sqlite3.Connection], Any]) -> Any:
        """Run ``txn(con)`` inside one BEGIN IMMEDIATE transaction.

        The write lock is taken up front, so a multi-statement protocol
        step (claim, complete-with-children, requeue) is atomic against
        every other process on the file.  The whole transaction retries
        on SQLITE_BUSY — safe because a failed BEGIN/COMMIT leaves
        nothing applied.
        """

        def _run() -> Any:
            con = self.write_connection
            if con.in_transaction:  # a torn earlier batch; seal it
                con.commit()
            con.execute("BEGIN IMMEDIATE")
            try:
                value = txn(con)
                con.execute("COMMIT")
                return value
            except BaseException:
                if con.in_transaction:
                    con.execute("ROLLBACK")
                raise

        return retry_locked(_run)

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
        if self._read is not None:
            self._read.close()
            self._read = None

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

    # -- explorer fingerprints -----------------------------------------
    def load_fingerprints(self, scope: str) -> Tuple[Dict[str, int], int]:
        """Every published ``fp → remaining`` in ``scope``.

        Returns ``(visited, high_water)`` where ``high_water`` is the
        max rowid seen — the cursor for :meth:`fingerprints_since`.
        """

        def _load() -> Tuple[Dict[str, int], int]:
            visited: Dict[str, int] = {}
            high = 0
            for rowid, fp, remaining in self.shared_read_connection.execute(
                "SELECT id, fp, remaining FROM fingerprints "
                "WHERE scope = ?",
                (scope,),
            ):
                visited[fp] = remaining
                high = max(high, rowid)
            return visited, high

        return retry_locked(_load)

    def fingerprints_since(
        self, scope: str, after: int
    ) -> Tuple[List[Tuple[str, int]], int]:
        """Fingerprints inserted after rowid ``after`` (batched pull)."""

        def _pull() -> List[Tuple[int, str, int]]:
            return self.shared_read_connection.execute(
                "SELECT id, fp, remaining FROM fingerprints "
                "WHERE scope = ? AND id > ?",
                (scope, after),
            ).fetchall()

        rows = retry_locked(_pull)
        high = after
        out = []
        for rowid, fp, remaining in rows:
            out.append((fp, remaining))
            high = max(high, rowid)
        return out, high

    _FP_UPSERT = (
        "INSERT INTO fingerprints (scope, fp, remaining, format) "
        "VALUES (?, ?, ?, ?) "
        "ON CONFLICT (scope, fp) DO UPDATE SET "
        "remaining = max(remaining, excluded.remaining)"
    )

    def publish_fingerprints(
        self, scope: str, items: Iterable[Tuple[str, int]]
    ) -> None:
        """Upsert a batch of ``(fp, remaining)``; keeps the max depth."""
        rows = [(scope, fp, remaining, ROW_FORMAT) for fp, remaining in items]
        if not rows:
            return

        def _commit() -> None:
            with self.write_connection as con:
                con.executemany(self._FP_UPSERT, rows)

        retry_locked(_commit)

    def release_scope(self, scope: str) -> None:
        """Drop a finished search's fingerprint rows."""

        def _commit() -> None:
            with self.write_connection as con:
                con.execute(
                    "DELETE FROM fingerprints WHERE scope = ?", (scope,)
                )

        retry_locked(_commit)

    # -- work queue and leases -----------------------------------------
    #: Backoff base for requeued work: attempt k waits 2^(k-1) of these.
    WORK_BACKOFF_BASE = 0.25

    def enqueue_work(
        self,
        scope: str,
        items: Sequence[Dict[str, Any]],
        now: Optional[float] = None,
    ) -> int:
        """Append pending work items to one scope's queue."""
        now = time.time() if now is None else now
        rows = [
            (scope, json.dumps(item, sort_keys=True), "pending", 0, 0.0,
             ROW_FORMAT, now)
            for item in items
        ]
        if not rows:
            return 0

        def _commit() -> None:
            with self.write_connection as con:
                con.executemany(
                    "INSERT INTO work_queue (scope, item, status, "
                    "attempts, not_before, format, created) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    rows,
                )

        retry_locked(_commit)
        return len(rows)

    def claim_work_batch(
        self,
        scope: str,
        worker: str,
        ttl: float,
        limit: int,
        fair_share: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Tuple[List[WorkItem], Dict[str, int]]:
        """Atomically lease up to ``limit`` claimable items, oldest
        first, in one transaction.

        Claimable means pending with its backoff window (``not_before``)
        elapsed.  The claims and their leases land together, so two
        workers can never hold the same item.  ``fair_share`` (the
        worker count) caps the batch at
        ``ceil(claimable / fair_share)`` so one worker never vacuums a
        queue its siblings could be draining: with k workers and n
        claimable items nobody walks away with more than ⌈n/k⌉.  Each
        leased item gets its own row in the v2 ``leases`` table.  Items
        that were already requeued (``attempts >
        0``) are claimed solo — batches die as a unit, so isolating
        suspects keeps quarantine attribution per-item.  Returns
        ``(items, status)`` where ``status`` is the post-claim
        :meth:`work_status` snapshot, read inside the same transaction
        so callers get it for free (no extra round trip) and can size
        re-splits off a consistent count.
        """
        now = time.time() if now is None else now

        def _claim(con: sqlite3.Connection) -> Tuple[List[WorkItem], Dict[str, int]]:
            claimable = con.execute(
                "SELECT COUNT(*) FROM work_queue WHERE scope = ? "
                "AND status = 'pending' AND not_before <= ?",
                (scope, now),
            ).fetchone()[0]
            take = min(limit, claimable)
            if fair_share is not None and fair_share > 1:
                take = min(take, -(-claimable // fair_share))
            items: List[WorkItem] = []
            if take > 0:
                rows = con.execute(
                    "SELECT id, item, attempts FROM work_queue "
                    "WHERE scope = ? AND status = 'pending' "
                    "AND not_before <= ? ORDER BY id LIMIT ?",
                    (scope, now, take),
                ).fetchall()
                # Retried items ride solo.  A dead batch burns one
                # attempt on every passenger, so batching suspects
                # would let a single poison item (or an unlucky streak
                # of kills) quarantine innocent neighbours; isolating
                # anything already requeued keeps poison attribution
                # per-item, while fresh items keep the amortized batch.
                if rows and rows[0][2] > 0:
                    rows = rows[:1]
                else:
                    for index, row in enumerate(rows):
                        if row[2] > 0:
                            rows = rows[:index]
                            break
                con.executemany(
                    "UPDATE work_queue SET status = 'leased', "
                    "attempts = attempts + 1 WHERE id = ?",
                    [(row[0],) for row in rows],
                )
                con.executemany(
                    "INSERT OR REPLACE INTO leases (work_id, scope, worker, "
                    "acquired, heartbeat, expires, format) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    [
                        (row[0], scope, worker, now, now, now + ttl,
                         ROW_FORMAT)
                        for row in rows
                    ],
                )
                items = [
                    WorkItem(
                        id=work_id, item=json.loads(item),
                        attempts=attempts + 1,
                    )
                    for work_id, item, attempts in rows
                ]
            counts = {
                "pending": 0, "leased": 0, "done": 0, "quarantined": 0,
            }
            for status, count in con.execute(
                "SELECT status, COUNT(*) FROM work_queue WHERE scope = ? "
                "GROUP BY status",
                (scope,),
            ):
                counts[status] = count
            return items, counts

        return self._immediate(_claim)

    def heartbeat_worker(
        self,
        scope: str,
        worker: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> int:
        """Extend every lease ``worker`` holds in ``scope`` — one UPDATE.

        The coalesced liveness signal: a worker walking a claimed batch
        sends one heartbeat per interval regardless of how many items
        it holds, instead of one per item.  Returns the number of
        leases renewed; 0 means the worker holds nothing (all expired
        or reassigned) and should stop advertising liveness.
        """
        now = time.time() if now is None else now

        def _beat() -> int:
            with self.write_connection as con:
                return con.execute(
                    "UPDATE leases SET heartbeat = ?, expires = ? "
                    "WHERE scope = ? AND worker = ?",
                    (now, now + ttl, scope, worker),
                ).rowcount

        return retry_locked(_beat)

    def complete_work_batch(
        self,
        worker: str,
        completions: Sequence[Dict[str, Any]],
        fingerprints: Sequence[Tuple[str, Sequence[Tuple[str, int]]]] = (),
        now: Optional[float] = None,
    ) -> bool:
        """Finish a claimed batch in ONE transaction — all or nothing.

        ``completions`` is one dict per walked item: ``{"work_id",
        "result", "children"}`` (children optional).  ``fingerprints``
        is per *exchange scope* — ``(scope, [(fp, remaining), ...])``
        pairs — because a batch shares one visited set per scope, so
        its deferred states cannot be attributed to single items.

        An item is accepted while this worker still holds its lease,
        or while it sits requeued-but-unclaimed (the lease expired
        under a slow worker that then finished anyway — the work is
        deterministic, so the late result is the right result), and
        refused once another worker owns or finished it.  The shared
        visited set is exactly why acceptance is all-or-nothing: every
        item must pass that ownership test or the whole batch is
        rejected and publishes nothing, which is what keeps crash
        recovery sound — no fingerprint ever claims coverage whose
        results were not merged.  A worker whose batch is rejected
        simply abandons it: its remaining leases expire and the
        coordinator's failure detector requeues exactly those items.
        """
        now = time.time() if now is None else now

        def _complete(con: sqlite3.Connection) -> bool:
            for completion in completions:
                work_id = completion["work_id"]
                row = con.execute(
                    "SELECT status FROM work_queue WHERE id = ?", (work_id,)
                ).fetchone()
                if row is None:
                    return False
                status = row[0]
                if status == "leased":
                    lease = con.execute(
                        "SELECT worker FROM leases WHERE work_id = ?",
                        (work_id,),
                    ).fetchone()
                    if lease is None or lease[0] != worker:
                        return False
                elif status != "pending":
                    return False  # already done or quarantined
            for completion in completions:
                work_id = completion["work_id"]
                con.execute(
                    "UPDATE work_queue SET status = 'done', result = ?, "
                    "error = NULL WHERE id = ?",
                    (encode_payload(completion["result"]), work_id),
                )
                con.execute(
                    "DELETE FROM leases WHERE work_id = ?", (work_id,)
                )
                children = completion.get("children") or ()
                if children:
                    scope = con.execute(
                        "SELECT scope FROM work_queue WHERE id = ?",
                        (work_id,),
                    ).fetchone()[0]
                    con.executemany(
                        "INSERT INTO work_queue (scope, item, status, "
                        "attempts, not_before, format, created) "
                        "VALUES (?, ?, 'pending', 0, 0.0, ?, ?)",
                        [
                            (scope, json.dumps(child, sort_keys=True),
                             ROW_FORMAT, now)
                            for child in children
                        ],
                    )
            for fingerprint_scope, batch in fingerprints:
                if batch:
                    con.executemany(
                        self._FP_UPSERT,
                        [
                            (fingerprint_scope, fp, remaining, ROW_FORMAT)
                            for fp, remaining in batch
                        ],
                    )
            return True

        return self._immediate(_complete)

    def fail_work(
        self,
        work_id: int,
        worker: str,
        error: Dict[str, Any],
        retry_limit: int = 2,
        backoff: Optional[float] = None,
        now: Optional[float] = None,
    ) -> str:
        """Report a failed attempt: requeue with backoff, or quarantine.

        Returns ``'requeued'``, ``'quarantined'`` or ``'rejected'`` (the
        lease was already lost — someone else owns the verdict now).
        """
        backoff = self.WORK_BACKOFF_BASE if backoff is None else backoff
        now = time.time() if now is None else now

        def _fail(con: sqlite3.Connection) -> str:
            row = con.execute(
                "SELECT status, attempts FROM work_queue WHERE id = ?",
                (work_id,),
            ).fetchone()
            if row is None or row[0] != "leased":
                return "rejected"
            lease = con.execute(
                "SELECT worker FROM leases WHERE work_id = ?", (work_id,)
            ).fetchone()
            if lease is None or lease[0] != worker:
                return "rejected"
            attempts = row[1]
            con.execute("DELETE FROM leases WHERE work_id = ?", (work_id,))
            if attempts > retry_limit:
                con.execute(
                    "UPDATE work_queue SET status = 'quarantined', "
                    "error = ? WHERE id = ?",
                    (json.dumps(error, sort_keys=True, default=repr),
                     work_id),
                )
                return "quarantined"
            con.execute(
                "UPDATE work_queue SET status = 'pending', not_before = ?, "
                "error = ? WHERE id = ?",
                (now + backoff * (2 ** (attempts - 1)),
                 json.dumps(error, sort_keys=True, default=repr), work_id),
            )
            return "requeued"

        return self._immediate(_fail)

    def requeue_expired(
        self,
        scope: str,
        retry_limit: int = 2,
        backoff: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """The coordinator's failure detector: requeue dead workers' items.

        Every lease past its ``expires`` is the timeout-as-suspicion
        pattern — the worker is *presumed* crashed (it may merely be
        slow; :meth:`complete_work_batch`'s pending-acceptance keeps that
        case sound).  Each expired item goes back to pending with capped
        exponential backoff, or to quarantine once its attempts exceed
        ``retry_limit``.  Returns one structured incident per action.
        """
        backoff = self.WORK_BACKOFF_BASE if backoff is None else backoff
        now = time.time() if now is None else now

        def _requeue(con: sqlite3.Connection) -> List[Dict[str, Any]]:
            rows = con.execute(
                "SELECT l.work_id, l.worker, l.expires, w.attempts, w.item "
                "FROM leases l JOIN work_queue w ON w.id = l.work_id "
                "WHERE l.scope = ? AND l.expires < ? AND w.status = 'leased'",
                (scope, now),
            ).fetchall()
            incidents: List[Dict[str, Any]] = []
            for work_id, worker, expires, attempts, item in rows:
                con.execute(
                    "DELETE FROM leases WHERE work_id = ?", (work_id,)
                )
                base = {
                    "work": work_id,
                    "worker": worker,
                    "attempts": attempts,
                    "expired": round(now - expires, 3),
                }
                if attempts > retry_limit:
                    con.execute(
                        "UPDATE work_queue SET status = 'quarantined', "
                        "error = ? WHERE id = ?",
                        (json.dumps({"kind": "lease-expired", **base},
                                    sort_keys=True), work_id),
                    )
                    incidents.append(
                        {"kind": "shard-quarantined", **base,
                         "item": json.loads(item)}
                    )
                else:
                    con.execute(
                        "UPDATE work_queue SET status = 'pending', "
                        "not_before = ?, error = ? WHERE id = ?",
                        (now + backoff * (2 ** (attempts - 1)),
                         json.dumps({"kind": "lease-expired", **base},
                                    sort_keys=True), work_id),
                    )
                    incidents.append(
                        {"kind": "lease-expired", **base,
                         "item": json.loads(item)}
                    )
            return incidents

        return self._immediate(_requeue)

    def work_status(self, scope: str) -> Dict[str, int]:
        """Item counts by status for one queue scope."""

        def _counts() -> Dict[str, int]:
            counts = {
                "pending": 0, "leased": 0, "done": 0, "quarantined": 0,
            }
            for status, count in self.shared_read_connection.execute(
                "SELECT status, COUNT(*) FROM work_queue WHERE scope = ? "
                "GROUP BY status",
                (scope,),
            ):
                counts[status] = count
            return counts

        return retry_locked(_counts)

    def work_results(self, scope: str) -> List[Tuple[int, Dict[str, Any], Any]]:
        """Every done item's ``(id, item, decoded result)``, in id order."""

        def _rows() -> List[Tuple[int, str, bytes]]:
            return self.write_connection.execute(
                "SELECT id, item, result FROM work_queue "
                "WHERE scope = ? AND status = 'done' ORDER BY id",
                (scope,),
            ).fetchall()

        out = []
        for work_id, item, blob in retry_locked(_rows):
            out.append((work_id, json.loads(item), decode_payload(blob)))
        return out

    def work_quarantined(self, scope: str) -> List[Dict[str, Any]]:
        """Structured incidents for the scope's quarantined items."""

        def _rows() -> List[Tuple[int, str, Optional[str], int]]:
            return self.write_connection.execute(
                "SELECT id, item, error, attempts FROM work_queue "
                "WHERE scope = ? AND status = 'quarantined' ORDER BY id",
                (scope,),
            ).fetchall()

        return [
            {
                "kind": "shard-quarantined",
                "work": work_id,
                "item": json.loads(item),
                "attempts": attempts,
                "error": json.loads(error) if error else None,
            }
            for work_id, item, error, attempts in retry_locked(_rows)
        ]

    def leased_workers(self, scope: str) -> Dict[str, int]:
        """``worker → work_id`` for every live lease in the scope."""

        def _rows() -> List[Tuple[str, int]]:
            return self.write_connection.execute(
                "SELECT worker, work_id FROM leases WHERE scope = ?",
                (scope,),
            ).fetchall()

        return dict(retry_locked(_rows))

    def clear_work(self, scope: str) -> None:
        """Drop one finished run's queue and lease rows."""

        def _clear(con: sqlite3.Connection) -> None:
            con.execute("DELETE FROM work_queue WHERE scope = ?", (scope,))
            con.execute("DELETE FROM leases WHERE scope = ?", (scope,))

        self._immediate(_clear)

    # -- witnesses -----------------------------------------------------
    def record_witness(self, document: Dict[str, Any]) -> None:
        """File one chaos/explore violation artifact document."""
        family = "explore" if "explore" in document.get("format", "") else "chaos"
        self._writer(
            "witnesses",
            "INSERT INTO witnesses (format, family, target, violated, "
            "document, created) VALUES (?, ?, ?, ?, ?, ?)",
        ).insert(
            ROW_FORMAT,
            family,
            document.get("case", {}).get("target", "?"),
            json.dumps(document.get("violated", []), sort_keys=True),
            json.dumps(document, sort_keys=True),
            time.time(),
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
    "WorkItem",
    "decode_payload",
    "drain_busy_retries",
    "encode_payload",
    "resolve_store_path",
    "retry_locked",
]
