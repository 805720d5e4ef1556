"""The frontier driver: roots walked through a leased work queue.

:func:`run_frontier` is the one way a frontier's roots are walked.  A
single :func:`~repro.explore.engine.explore_case` call is inherently
serial, and a single deep root can dwarf every other (nbac at n=3 is
thousands of runs), so the driver can also search *below* the roots:
a root's tree is cut into **shards** — a shard root is a choice
prefix, its shard the subtree under it — walked by the architecture
the paper itself studies, applied to the checker: a set of long-lived
worker processes that *cannot be trusted not to crash*, coordinated
through an unreliable timeout-based failure detector.  One worker is
the same protocol without the processes: the caller's process runs
:func:`_worker_main` itself against the same queue.  More are forked
from the caller's process, first fleet and respawns alike, so every
worker starts warm — no interpreter start-up, no re-import — and walks
exactly what the caller loaded, as one worker does: a target registered
or patched at run time, a network class swapped in by
:func:`~repro.sim.system.network_implementation`.  No SQLite connection
to the run's file crosses a fork: the coordinator closes its store
before every fork and the store reopens on its next call.

**The protocol.**  Shard roots live as claimable items in the store's
``work_queue``.  A worker claims up to a fair share of the oldest
pending items in ONE transaction
(:meth:`repro.store.db.ResultStore.claim_work_batch` — each item under
its own *expiring lease*), walks the batch locally, and reports the
whole batch in one atomic completion transaction
(:meth:`~repro.store.db.ResultStore.complete_work_batch`) — summaries,
deferred fingerprints, and any re-split children land together, or not
at all.  Batching is what makes worker scaling near-linear: per-item
claims cost one store round-trip per shard, which dominates wall clock
the moment shards are small (per-item claims made the frontier scale
*negatively* for exactly that reason).  While it works,
a single heartbeat thread extends every lease the worker holds with
one UPDATE per interval
(:meth:`~repro.store.db.ResultStore.heartbeat_worker`); a worker
SIGKILLed mid-batch simply goes silent.  The
coordinator waits on the worker processes' sentinels — a worker's exit,
by drain or by kill, wakes it at once — with a ramping timeout that
drives :meth:`~repro.store.db.ResultStore.requeue_expired`:
an expired lease is a *suspicion* (the timeout-as-failure-detector
pattern — like ◇P, it may be wrong about a merely slow worker), so the
item goes back to pending with capped exponential backoff and the
completion transaction, not the suspicion, is the arbiter: exactly one
completion per item is ever accepted, a late one from a falsely
suspected worker either lands first (fine — the walk is deterministic)
or is rejected wholesale, publishing nothing.  An item that keeps
dying past its retry budget is *quarantined*: the merged case reports
``complete=False`` with a structured incident instead of raising away
its siblings' finished work.

**Whole roots first, then work stealing.**  Each root enters the queue
as ONE bare item.  A worker re-splits its batch only when its claim
left the pending queue empty and it has siblings: each walk then runs
with ``choice_limit`` pushed ``split_step`` choices past its prefix,
judged leaves stay in the shard's summary, and the halted prefixes are
enqueued as fresh roots in the same completion transaction — so the
tail of the run shrinks instead of serializing on one worker, and a
crash before completion enqueues no duplicate children.  Until the
queue runs dry every claim is whole roots (4 roots, 2 workers: claims
of 2, 1 and 1, and only the last re-splits), because two workers that
split one root each encode their own copy of the local states both
meet.  A single worker never splits: its walk is the plain
single-process walk plus one claim and one completion.

**Warm sessions.**  Re-splitting makes shards small and many, and each
is a walk on a freshly built system.  A worker keeps one
:class:`~repro.explore.engine.FingerprintSession` per exchange scope
(one root + options) across shards and batches, so a process's local
state is encoded once per root per worker, not once per shard; it
changes which encodes are cache hits, never a dedup key.

**Completeness.**  The merged result equals the serial walk's because
(1) split soundness: a re-splitter's deferred prefixes are
pairwise-disjoint subtrees that exactly cover its halted runs, (2)
publication soundness: a fingerprint reaches the shared visited set
only in the transaction that also records its walk's summary (and, for
a re-split, its children), so every published state's subtree is
covered by merged results and still-queued items, and (3) the queue
drains only when nothing is pending or leased — at which point every
root is done (merged) or quarantined (``complete=False``).  The
SIGKILL tests in ``tests/explore/test_frontierd.py`` pin (vectors,
violations, completeness) against :func:`~repro.explore.engine
.explore_case` under injected kills.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.explore.cases import ExploreCase, ExploreOptions, case_from_dict
from repro.explore.engine import (
    ExploreResult,
    FingerprintSession,
    explore_case,
)
from repro.explore.frontier import (
    merge_summaries,
    result_from_summary,
    result_to_dict,
)

#: Environment hook for the quarantine tests: when set, every worker
#: raises instead of walking, driving each item through its full retry
#: budget into quarantine without any process-level violence.
CHAOS_FAIL_ENV = "REPRO_FRONTIERD_CHAOS_FAIL"

#: Environment hook for the SIGKILL tests: seconds a worker sleeps
#: right after claiming (heartbeats still flowing), giving the test a
#: deterministic mid-shard window in which to kill it.
CHAOS_STALL_ENV = "REPRO_FRONTIERD_CHAOS_STALL"

DEFAULT_LEASE_TTL = 5.0
DEFAULT_RETRY_LIMIT = 3
#: Choices a re-split pushes past its prefix.  Small on purpose: the
#: effective choice depth of these trees is shallow (POR + forced
#: steps log few real choices — an n=3 depth-6 NBAC tree is ~9 choices
#: deep), so a step of 4 fans a bare root into ~tens of children for
#: centiseconds of splitter work, while 6 can overshoot a shallow tree
#: entirely and split nothing.
DEFAULT_SPLIT_STEP = 4
#: Most items one claim transaction may lease (the fair-share cap in
#: :meth:`~repro.store.db.ResultStore.claim_work_batch` usually bites
#: first; this bounds the recovery cost of losing one worker).
CLAIM_LIMIT = 16
#: Base of the coordinator's poll ramp, and the least time between two
#: of its iterations: a worker's exit wakes the coordinator at once,
#: and a worker that dies on start must not turn that into a respawn
#: storm.
POLL_BASE = 0.05

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FleetSettings:
    """What :func:`run_frontier` tells every worker it runs."""

    options: ExploreOptions = ExploreOptions()
    #: The fleet's size: a claim's fair share scales with it, and only
    #: a worker with siblings re-splits.
    workers: int = 1
    split_step: int = DEFAULT_SPLIT_STEP
    lease_ttl: float = DEFAULT_LEASE_TTL
    retry_limit: int = DEFAULT_RETRY_LIMIT
    #: Handed to every shard's :func:`~repro.explore.engine
    #: .explore_case`; with one worker a shard is a whole root.
    stop_on_first_violation: bool = False
    max_runs: Optional[int] = None


def _heartbeat_main(
    store_path: str,
    queue_scope: str,
    worker: str,
    ttl: float,
    stop: threading.Event,
    beats: List[int],
) -> None:
    """Keep every lease this worker holds alive until told to stop.

    One UPDATE per interval covers the whole claimed batch
    (:meth:`~repro.store.db.ResultStore.heartbeat_worker`) — liveness
    traffic is per *worker*, not per item.  Runs in its own thread with
    its *own* store object — sqlite3 connections are bound to their
    creating thread.  A worker that is killed takes this thread down
    with it, which is the whole point: heartbeats stop exactly when the
    process stops.  ``beats[0]`` counts sent heartbeats for the
    ``frontier_heartbeats`` perf counter.
    """
    from repro.store.db import ResultStore

    try:
        store = ResultStore(store_path)
    except Exception:  # noqa: BLE001 — a dead heartbeat just expires
        return
    try:
        while not stop.wait(max(0.05, ttl / 3.0)):
            try:
                if store.heartbeat_worker(queue_scope, worker, ttl) == 0:
                    return  # no leases left: stop advertising liveness
                beats[0] += 1
            except Exception:  # noqa: BLE001
                continue  # transient store contention; try again
    finally:
        store.close()


def _run_batch(
    store: Any,
    items: Sequence[Any],
    status: Dict[str, int],
    settings: FleetSettings,
    counters: Any,
    sessions: Optional[Dict[str, FingerprintSession]] = None,
) -> Tuple[
    List[Dict[str, Any]], List[Tuple[str, List[Tuple[str, int]]]]
]:
    """Walk a claimed batch locally; returns (completions, fingerprints).

    ``completions`` is the :meth:`~repro.store.db.ResultStore
    .complete_work_batch` payload — one ``{"work_id", "result",
    "children"}`` dict per item.  ``fingerprints`` is the batch's
    deferred visited-set, grouped per exchange scope: the batch shares
    ONE exchange per scope, so later items dedup against earlier items'
    local discoveries for free, and the shared pending set can only be
    published (or dropped) wholesale — exactly the all-or-nothing
    contract of the batch completion.  A batch whose completion is
    never accepted publishes nothing; its items requeue by lease expiry
    and are re-walked from a store-seeded exchange elsewhere.

    The re-split decision is per batch, off the post-claim ``status``
    snapshot the claim transaction returned: when the claim left
    nothing pending and the worker has siblings, every item in the
    batch walks with ``choice_limit`` pushed ``split_step`` past its
    prefix and defers the halted subtrees as children — whole roots
    are handed out first, and only a queue about to run dry is cut
    finer.

    ``sessions`` is the worker's warm state, one
    :class:`~repro.explore.engine.FingerprintSession` per exchange
    scope (= one root + options): every shard of a scope is walked on
    the scope's one fingerprint engine, so a local state is encoded
    once per root per worker instead of once per shard.  On return it
    holds exactly the scopes of this batch — what the next batch can
    reuse, and nothing a finished root leaves behind.  Without one the
    batch is warm within itself only.
    """
    from repro.store.exchange import FingerprintExchange

    if sessions is None:
        sessions = {}
    resplit = settings.workers > 1 and status["pending"] == 0
    exchanges: Dict[str, FingerprintExchange] = {}
    completions: List[Dict[str, Any]] = []
    for work in items:
        item = work.item
        case = case_from_dict(item["case"])
        prefix = tuple(item["prefix"])
        scope = item["scope"]
        exchange = exchanges.get(scope)
        if exchange is None:
            exchange = exchanges[scope] = FingerprintExchange(
                store, scope, counters=counters
            )
        choice_limit = (
            len(prefix) + settings.split_step if resplit else None
        )
        shard_roots: Optional[List[Tuple[int, ...]]] = (
            [] if resplit else None
        )
        result = explore_case(
            case,
            settings.options,
            stop_on_first_violation=settings.stop_on_first_violation,
            max_runs=settings.max_runs,
            initial_stack=[prefix],
            choice_limit=choice_limit,
            shard_roots=shard_roots,
            exchange=exchange,
            session=sessions.setdefault(scope, FingerprintSession()),
        )
        completions.append(
            {
                "work_id": work.id,
                "result": result_to_dict(result),
                "children": [
                    {
                        "case": item["case"],
                        "prefix": list(root),
                        "scope": scope,
                        "case_index": item["case_index"],
                    }
                    for root in (shard_roots or [])
                ],
            }
        )
    for scope in sessions.keys() - exchanges.keys():
        del sessions[scope]
    return completions, [
        (scope, exchange.take_pending())
        for scope, exchange in exchanges.items()
    ]


def _worker_main(
    store_path: str,
    queue_scope: str,
    worker: str,
    settings: FleetSettings,
) -> None:
    """One frontier worker: claim a batch, walk it, complete it, repeat.

    The loop's coordination cost is what PR 8 amortizes: one claim
    transaction leases up to a fair share of the queue, one heartbeat
    thread covers every held lease, and one completion transaction
    lands the whole batch — so store round-trips scale with batches,
    not items.  The batch's coordination counters (claims, round
    trips, heartbeats, exchange pulls, busy retries) ride into the
    merged report on the batch's first summary; per-item engine
    counters stay per-summary so :func:`~repro.explore.frontier
    .merge_summaries` sums stay honest.  The fingerprint sessions
    outlive the batch (see :func:`_run_batch`): consecutive batches
    mostly continue the same roots.
    """
    from repro.sim.perf import PerfCounters
    from repro.store.db import ResultStore, drain_busy_retries

    ttl = settings.lease_ttl
    store = ResultStore(store_path)
    idle_round_trips = 0
    sessions: Dict[str, FingerprintSession] = {}
    try:
        while True:
            items, status = store.claim_work_batch(
                queue_scope, worker, ttl, CLAIM_LIMIT,
                fair_share=settings.workers,
            )
            if not items:
                if status["pending"] == 0 and status["leased"] == 0:
                    return  # drained: every item is done or quarantined
                idle_round_trips += 1
                time.sleep(0.05)
                continue
            beats = [0]
            stop = threading.Event()
            beater = threading.Thread(
                target=_heartbeat_main,
                args=(store_path, queue_scope, worker, ttl, stop, beats),
                daemon=True,
            )
            beater.start()
            try:
                if os.environ.get(CHAOS_FAIL_ENV):
                    raise RuntimeError(
                        f"chaos: {CHAOS_FAIL_ENV} poisoned this worker"
                    )
                stall = os.environ.get(CHAOS_STALL_ENV)
                if stall:
                    time.sleep(float(stall))
                batch_counters = PerfCounters()
                completions, fingerprints = _run_batch(
                    store, items, status, settings, batch_counters, sessions
                )
                stop.set()
                beater.join(timeout=1.0)
                batch_counters.frontier_claims += len(items)
                batch_counters.frontier_claim_round_trips += (
                    idle_round_trips + 1
                )
                idle_round_trips = 0
                batch_counters.frontier_heartbeats += beats[0]
                batch_counters.store_busy_retries += drain_busy_retries()
                first = completions[0]["result"]
                merged = dict(first.get("counters") or {})
                for name, value in batch_counters.as_dict().items():
                    if value:
                        merged[name] = merged.get(name, 0) + value
                first["counters"] = merged
                store.complete_work_batch(worker, completions, fingerprints)
            except Exception as exc:  # noqa: BLE001 — fail the batch, live on
                incident = {
                    "kind": "worker-exception",
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(limit=8),
                    "worker": worker,
                }
                for work in items:
                    store.fail_work(
                        work.id, worker, incident,
                        retry_limit=settings.retry_limit,
                    )
            finally:
                stop.set()
                beater.join(timeout=1.0)
    finally:
        store.close()


class _FrontierWorkers:
    """The coordinator's view of its worker fleet: fork, track, respawn."""

    def __init__(
        self,
        store: Any,
        queue_scope: str,
        settings: FleetSettings,
        target: Any = _worker_main,
    ):
        #: The coordinator's :class:`~repro.store.db.ResultStore` on the
        #: run's file, closed before every fork.
        self.store = store
        self.queue_scope = queue_scope
        self.count = settings.workers
        self.settings = settings
        #: What a worker process runs; the drain/respawn tests put a
        #: stub here.
        self.target = target
        self.generation = 0
        self.processes: Dict[str, Any] = {}
        self.respawns = 0

    def spawn(self, how_many: int) -> None:
        """Fork ``how_many`` workers from this process.

        A child inherits every open file of its parent, SQLite's
        connections and lock bookkeeping included, so the coordinator's
        store is closed first; its next call reopens it.
        """
        self.store.close()
        context = multiprocessing.get_context("fork")
        for _ in range(how_many):
            name = f"w{self.generation}"
            self.generation += 1
            process = context.Process(
                target=self.target,
                args=(
                    str(self.store.path), self.queue_scope, name,
                    self.settings,
                ),
                daemon=True,
            )
            process.start()
            self.processes[name] = process

    def live(self) -> int:
        return sum(1 for p in self.processes.values() if p.is_alive())

    def wait(self, timeout: float) -> None:
        """Sleep until a worker process ends, at most ``timeout`` s.

        A worker returns by itself once the queue has drained, and a
        killed one ends without asking, so either way the coordinator
        has something to do the moment a sentinel fires; ``timeout`` is
        what is left of polling, for the lease expiries no process exit
        announces.  Never returns before :data:`POLL_BASE` has passed:
        the sentinel of a dead, not yet reaped worker stays ready, and
        workers that die on start would otherwise be respawned as fast
        as the loop can spin.
        """
        started = time.monotonic()
        multiprocessing.connection.wait(
            [p.sentinel for p in self.processes.values()], timeout=timeout
        )
        early = POLL_BASE - (time.monotonic() - started)
        if early > 0:
            time.sleep(early)

    def reap_and_respawn(self) -> int:
        """Replace dead workers so kills cost recovery time, not capacity."""
        dead = [n for n, p in self.processes.items() if not p.is_alive()]
        for name in dead:
            self.processes.pop(name).join(timeout=0.1)
        deficit = self.count - self.live()
        if deficit > 0:
            self.spawn(deficit)
            self.respawns += deficit
        return len(dead)

    def shutdown(self, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        for process in self.processes.values():
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in self.processes.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)


def fleet_size(
    workers: Optional[int] = None,
    chaos_kill_rate: float = 0.0,
    lease_ttl: float = DEFAULT_LEASE_TTL,
) -> int:
    """The worker count :func:`run_frontier` runs for ``workers``.

    Resolved like a campaign's (:func:`repro.runner.config
    .resolve_workers`); None means 1 and 0 every core.  What the
    frontier refuses is a ``ValueError``: a negative fleet; a lease
    that is not a positive number of seconds, which would expire as
    soon as it is issued; a fleet on a platform without ``fork``, the
    one way workers start (one worker needs no process and runs
    everywhere); and a kill rate with one worker, which walks in the
    caller's process, so nothing could be killed and an ``ok`` would
    read as "recovery proven".
    """
    from repro.runner.config import resolve_workers
    from repro.runner.executor import default_worker_count

    resolved = resolve_workers(workers)
    resolved = 1 if resolved is None else resolved or default_worker_count()
    if resolved < 0:
        raise ValueError(f"workers={resolved}: need 1 or more (0 = every core)")
    if not lease_ttl > 0:
        raise ValueError(f"lease_ttl={lease_ttl}: need a positive number of seconds")
    if resolved > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ValueError(
            f"workers={resolved} needs the fork start method, which this "
            "platform lacks; one worker runs everywhere"
        )
    if chaos_kill_rate > 0 and resolved == 1:
        raise ValueError(
            f"chaos_kill_rate={chaos_kill_rate} needs 2 or more workers: "
            "one worker walks in the caller's process and nothing could "
            "be killed"
        )
    return resolved


def run_frontier(
    roots: Sequence[ExploreCase],
    options: ExploreOptions = ExploreOptions(),
    workers: Optional[int] = None,
    store: Optional[Union[str, os.PathLike]] = None,
    cache: Any = False,
    stop_on_first_violation: bool = False,
    max_runs: Optional[int] = None,
    split_step: int = DEFAULT_SPLIT_STEP,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    retry_limit: int = DEFAULT_RETRY_LIMIT,
    chaos_kill_rate: float = 0.0,
    chaos_seed: int = 0,
) -> List[Dict[str, Any]]:
    """Explore every root through the leased work queue.

    Returns one merged summary dict per root, in root order, each with
    the ``frontier`` accounting block (workers, respawns, recoveries,
    quarantines, coordination counters) of the run that walked it.
    ``workers`` and ``lease_ttl`` are checked by :func:`fleet_size`;
    one worker walks in this process and more are forked from it, so
    whatever the caller patched or swapped in (a registered target, the
    network class) is what every worker walks.  ``store`` is where
    this run's coordination lives — its work queue, leases and shared
    fingerprints: a directory or ``.sqlite`` path, or None (a private
    file under a temp directory, deleted with it).  It is never a
    campaign database: witnesses and cached roots go elsewhere
    (``cache``, the caller's own store).

    ``cache`` takes the forms of :func:`repro.runner.config
    .resolve_cache`, closed by the same rules: a root whose merged
    summary is complete and has no incidents is put under its exchange
    scope key (case, options, code salt), and a later run with the same
    cache serves it as stored without enqueuing it.

    ``stop_on_first_violation`` and ``max_runs`` bound each shard's
    walk; with one worker a shard is a root.  ``chaos_kill_rate`` arms
    :class:`repro.chaos.workers.WorkerKiller` against the fleet — the
    CI smoke proof that recovery works.
    """
    from repro.runner.config import resolve_cache
    from repro.runner.summary import FnSummary
    from repro.store.exchange import exchange_scope

    settings = FleetSettings(
        options, fleet_size(workers, chaos_kill_rate, lease_ttl), split_step,
        lease_ttl, retry_limit, stop_on_first_violation, max_runs,
    )
    # One empty summary per root for its shards to merge into — built
    # before a store is opened or a worker runs, so a symmetry the
    # target cannot honour is an error here rather than a quarantine.
    bases = [result_to_dict(ExploreResult(case, options)) for case in roots]
    keys = [exchange_scope(base["case"], base["options"]) for base in bases]
    cache, opened = resolve_cache(cache)
    try:
        hits = [None if cache is None else cache.get(key) for key in keys]
        todo = [index for index, hit in enumerate(hits) if hit is None]
        walked = _walk_roots(
            [bases[i] for i in todo], [keys[i] for i in todo], settings,
            store, chaos_kill_rate, chaos_seed,
        ) if todo else []
        summaries = [None if hit is None else hit.value for hit in hits]
        for index, summary in zip(todo, walked):
            summaries[index] = summary
            if (cache is not None and summary["complete"]
                    and not summary["incidents"]):
                cache.put(keys[index], FnSummary(keys[index], {}, summary))
        for event in () if cache is None else cache.drain_events():
            logger.warning("frontier cache: %s", event)
        return summaries
    finally:
        if opened:
            cache.close()


#: Both names are the one driver; the repo benchmark's adapters call
#: this one for their fleet workload.
run_frontier_dynamic = run_frontier


def _walk_roots(
    bases: Sequence[Dict[str, Any]],
    keys: Sequence[str],
    settings: FleetSettings,
    store: Optional[Union[str, os.PathLike]],
    chaos_kill_rate: float,
    chaos_seed: int,
) -> List[Dict[str, Any]]:
    """Enqueue ``bases`` as bare roots, drain the queue, merge per root."""
    import tempfile

    from repro.chaos.workers import WorkerKiller
    from repro.sim.perf import PerfCounters
    from repro.store.db import ResultStore, drain_busy_retries

    token = os.urandom(8).hex()
    queue_scope = f"frontier:{token}"
    tempdir = None
    if store is None:
        tempdir = tempfile.TemporaryDirectory(prefix="repro-frontier-")
        store = tempdir.name
    store = ResultStore(store)

    scopes = [f"{key}:{token}" for key in keys]
    incidents: List[Dict[str, Any]] = []
    started = time.perf_counter()
    try:
        # Phase 1 — seed the queue: each root is ONE bare item; a
        # worker that would otherwise leave the queue dry re-splits.
        store.enqueue_work(
            queue_scope,
            [
                {
                    "case": base["case"],
                    "prefix": [],
                    "scope": scope,
                    "case_index": index,
                }
                for index, (base, scope) in enumerate(zip(bases, scopes))
            ],
        )
        store.flush()

        # Phase 2 — drain the queue: one worker here, more forked.
        fleet = _FrontierWorkers(store, queue_scope, settings)
        killer = WorkerKiller(chaos_kill_rate, seed=chaos_seed)
        recoveries = 0
        if settings.workers == 1:
            _worker_main(str(store.path), queue_scope, "w0", settings)
        else:
            fleet.spawn(settings.workers)
        # One worker has drained the queue by now: no process to wait
        # on.  A fleet's loop wakes when a worker process ends — the
        # drain (a worker returns once nothing is pending or leased)
        # and a kill are both noticed at once — and otherwise on a
        # ramping timeout, which is what drives requeue_expired: fast
        # at first so a short run's early lease expiries are not taxed
        # a fixed lease_ttl/4, backing off toward lease_ttl/4 so long
        # runs cost the store a few polls per TTL.
        poll = POLL_BASE
        poll_cap = max(POLL_BASE, settings.lease_ttl / 4.0)
        last_poll = time.monotonic()
        try:
            while fleet.processes:
                fleet.wait(poll)
                poll = min(poll_cap, poll * 1.6)
                now = time.monotonic()
                expired = store.requeue_expired(
                    queue_scope, retry_limit=settings.retry_limit
                )
                recoveries += len(expired)
                incidents.extend(expired)
                status = store.work_status(queue_scope)
                if status["pending"] == 0 and status["leased"] == 0:
                    break
                killer.maybe_kill(
                    fleet.processes,
                    store.leased_workers(queue_scope),
                    now - last_poll,
                )
                last_poll = now
                fleet.reap_and_respawn()
        finally:
            fleet.shutdown()

        # Phase 3 — merge per root; quarantined shards degrade the
        # verdict to complete=False instead of discarding siblings.
        by_case: Dict[int, List[Dict[str, Any]]] = {}
        coordination = PerfCounters()
        for _, item, summary in store.work_results(queue_scope):
            by_case.setdefault(item["case_index"], []).append(summary)
            coordination.merge(summary.get("counters") or {})
        quarantined = store.work_quarantined(queue_scope)
        # work_quarantined is the authoritative quarantine list (it also
        # covers worker-exception quarantines the poll loop never saw);
        # drop the poll loop's own quarantine records to avoid doubles.
        incidents = [
            i for i in incidents if i["kind"] != "shard-quarantined"
        ]
        incidents.extend(quarantined)
        summaries = []
        frontier_block = {
            "workers": settings.workers,
            "lease_ttl": settings.lease_ttl,
            "recoveries": recoveries,
            "kills": len(killer.kills),
            "respawns": fleet.respawns,
            "quarantined": len(quarantined),
            # Coordination traffic, summed over every accepted batch —
            # the amortization evidence the repo benchmark's frontier
            # workload records (claims per round trip, heartbeats and
            # pulls per run).
            "claims": coordination.frontier_claims,
            "claim_round_trips": coordination.frontier_claim_round_trips,
            "heartbeats": coordination.frontier_heartbeats,
            "exchange_pulls": coordination.exchange_pulls,
            "store_busy_retries": drain_busy_retries(),
            "wall_clock": round(time.perf_counter() - started, 3),
        }
        for index, base in enumerate(bases):
            merged = merge_summaries(base, by_case.get(index, []))
            case_incidents = [
                incident
                for incident in incidents
                if incident.get("item", {}).get("case_index") == index
                or "item" not in incident
            ]
            merged["incidents"] = (
                merged.get("incidents", []) + case_incidents
            )
            if any(
                q["item"]["case_index"] == index for q in quarantined
            ):
                merged["complete"] = False
            merged["frontier"] = frontier_block
            summaries.append(merged)
        return summaries
    finally:
        store.clear_work(queue_scope)
        for scope in scopes:
            store.release_scope(scope)
        store.close()
        if tempdir is not None:
            tempdir.cleanup()


def explore_case_dynamic(
    case: ExploreCase,
    options: ExploreOptions = ExploreOptions(),
    **fleet: Any,
) -> ExploreResult:
    """One case through :func:`run_frontier`, as an ExploreResult.

    ``fleet`` is :func:`run_frontier`'s own keywords (workers, store,
    lease and chaos settings).  Equivalent to
    :func:`~repro.explore.engine.explore_case` in decision vectors,
    violations and completeness whenever nothing was quarantined.
    """
    (summary,) = run_frontier([case], options, **fleet)
    result = result_from_summary(summary)
    result.frontier = dict(summary.get("frontier", {}))
    return result
