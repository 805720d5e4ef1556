"""The crash-tolerant frontier equals the serial walk — even under fire.

Three layers of proof, mirroring the lease protocol's design:

* **Equivalence** — the frontier's merged result matches
  :func:`~repro.explore.engine.explore_case` in decision vectors,
  violations and completeness, with and without work stealing.
* **SIGKILL recovery** — a real worker process is killed mid-batch
  (the ``CHAOS_STALL`` hook parks it inside a claimed batch, heartbeats
  flowing, so the kill window is deterministic); the test then watches
  the leases expire, the batch requeue, and a healthy worker produce a
  merged result identical to the serial walk.  The batch-lease tests
  additionally pin the amortized protocol's recovery grain: a kill
  mid-batch requeues exactly the claimed batch (earlier committed
  batches stay done), and a batch that walked to the end but never
  committed publishes nothing.  Plus an end-to-end run under the
  seeded :class:`~repro.chaos.workers.WorkerKiller`, which must kill.
  Every victim is started the way the fleet starts its workers.
* **Quarantine** — a poison worker (``CHAOS_FAIL`` hook) exhausts the
  retry budget; the run degrades to ``complete=False`` with structured
  incidents instead of raising.

And the coordinator's side of liveness: it wakes when a worker process
ends instead of sleeping out its poll, never faster than the ramp's
base, and a worker's warm fingerprint sessions follow its batches.
Last, the fleet is forked: it walks what the caller registered, holds
no connection to the run's file across a fork, and is refused where
``fork`` does not exist.
"""

import dataclasses
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.explore import (
    ExploreCase,
    ExploreOptions,
    explore_case,
    merge_summaries,
    result_from_summary,
)
from repro.explore import frontierd
from repro.explore.frontierd import (
    CHAOS_FAIL_ENV,
    CHAOS_STALL_ENV,
    DEFAULT_LEASE_TTL,
    POLL_BASE,
    FleetSettings,
    _FrontierWorkers,
    _run_batch,
    _worker_main,
    explore_case_dynamic,
    run_frontier,
)
from repro.sim.perf import PerfCounters
from repro.store import ResultStore
from tests.explore.helpers import enqueue_case as _enqueue_case
from tests.explore.helpers import violation_set as _violation_set


def _start_victim(store, queue_scope, settings):
    """One real worker, started the way the fleet starts its own."""
    fleet = _FrontierWorkers(store, queue_scope, settings)
    fleet.spawn(1)
    ((name, process),) = fleet.processes.items()
    return name, process


def _assert_equivalent(dynamic, single):
    assert dynamic.decision_vectors == single.decision_vectors
    assert _violation_set(dynamic) == _violation_set(single)
    assert dynamic.complete == single.complete


#: A worker keeps one warm fingerprint engine per root, so what sharding
#: adds is the local states several workers each meet and the re-walked
#: shard prefixes: at most this much of the serial walk's encoder nodes
#: per worker.  Measured on ``CASE``: 1.00 at 1 worker, 1.03-1.25 at 2,
#: 1.06-1.57 at 3 with ``split_step=2``.
FP_NODES_INFLATION_PER_WORKER = 0.375


def _assert_fp_nodes_bounded(dynamic, single, workers):
    serial = single.counters.explore_fp_nodes
    bound = (1 + FP_NODES_INFLATION_PER_WORKER * workers) * serial
    assert dynamic.counters.explore_fp_nodes <= bound, (
        workers, dynamic.counters.explore_fp_nodes, serial,
    )


CASE = ExploreCase(target="hastycommit", n=2, depth=6, seed=1)


class TestEquivalence:
    def test_dynamic_equals_serial(self, tmp_path):
        single = explore_case(CASE)
        dynamic = explore_case_dynamic(
            CASE, workers=2, lease_ttl=2.0, store=tmp_path
        )
        _assert_equivalent(dynamic, single)
        assert dynamic.incidents == []
        _assert_fp_nodes_bounded(dynamic, single, workers=2)

    def test_single_worker_no_stealing(self, tmp_path):
        single = explore_case(CASE)
        dynamic = explore_case_dynamic(
            CASE, workers=1, lease_ttl=2.0, store=tmp_path
        )
        _assert_equivalent(dynamic, single)
        # A lone worker takes the whole tree in one batch, plus whatever
        # it re-split while briefly under budget.
        assert dynamic.frontier["claim_round_trips"] <= 4
        _assert_fp_nodes_bounded(dynamic, single, workers=1)

    def test_run_cleans_up_queue_and_scopes(self, tmp_path):
        explore_case_dynamic(CASE, workers=2, store=tmp_path)
        store = ResultStore(tmp_path)
        con = store.read_connection()
        try:
            assert con.execute(
                "SELECT COUNT(*) FROM work_queue"
            ).fetchone()[0] == 0
            assert con.execute(
                "SELECT COUNT(*) FROM leases"
            ).fetchone()[0] == 0
            assert con.execute(
                "SELECT COUNT(*) FROM fingerprints"
            ).fetchone()[0] == 0
        finally:
            con.close()
            store.close()


class TestWorkStealing:
    def test_starved_queue_triggers_resplit(self, tmp_path):
        # With siblings live and nothing pending, a claimed shard
        # re-splits: judged leaves stay in its summary, halted prefixes
        # come back as children for the others to steal.
        store = ResultStore(tmp_path)
        _base, roots = _enqueue_case(store, CASE, "steal-q", choice_limit=2)
        assert roots >= 1
        claimed, _ = store.claim_work_batch("steal-q", "w0", ttl=30.0, limit=1)
        work = claimed[0]
        # Drain the queue so the claimed item sees starvation.
        rest, status = store.claim_work_batch(
            "steal-q", "w0", ttl=30.0, limit=roots
        )
        assert store.complete_work_batch(
            "w0", [{"work_id": w.id, "result": {"drained": True}} for w in rest]
        )
        assert status["pending"] == 0
        completions, fingerprints = _run_batch(
            store, [work], status,
            FleetSettings(workers=2, split_step=2), PerfCounters(),
        )
        summary = completions[0]["result"]
        children = completions[0]["children"]
        assert children, "starved queue must produce re-split children"
        assert all(
            tuple(c["prefix"][: len(work.item["prefix"])])
            == tuple(work.item["prefix"])
            for c in children
        ), "children stay within the parent shard's subtree"
        assert summary["complete"]  # halted prefixes are deferred, not lost
        # The completed walk's deferred publication, grouped per scope.
        assert any(batch for _, batch in fingerprints)
        store.close()

    def test_whole_roots_first(self, tmp_path):
        # A claim that leaves work pending walks its items whole, even
        # with siblings around, and a lone worker never splits; the
        # same item re-splits once the claim left the queue dry.
        store = ResultStore(tmp_path)
        _base, roots = _enqueue_case(store, CASE, "whole-q", choice_limit=2)
        assert roots >= 2
        first, status = store.claim_work_batch(
            "whole-q", "w0", ttl=30.0, limit=1
        )
        assert status["pending"] > 0

        def children(status, workers):
            completions, _ = _run_batch(
                store, first, status,
                FleetSettings(workers=workers, split_step=2), PerfCounters(),
            )
            return completions[0]["children"]

        dry = dict(status, pending=0)
        assert children(status, workers=2) == []
        assert children(dry, workers=1) == []
        assert children(dry, workers=2)
        store.close()

    def test_stealing_preserves_equivalence(self, tmp_path):
        # A tiny split_step forces many re-splits.
        single = explore_case(CASE)
        dynamic = explore_case_dynamic(
            CASE, workers=3, split_step=2, lease_ttl=2.0, store=tmp_path
        )
        _assert_equivalent(dynamic, single)
        _assert_fp_nodes_bounded(dynamic, single, workers=3)

    def test_adaptive_mode_equivalence_and_counters(self, tmp_path):
        # One bare root is enqueued and demand-driven re-splitting
        # produces all granularity; the merged result still equals the
        # serial walk, and the frontier block carries the coordination
        # counters the repo benchmark reads.
        single = explore_case(CASE)
        dynamic = explore_case_dynamic(
            CASE, workers=2, lease_ttl=2.0, store=tmp_path
        )
        _assert_equivalent(dynamic, single)
        block = dynamic.frontier
        for key in (
            "claims", "claim_round_trips", "heartbeats", "exchange_pulls"
        ):
            assert key in block
        assert block["claims"] >= 1
        # Batching can only amortize: never more transactions than items.
        assert block["claims"] >= block["claim_round_trips"]
        assert dynamic.counters.frontier_claims == block["claims"]
        _assert_fp_nodes_bounded(dynamic, single, workers=2)


def _no_spawn(self, how_many):
    raise AssertionError("a worker was spawned for a root the cache holds")


class TestRunBounds:
    """``stop_on_first_violation``, ``max_runs``, ``cache`` and chaos at
    the fleet's side: two workers, so roots are split into shards."""

    def test_stop_on_first_convicts_across_split_shards(self, tmp_path):
        (summary,) = run_frontier(
            [CASE], workers=2, split_step=2, stop_on_first_violation=True,
            store=tmp_path,
        )
        shards = summary["stats"]["shards"]
        assert shards > 1
        assert summary["violations"]
        # Each shard stops at its first violation.
        assert len(summary["violations"]) <= shards
        serial = explore_case(CASE)
        assert len(serial.violations) > shards

    def test_max_runs_truncation_is_incomplete(self, tmp_path):
        (summary,) = run_frontier(
            [CASE], workers=2, split_step=2, max_runs=1, store=tmp_path
        )
        assert summary["complete"] is False
        assert summary["stats"]["runs"] <= summary["stats"]["shards"]

    def test_a_cached_root_is_served_without_a_walk(
        self, tmp_path, monkeypatch
    ):
        roots = [CASE, CASE.with_(seed=0)]
        cache = tmp_path / "cache"
        first = run_frontier(roots, workers=2, cache=cache)
        assert all(s["complete"] for s in first)
        monkeypatch.setattr(_FrontierWorkers, "spawn", _no_spawn)
        monkeypatch.setattr(
            frontierd, "explore_case", _raise_re_explored
        )
        assert run_frontier(roots, workers=2, cache=cache) == first

    def test_chaos_with_one_worker_is_refused(self, tmp_path):
        for workers in (None, 1):
            with pytest.raises(ValueError, match="needs 2 or more workers"):
                run_frontier(
                    [CASE], workers=workers, chaos_kill_rate=0.3,
                    store=tmp_path,
                )
        assert list(tmp_path.iterdir()) == []  # refused before any work

    def test_a_negative_fleet_is_refused(self, tmp_path):
        # Nothing would ever drain the queue.
        with pytest.raises(ValueError, match="need 1 or more"):
            run_frontier([CASE], workers=-1, store=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ttl", [0, -1.0, float("nan")])
    def test_a_lease_of_no_time_is_refused(self, tmp_path, ttl):
        # Every lease would expire as soon as it is issued.
        with pytest.raises(ValueError, match="need a positive number"):
            run_frontier([CASE], workers=2, lease_ttl=ttl, store=tmp_path)
        assert list(tmp_path.iterdir()) == []


def _raise_re_explored(*args, **kwargs):
    raise AssertionError("re-explored")


def _fingerprint_rows(store):
    con = store.read_connection()
    try:
        return con.execute("SELECT COUNT(*) FROM fingerprints").fetchone()[0]
    finally:
        con.close()


class TestBatchLeases:
    """The amortized protocol's recovery grain, pinned item by item."""

    def test_sigkill_mid_batch_requeues_only_the_unfinished_tail(
        self, tmp_path, monkeypatch
    ):
        # An earlier committed batch must survive a later kill: the
        # victim's death requeues exactly the items it still held, not
        # the batch a previous completion transaction already landed.
        store = ResultStore(tmp_path)
        _base, roots = _enqueue_case(store, CASE, "tail-q")
        assert roots >= 3, "need items for two batches"

        # Batch 1 — claimed, walked, committed in-process.
        first, status = store.claim_work_batch("tail-q", "inproc", 30.0, 2)
        completions, fingerprints = _run_batch(
            store, first, status, FleetSettings(), PerfCounters()
        )
        assert store.complete_work_batch("inproc", completions, fingerprints)
        committed = len(first)
        published = _fingerprint_rows(store)

        # Batch 2 — a real worker claims the whole tail and stalls
        # inside it (heartbeats flowing); SIGKILL silences it.
        settings = FleetSettings(lease_ttl=1.0)
        monkeypatch.setenv(CHAOS_STALL_ENV, "600")
        _name, victim = _start_victim(store, "tail-q", settings)
        deadline = time.monotonic() + 30.0
        while not store.leased_workers("tail-q"):
            assert time.monotonic() < deadline, "victim never claimed"
            time.sleep(0.02)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        monkeypatch.delenv(CHAOS_STALL_ENV)

        deadline = time.monotonic() + 30.0
        incidents = []
        while not incidents:
            assert time.monotonic() < deadline, "leases never expired"
            time.sleep(0.1)
            incidents = store.requeue_expired("tail-q", retry_limit=3)
        assert {i["kind"] for i in incidents} == {"lease-expired"}

        status = store.work_status("tail-q")
        assert status["done"] == committed, "committed batch must stay done"
        assert status["pending"] == roots - committed, (
            "exactly the unfinished tail requeues"
        )
        assert status["leased"] == 0
        # The victim was killed before any completion: it published
        # nothing — the fingerprint table is exactly as batch 1 left it.
        assert _fingerprint_rows(store) == published
        store.close()

    def test_uncommitted_batch_publishes_nothing_and_recovery_matches(
        self, tmp_path
    ):
        # A batch that walked to the very end but whose completion
        # transaction never ran leaves no trace: no summaries, no
        # fingerprints.  After its leases expire a healthy worker
        # re-walks the items and the merge equals the serial walk —
        # the walk is deterministic, so dropping a finished-but-
        # uncommitted batch costs time, never coverage.
        single = explore_case(CASE)
        store = ResultStore(tmp_path)
        base, roots = _enqueue_case(store, CASE, "drop-q")
        published = _fingerprint_rows(store)

        doomed, status = store.claim_work_batch(
            "drop-q", "doomed", 0.2, roots
        )
        assert len(doomed) == roots
        _run_batch(
            store, doomed, status, FleetSettings(), PerfCounters()
        )  # fully walked — and deliberately never committed
        assert _fingerprint_rows(store) == published
        assert list(store.work_results("drop-q")) == []

        time.sleep(0.3)  # let every lease expire
        incidents = store.requeue_expired("drop-q", retry_limit=3)
        assert len(incidents) == roots
        _worker_main(str(store.path), "drop-q", "healthy", FleetSettings())
        merged = merge_summaries(
            base, [s for _, _, s in store.work_results("drop-q")]
        )
        recovered = result_from_summary(merged)
        _assert_equivalent(recovered, single)
        store.close()

    def test_rejected_batch_completion_publishes_nothing(self, tmp_path):
        # All-or-nothing acceptance: if even one item of the batch was
        # reassigned to another worker, the whole completion is refused
        # and neither results nor fingerprints land.
        store = ResultStore(tmp_path)
        _base, roots = _enqueue_case(store, CASE, "rej-q")
        published = _fingerprint_rows(store)

        mine, status = store.claim_work_batch("rej-q", "w0", 30.0, roots)
        completions, fingerprints = _run_batch(
            store, mine, status, FleetSettings(), PerfCounters()
        )
        # False suspicion: expire every lease, then a thief claims one
        # (past the requeue backoff, hence the far-future clock).
        future = time.time() + 31.0
        store.requeue_expired("rej-q", retry_limit=99, now=future)
        thief, _ = store.claim_work_batch(
            "rej-q", "thief", ttl=30.0, limit=1, now=future + 120.0
        )
        assert len(thief) == 1

        assert store.complete_work_batch(
            "w0", completions, fingerprints
        ) is False
        assert _fingerprint_rows(store) == published
        assert store.work_status("rej-q")["done"] == 0
        store.close()


class TestSigkillRecovery:
    def test_killed_worker_lease_expires_and_shard_is_recovered(
        self, tmp_path, monkeypatch
    ):
        # The ISSUE's scenario, orchestrated deterministically: a real
        # worker process claims a shard and stalls inside it (hearts
        # beating); SIGKILL silences it; the lease expires; the shard
        # requeues; a healthy in-process worker drains the queue; the
        # merged result is identical to the serial walk.
        single = explore_case(CASE)
        store = ResultStore(tmp_path)
        base, roots = _enqueue_case(store, CASE, "kill-q")
        assert roots >= 2, "need several shards for a meaningful merge"

        settings = FleetSettings(lease_ttl=1.0)
        monkeypatch.setenv(CHAOS_STALL_ENV, "600")
        name, victim = _start_victim(store, "kill-q", settings)
        deadline = time.monotonic() + 30.0
        while not store.leased_workers("kill-q"):
            assert time.monotonic() < deadline, "victim never claimed"
            time.sleep(0.02)
        leased = store.leased_workers("kill-q")
        assert name in leased

        os.kill(victim.pid, signal.SIGKILL)  # mid-shard, no cleanup
        victim.join(timeout=10.0)
        monkeypatch.delenv(CHAOS_STALL_ENV)

        # The dead worker's lease expires (heartbeats stopped with it)
        # and the coordinator's failure detector requeues the shard.
        deadline = time.monotonic() + 30.0
        incidents = []
        while not incidents:
            assert time.monotonic() < deadline, "lease never expired"
            time.sleep(0.1)
            incidents = store.requeue_expired("kill-q", retry_limit=3)
        assert incidents[0]["kind"] == "lease-expired"
        assert incidents[0]["worker"] == name
        assert store.work_status("kill-q")["pending"] >= 1

        # A healthy worker (run in-process: _worker_main is just a
        # function) drains the queue, re-claiming the recovered shard.
        _worker_main(str(store.path), "kill-q", "healthy", settings)
        status = store.work_status("kill-q")
        assert status["pending"] == 0 and status["leased"] == 0
        assert status["quarantined"] == 0

        merged = merge_summaries(
            base, [s for _, _, s in store.work_results("kill-q")]
        )
        recovered = result_from_summary(merged)
        _assert_equivalent(recovered, single)
        assert recovered.complete
        store.close()

    def test_end_to_end_under_worker_killer(self, tmp_path, monkeypatch):
        # The seeded WorkerKiller against the n=3 NBAC frontier: it
        # kills, the dead are respawned, and the merged result is still
        # complete and identical to the serial walk.  A forked fleet
        # drains this root in about a second, before the killer's first
        # hit, so every claim stalls a little to hold the kill window
        # open.
        case = ExploreCase(target="nbac", n=3, depth=6)
        options = ExploreOptions(symmetry="auto")
        single = explore_case(case, options)
        monkeypatch.setenv(CHAOS_STALL_ENV, "0.1")
        dynamic = explore_case_dynamic(
            case,
            options,
            workers=4,
            lease_ttl=1.0,
            chaos_kill_rate=0.5,
            chaos_seed=11,
            store=tmp_path,
        )
        _assert_equivalent(dynamic, single)
        assert dynamic.complete
        assert dynamic.frontier["kills"] >= 1
        assert dynamic.frontier["respawns"] >= 1
        for incident in dynamic.incidents:
            assert incident["kind"] == "lease-expired"


class TestQuarantine:
    def test_poison_shards_quarantine_not_raise(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_FAIL_ENV, "1")
        summaries = run_frontier(
            [CASE],
            workers=1,
            lease_ttl=5.0,
            retry_limit=1,
            store=tmp_path,
        )
        summary = summaries[0]
        assert summary["complete"] is False
        kinds = {i["kind"] for i in summary["incidents"]}
        assert "shard-quarantined" in kinds
        quarantined = [
            i for i in summary["incidents"]
            if i["kind"] == "shard-quarantined"
        ]
        for incident in quarantined:
            assert incident["error"]["error_type"] == "RuntimeError"
        # Partial results, not an exception: the root's summary is
        # there, with nothing merged into it.
        assert summary["stats"]["runs"] == 0


def _stall(store_path, queue_scope, worker, settings):
    """A worker that never drains anything."""
    time.sleep(600)


def _exit_at_once(store_path, queue_scope, worker, settings):
    """A worker that dies on start."""


class TestCoordinatorWait:
    def test_worker_exit_wakes_the_coordinator(self, tmp_path):
        fleet = _FrontierWorkers(
            ResultStore(tmp_path), "unused", FleetSettings(), target=_stall
        )
        fleet.spawn(1)
        (process,) = fleet.processes.values()
        try:
            threading.Timer(0.1, process.kill).start()
            started = time.monotonic()
            # What the coordinator passes once its ramp has reached the
            # cap: sleeping it out would notice the exit after 1.25 s.
            fleet.wait(DEFAULT_LEASE_TTL / 4.0)
            elapsed = time.monotonic() - started
            assert POLL_BASE <= elapsed < 0.5
            # The sentinel closes a moment before the exit status can
            # be collected; the loop's next turn is what reaps it.
            process.join(timeout=1.0)
            assert not process.is_alive()
            assert fleet.reap_and_respawn() == 1 and fleet.respawns == 1
        finally:
            fleet.shutdown(timeout=0.0)

    def test_wait_times_out_when_nobody_exits(self, tmp_path):
        fleet = _FrontierWorkers(
            ResultStore(tmp_path), "unused", FleetSettings(), target=_stall
        )
        fleet.spawn(1)
        try:
            started = time.monotonic()
            fleet.wait(0.2)
            assert 0.2 <= time.monotonic() - started < 1.0
            assert fleet.live() == 1
        finally:
            fleet.shutdown(timeout=0.0)

    def test_dead_on_start_workers_respawn_no_faster_than_the_floor(
        self, tmp_path
    ):
        fleet = _FrontierWorkers(
            ResultStore(tmp_path), "unused", FleetSettings(workers=2),
            target=_exit_at_once,
        )
        fleet.spawn(2)
        iterations = 0
        started = time.monotonic()
        try:
            while time.monotonic() - started < 1.0:
                fleet.wait(DEFAULT_LEASE_TTL / 4.0)
                fleet.reap_and_respawn()
                iterations += 1
        finally:
            fleet.shutdown(timeout=2.0)
        assert fleet.respawns > 0  # the exits were noticed and answered
        assert iterations <= 1.0 / POLL_BASE + 1
        assert fleet.respawns <= iterations * fleet.count

    def test_a_ready_sentinel_does_not_spin_the_loop(self):
        # The floor itself, without process start-up in the way: the
        # read end of a closed pipe is ready forever, like the sentinel
        # of a worker that died and was not reaped yet.
        class Gone:
            def __init__(self, sentinel):
                self.sentinel = sentinel

        reader, writer = os.pipe()
        os.close(writer)
        fleet = _FrontierWorkers(None, "unused", FleetSettings())
        fleet.processes["w0"] = Gone(reader)
        try:
            started = time.monotonic()
            for _ in range(5):
                fleet.wait(DEFAULT_LEASE_TTL / 4.0)
            assert 5 * POLL_BASE <= time.monotonic() - started < 1.0
        finally:
            os.close(reader)


class TestWarmSessions:
    def test_sessions_follow_the_batches(self, tmp_path):
        # A worker keeps one warm fingerprint engine per exchange scope
        # (= root) of the batch it just walked: the next batch's shards
        # of that root find their local states already encoded, and a
        # root that left the batch leaves the dict.
        store = ResultStore(tmp_path)
        other = CASE.with_(seed=0)
        for case in (CASE, other):
            _enqueue_case(store, case, "warm-q", choice_limit=3)
        claimed, status = store.claim_work_batch(
            "warm-q", "w0", ttl=30.0, limit=64
        )
        scopes = {work.item["scope"] for work in claimed}
        assert len(scopes) == 2

        def host_misses(completions):
            return sum(
                c["result"]["counters"].get("explore_fp_host_misses", 0)
                for c in completions
            )

        sessions = {}
        cold, _ = _run_batch(
            store, claimed, status, FleetSettings(), PerfCounters(), sessions
        )
        assert set(sessions) == scopes
        kept = claimed[0].item["scope"]
        engine = sessions[kept].engine
        again = [work for work in claimed if work.item["scope"] == kept]
        # Nothing was completed, so the store seeds the same visited
        # set and the walks repeat — on an engine that has seen them.
        warm, _ = _run_batch(
            store, again, status, FleetSettings(), PerfCounters(), sessions
        )
        assert set(sessions) == {kept} and sessions[kept].engine is engine
        assert host_misses(cold) > 0 and host_misses(warm) == 0
        for before, after in zip(
            (c for c, w in zip(cold, claimed) if w.item["scope"] == kept), warm
        ):
            for key in ("decision_vectors", "violations"):
                assert after["result"][key] == before["result"][key]
            for key in ("runs", "states", "dedup_hits", "por_pruned"):
                assert after["result"]["stats"][key] == before["result"]["stats"][key]
        store.close()


def _open_files(prefix):
    """Paths under ``prefix`` this process holds a descriptor on."""
    fds = "/proc/self/fd"
    found = []
    for fd in os.listdir(fds):
        try:
            path = os.readlink(os.path.join(fds, fd))
        except OSError:
            continue  # the listing's own descriptor, closed by now
        if path.startswith(prefix):
            found.append(path)
    return found


class TestForkedFleet:
    def test_a_target_registered_in_the_caller_is_walked(
        self, tmp_path, monkeypatch
    ):
        # Registered in this process only: a worker that re-imported
        # the library would not know the name, and every shard would
        # fail into quarantine.
        from repro.chaos.targets import TARGETS
        from repro.explore.assignments import default_assignment

        monkeypatch.setitem(
            TARGETS, "callerhasty",
            dataclasses.replace(TARGETS["hastycommit"], name="callerhasty"),
        )
        case = CASE.with_(
            target="callerhasty",
            assignment=default_assignment("hastycommit", CASE.n),
        )
        (summary,) = run_frontier([case], workers=2, store=tmp_path)
        assert summary["frontier"]["workers"] == 2
        assert summary["complete"] is True
        assert summary["incidents"] == []
        assert summary["violations"]
        _assert_equivalent(result_from_summary(summary), explore_case(case))

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_no_connection_to_the_run_file_crosses_a_fork(
        self, tmp_path, monkeypatch
    ):
        # Workers park in their first claim and a certain killer fires
        # at the first poll, so the run forks its first fleet and then,
        # after the coordinator has used its store, a respawn.
        run_file = str(tmp_path / "store.sqlite")
        probe = ResultStore(tmp_path)
        probe.work_status("probe")
        assert _open_files(run_file)  # the probe sees a live connection
        probe.close()
        assert _open_files(run_file) == []

        open_at_fork = []
        real_fork = os.fork

        def probed_fork():
            open_at_fork.append(_open_files(run_file))
            return real_fork()

        monkeypatch.setattr(os, "fork", probed_fork)
        monkeypatch.setenv(CHAOS_STALL_ENV, "600")
        (summary,) = run_frontier(
            [CASE], workers=2, lease_ttl=0.5, retry_limit=0,
            chaos_kill_rate=100.0, store=tmp_path,
        )
        assert summary["frontier"]["kills"] >= 1
        assert summary["frontier"]["respawns"] >= 1
        assert len(open_at_fork) >= 3  # two workers and a respawn
        assert open_at_fork == [[]] * len(open_at_fork)

    def test_a_fleet_needs_fork(self, tmp_path, monkeypatch):
        real_context = multiprocessing.get_context

        def without_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return real_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", without_fork)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(ValueError, match="needs the fork start method"):
            run_frontier([CASE], workers=2, store=tmp_path)
        assert list(tmp_path.iterdir()) == []  # refused before any work
        # One worker needs no process, so it runs everywhere.
        (summary,) = run_frontier([CASE], workers=1, store=tmp_path)
        assert summary["complete"] and summary["violations"]

    def test_a_swapped_network_class_reaches_the_workers(self, tmp_path):
        from repro.sim.system import network_implementation

        with network_implementation(_RefusedNetwork):
            (summary,) = run_frontier(
                [CASE], workers=2, retry_limit=0, store=tmp_path
            )
        assert summary["complete"] is False
        quarantined = [
            i for i in summary["incidents"] if i["kind"] == "shard-quarantined"
        ]
        assert quarantined
        for incident in quarantined:
            assert incident["error"]["message"] == _RefusedNetwork.MESSAGE


class _RefusedNetwork:
    """A network class no system can be built on."""

    MESSAGE = "built on the swapped network"

    def __init__(self, *args, **kwargs):
        raise RuntimeError(self.MESSAGE)
