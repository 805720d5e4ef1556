"""The work-queue/lease protocol: the frontier's coordination substrate.

These are the store-level guarantees :mod:`repro.explore.frontierd`
builds on: a claim and its lease are atomic, exactly one completion
per item is ever accepted, a rejected completion publishes nothing
(fingerprints and children ride the same transaction), expiry requeues
with exponential backoff, and a poison item lands in quarantine after
its retry budget.  Times are injected (``now=``) so every schedule is
deterministic.
"""

import sqlite3

import pytest

from repro.store import ResultStore
from repro.store.db import drain_busy_retries, retry_locked


@pytest.fixture
def store(tmp_path):
    s = ResultStore(tmp_path)
    yield s
    s.close()


def _item(index=0):
    return {"case_index": index, "prefix": [index], "scope": "s"}


def _claim(store, scope, worker, ttl, now=None):
    """One item through the batch protocol: a batch of at most one."""
    items, _ = store.claim_work_batch(scope, worker, ttl, limit=1, now=now)
    return items[0] if items else None


def _complete(store, work_id, worker, result, fingerprints=(), children=(),
              now=None):
    """One item's completion: a batch of exactly one."""
    return store.complete_work_batch(
        worker,
        [{"work_id": work_id, "result": result, "children": list(children)}],
        fingerprints=fingerprints,
        now=now,
    )


class TestClaimAndLease:
    def test_claim_is_oldest_first_and_exclusive(self, store):
        store.enqueue_work("q", [_item(0), _item(1)])
        first = _claim(store, "q", "w1", ttl=5.0, now=10.0)
        second = _claim(store, "q", "w2", ttl=5.0, now=10.0)
        assert first.item["case_index"] == 0
        assert second.item["case_index"] == 1
        assert _claim(store, "q", "w3", ttl=5.0, now=10.0) is None
        assert store.leased_workers("q") == {"w1": first.id, "w2": second.id}

    def test_attempts_count_claims(self, store):
        store.enqueue_work("q", [_item()])
        assert _claim(store, "q", "w1", ttl=1.0, now=0.0).attempts == 1
        store.requeue_expired("q", now=10.0)
        # The requeue applies backoff: claimable only after it elapses.
        assert _claim(store, "q", "w2", ttl=1.0, now=11.0).attempts == 2

    def test_heartbeat_extends_only_the_holder(self, store):
        store.enqueue_work("q", [_item()])
        work = _claim(store, "q", "w1", ttl=1.0, now=0.0)
        assert store.heartbeat_worker("q", "intruder", ttl=9.0, now=0.5) == 0
        assert store.heartbeat_worker("q", "w1", ttl=1.0, now=0.5) == 1
        # The heartbeat at 0.5 pushed expiry to 1.5: not expired at 1.2.
        assert store.requeue_expired("q", now=1.2) == []
        assert store.requeue_expired("q", now=2.0) != []

    def test_scopes_are_disjoint(self, store):
        store.enqueue_work("q1", [_item()])
        assert _claim(store, "q2", "w1", ttl=1.0) is None
        assert store.work_status("q2")["pending"] == 0


class TestCompletion:
    def test_complete_is_atomic_with_fingerprints_and_children(self, store):
        store.enqueue_work("q", [_item()])
        work = _claim(store, "q", "w1", ttl=5.0, now=0.0)
        assert _complete(
            store, work.id, "w1", {"runs": 7},
            fingerprints=[("fps", [("aa", 3), ("bb", 1)])],
            children=[_item(1), _item(2)],
        )
        assert store.work_status("q") == {
            "pending": 2, "leased": 0, "done": 1, "quarantined": 0,
        }
        assert store.load_fingerprints("fps")[0] == {"aa": 3, "bb": 1}
        results = store.work_results("q")
        assert len(results) == 1 and results[0][2] == {"runs": 7}

    def test_exactly_one_completion_is_accepted(self, store):
        # w1's lease expires, w2 claims the retry; w1 then finishes
        # late.  The completion transaction — not the suspicion — is
        # the arbiter: w1 is rejected wholesale.
        store.enqueue_work("q", [_item()])
        w1 = _claim(store, "q", "w1", ttl=1.0, now=0.0)
        store.requeue_expired("q", now=5.0)
        w2 = _claim(store, "q", "w2", ttl=1.0, now=6.0)
        assert w1.id == w2.id
        assert not _complete(
            store, w1.id, "w1", {"runs": 1},
            fingerprints=[("fps", [("late", 9)])],
            children=[_item(9)],
        )
        # The rejected completion published NOTHING — no fingerprints
        # claiming coverage, no duplicate children.
        assert store.load_fingerprints("fps")[0] == {}
        assert store.work_status("q")["pending"] == 0
        assert _complete(store, w2.id, "w2", {"runs": 1})
        assert not _complete(store, w2.id, "w2", {"runs": 1})  # done is final

    def test_late_completion_of_unclaimed_requeue_is_accepted(self, store):
        # The lease expired under a slow-but-alive worker and nobody
        # has re-claimed yet: the late result is accepted (the walk is
        # deterministic — it is the same result a retry would produce).
        store.enqueue_work("q", [_item()])
        w1 = _claim(store, "q", "w1", ttl=1.0, now=0.0)
        store.requeue_expired("q", now=5.0)
        assert _complete(store, w1.id, "w1", {"runs": 2}, now=6.0)
        assert store.work_status("q")["done"] == 1
        # ...and the stale pending row is gone: nobody can claim it.
        assert _claim(store, "q", "w2", ttl=1.0, now=6.0) is None


class TestFailureAndRecovery:
    def test_fail_requeues_with_exponential_backoff(self, store):
        store.enqueue_work("q", [_item()])
        work = _claim(store, "q", "w1", ttl=5.0, now=0.0)
        assert store.fail_work(
            work.id, "w1", {"err": "boom"}, retry_limit=3,
            backoff=1.0, now=100.0,
        ) == "requeued"
        # attempts=1 → backoff 1.0 * 2^0: claimable at 101, not 100.5.
        assert _claim(store, "q", "w2", ttl=5.0, now=100.5) is None
        retry = _claim(store, "q", "w2", ttl=5.0, now=101.0)
        assert retry.attempts == 2
        assert store.fail_work(
            retry.id, "w2", {"err": "boom"}, retry_limit=3,
            backoff=1.0, now=200.0,
        ) == "requeued"
        # attempts=2 → backoff 2.0.
        assert _claim(store, "q", "w3", ttl=5.0, now=201.0) is None
        assert _claim(store, "q", "w3", ttl=5.0, now=202.0) is not None

    def test_retry_budget_exhaustion_quarantines(self, store):
        store.enqueue_work("q", [_item(4)])
        verdicts = []
        now = 0.0
        for attempt in range(3):
            work = _claim(store, "q", f"w{attempt}", ttl=5.0, now=now)
            verdicts.append(
                store.fail_work(
                    work.id, f"w{attempt}", {"err": "poison"},
                    retry_limit=2, backoff=0.0, now=now,
                )
            )
            now += 10.0
        assert verdicts == ["requeued", "requeued", "quarantined"]
        quarantined = store.work_quarantined("q")
        assert len(quarantined) == 1
        assert quarantined[0]["item"]["case_index"] == 4
        assert quarantined[0]["error"]["err"] == "poison"
        assert _claim(store, "q", "w9", ttl=5.0, now=now) is None

    def test_expired_lease_requeues_with_incident(self, store):
        store.enqueue_work("q", [_item(2)])
        work = _claim(store, "q", "dead-worker", ttl=1.0, now=0.0)
        incidents = store.requeue_expired("q", retry_limit=2, now=10.0)
        assert len(incidents) == 1
        assert incidents[0]["kind"] == "lease-expired"
        assert incidents[0]["worker"] == "dead-worker"
        assert incidents[0]["item"]["case_index"] == 2
        assert store.leased_workers("q") == {}
        retry = _claim(store, "q", "w2", ttl=1.0, now=20.0)
        assert retry.id == work.id

    def test_repeated_expiry_quarantines(self, store):
        store.enqueue_work("q", [_item()])
        now = 0.0
        kinds = []
        for attempt in range(3):
            work = _claim(store, "q", f"w{attempt}", ttl=1.0, now=now)
            assert work is not None
            now += 10.0
            incidents = store.requeue_expired(
                "q", retry_limit=2, backoff=0.0, now=now
            )
            kinds.extend(i["kind"] for i in incidents)
        assert kinds == [
            "lease-expired", "lease-expired", "shard-quarantined",
        ]
        assert store.work_status("q")["quarantined"] == 1

    def test_clear_work_drops_the_scope(self, store):
        store.enqueue_work("q", [_item(0), _item(1)])
        _claim(store, "q", "w1", ttl=5.0)
        store.clear_work("q")
        assert store.work_status("q") == {
            "pending": 0, "leased": 0, "done": 0, "quarantined": 0,
        }
        assert store.leased_workers("q") == {}


class TestBatchClaims:
    """The amortized protocol: one transaction per batch, not per item."""

    def test_batch_claim_is_oldest_first_exclusive_and_reports_status(
        self, store
    ):
        store.enqueue_work("q", [_item(i) for i in range(5)])
        items, status = store.claim_work_batch("q", "w1", 5.0, 3, now=10.0)
        assert [w.item["case_index"] for w in items] == [0, 1, 2]
        assert all(w.attempts == 1 for w in items)
        # The status snapshot is post-claim and consistent with it.
        assert status == {
            "pending": 2, "leased": 3, "done": 0, "quarantined": 0,
        }
        # The batch's leases are ordinary per-item leases: exclusive.
        others, _ = store.claim_work_batch("q", "w2", 5.0, 10, now=10.0)
        assert [w.item["case_index"] for w in others] == [3, 4]

    def test_fair_share_caps_the_batch(self, store):
        # 5 claimable items, 4 workers: nobody takes more than ⌈5/4⌉=2.
        store.enqueue_work("q", [_item(i) for i in range(5)])
        items, _ = store.claim_work_batch(
            "q", "w1", 5.0, 16, fair_share=4, now=0.0
        )
        assert len(items) == 2

    def test_fair_share_of_one_takes_everything(self, store):
        store.enqueue_work("q", [_item(i) for i in range(5)])
        items, status = store.claim_work_batch(
            "q", "solo", 5.0, 16, fair_share=1, now=0.0
        )
        assert len(items) == 5
        assert status["pending"] == 0

    def test_empty_queue_returns_status_without_items(self, store):
        items, status = store.claim_work_batch("q", "w1", 5.0, 8)
        assert items == []
        assert status == {
            "pending": 0, "leased": 0, "done": 0, "quarantined": 0,
        }

    def test_retried_items_are_claimed_solo(self, store):
        # A dead batch burns one attempt on every passenger; keeping
        # suspects out of batches is what stops a poison item (or an
        # unlucky kill streak) from quarantining innocent neighbours.
        store.enqueue_work("q", [_item(i) for i in range(4)])
        batch, _ = store.claim_work_batch("q", "victim", ttl=1.0, limit=4, now=0.0)
        assert len(batch) == 4
        store.requeue_expired("q", retry_limit=5, backoff=0.0, now=2.0)
        # The oldest item is now a suspect (attempts=1): claimed alone.
        solo, status = store.claim_work_batch("q", "w1", ttl=5.0, limit=4, now=10.0)
        assert [w.id for w in solo] == [batch[0].id]
        assert solo[0].attempts == 2
        assert status["pending"] == 3

    def test_fresh_items_still_batch_behind_a_suspect(self, store):
        # Oldest-first ordering puts the requeued suspect at the head;
        # it goes out alone, and the fresh tail behind it batches as
        # usual on the next claim.
        store.enqueue_work("q", [_item(0)])
        first, _ = store.claim_work_batch("q", "victim", ttl=1.0, limit=4, now=0.0)
        store.requeue_expired("q", retry_limit=5, backoff=0.0, now=2.0)
        store.enqueue_work("q", [_item(i) for i in (1, 2)])
        solo, _ = store.claim_work_batch("q", "w1", ttl=5.0, limit=4, now=10.0)
        assert [w.id for w in solo] == [first[0].id]
        fresh, _ = store.claim_work_batch("q", "w2", ttl=5.0, limit=4, now=10.0)
        assert len(fresh) == 2
        assert all(w.attempts == 1 for w in fresh)

    def test_heartbeat_worker_renews_every_held_lease(self, store):
        store.enqueue_work("q", [_item(i) for i in range(3)])
        mine, _ = store.claim_work_batch("q", "w1", 1.0, 2, now=0.0)
        _claim(store, "q", "other", ttl=1.0, now=0.0)
        # One UPDATE renews both of w1's leases — and only w1's.
        assert store.heartbeat_worker("q", "w1", ttl=1.0, now=0.8) == 2
        expired = store.requeue_expired("q", now=1.5)
        assert {i["worker"] for i in expired} == {"other"}
        assert store.requeue_expired("q", now=2.5) != []  # w1's lapse too
        # A worker holding nothing gets 0: stop advertising liveness.
        assert store.heartbeat_worker("q", "w1", ttl=1.0, now=3.0) == 0

    def test_batch_completion_is_atomic_with_fingerprints_and_children(
        self, store
    ):
        store.enqueue_work("q", [_item(0), _item(1)])
        items, _ = store.claim_work_batch("q", "w1", 5.0, 2, now=0.0)
        assert store.complete_work_batch(
            "w1",
            [
                {"work_id": items[0].id, "result": {"runs": 3},
                 "children": [_item(7)]},
                {"work_id": items[1].id, "result": {"runs": 4}},
            ],
            fingerprints=[("fps", [("aa", 2), ("bb", 5)])],
        )
        assert store.work_status("q") == {
            "pending": 1, "leased": 0, "done": 2, "quarantined": 0,
        }
        assert store.load_fingerprints("fps")[0] == {"aa": 2, "bb": 5}
        results = {r[2]["runs"] for r in store.work_results("q")}
        assert results == {3, 4}

    def test_one_stolen_item_rejects_the_whole_batch(self, store):
        # All-or-nothing: the batch shares one visited set per scope,
        # so a partial accept would publish fingerprints backed by no
        # merged result.  One reassigned item refuses everything.
        store.enqueue_work("q", [_item(0), _item(1)])
        mine, _ = store.claim_work_batch("q", "w1", 1.0, 2, now=0.0)
        store.requeue_expired("q", now=5.0)
        stolen = _claim(store, "q", "thief", ttl=5.0, now=50.0)
        assert stolen is not None
        assert not store.complete_work_batch(
            "w1",
            [
                {"work_id": mine[0].id, "result": {"runs": 1}},
                {"work_id": mine[1].id, "result": {"runs": 1},
                 "children": [_item(9)]},
            ],
            fingerprints=[("fps", [("late", 9)])],
        )
        # NOTHING landed: no fingerprints, no children, no results.
        assert store.load_fingerprints("fps")[0] == {}
        assert store.work_results("q") == []
        assert store.work_status("q")["done"] == 0

    def test_requeued_but_unclaimed_batch_is_still_accepted(self, store):
        # The slow-but-alive worker case, batched: every item expired
        # and requeued but nobody re-claimed — the deterministic late
        # result is the right result, so the batch lands.
        store.enqueue_work("q", [_item(0), _item(1)])
        mine, _ = store.claim_work_batch("q", "w1", 1.0, 2, now=0.0)
        store.requeue_expired("q", now=5.0)
        assert store.complete_work_batch(
            "w1",
            [{"work_id": w.id, "result": {"runs": 1}} for w in mine],
            now=6.0,
        )
        assert store.work_status("q")["done"] == 2


class TestBusyRetry:
    def test_busy_errors_are_retried_and_tallied(self):
        drain_busy_retries()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert retry_locked(flaky, base_delay=0.001) == "ok"
        assert len(attempts) == 3
        assert drain_busy_retries() == 2
        assert drain_busy_retries() == 0  # the tally is take-and-reset

    def test_non_busy_errors_are_not_retried(self):
        drain_busy_retries()

        def broken():
            raise sqlite3.OperationalError("no such table: nope")

        with pytest.raises(sqlite3.OperationalError):
            retry_locked(broken, base_delay=0.001)
        assert drain_busy_retries() == 0

    def test_budget_exhaustion_reraises(self):
        drain_busy_retries()

        def always_locked():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            retry_locked(always_locked, retries=2, base_delay=0.001)
        assert drain_busy_retries() == 2
