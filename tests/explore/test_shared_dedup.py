"""A frontier worker's own visited set recovers single-process coverage.

Shards walked with isolated visited sets re-explore states across the
shard boundary.  A frontier worker keeps, per root, the visited states
of its batches the store *accepted*, and walks later shards of the root
against them (:func:`repro.explore.frontierd._run_batch`).  With
*sequential* shards the recovery is exact — every state a shard
records is visible to every later shard, so the summed ``states``
(which counts only newly recorded states) can never exceed the
single-process walk's.  Pinned on the real n=3 NBAC frontier case plus
cheaper cases for the mechanics.

The acceptance gate is what keeps the reuse sound: a state becomes
reusable only once the batch whose walk recorded it was merged.  A
refused completion or a walk that raised leaves the worker's committed
states exactly as they were, and its re-claim of the same item walks it
in full.
"""

import copy
import dataclasses
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
from repro.explore.cases import case_to_dict
from repro.explore.frontierd import (
    FleetSettings,
    _run_batch,
    _worker_main,
    search_key,
)
from repro.store import ResultStore
from tests.explore.helpers import enqueue_case, explore_case_dynamic, split_roots
from tests.explore.helpers import violation_set as _violation_set


def _enqueue(store, queue_scope, case, prefixes, scope="root"):
    store.enqueue_work(
        queue_scope,
        [
            {"case": case_to_dict(case), "prefix": list(prefix),
             "scope": scope, "case_index": 0}
            for prefix in prefixes
        ],
    )
    store.flush()


class TestExchangeMechanics:
    """States pass from walk to walk only through a handed-in dict."""

    def test_seeded_visited_set_halts_the_walk(self):
        case = ExploreCase(target="nbac", n=2, depth=5)
        visited = {}
        first = explore_case(case, visited=visited)
        assert first.states > 0 and visited
        # A second walk of the same tree on the first one's states
        # re-records nothing.
        second = explore_case(case, visited=dict(visited))
        assert second.states == 0
        assert second.decision_vectors == first.decision_vectors

    def test_crashed_walk_publishes_nothing(self, tmp_path):
        # A batch walks a copy of the worker's committed states: what it
        # records reaches a later walk only if the worker adopts it.  A
        # walk cut short (the stand-in for one killed mid-batch) leaves
        # the committed states as they were, and a walk on them still
        # covers the whole tree.
        case = ExploreCase(target="nbac", n=2, depth=5)
        store = ResultStore(tmp_path)
        _enqueue(store, "crash-q", case, [()])
        committed = {"root": {}}
        claimed, status = store.claim_work_batch("crash-q", "w", 30.0, 1)
        (completion,), visited = _run_batch(
            claimed, status, FleetSettings(max_runs=3), committed=committed
        )
        store.close()
        assert completion["result"]["complete"] is False
        assert committed == {"root": {}}
        assert set(visited) == {"root"} and visited["root"]
        result = explore_case(case, visited=dict(committed["root"]))
        assert result.complete
        assert result.decision_vectors == explore_case(case).decision_vectors

    def test_scope_covers_fingerprint_shaping_options(self):
        # Every field of ExploreOptions is in the key — iterated, so a
        # field added later cannot be forgotten.
        case_dict = {"target": "nbac"}
        base = ExploreOptions()
        scope = search_key(case_dict, dataclasses.asdict(base))
        assert scope == search_key(case_dict, dataclasses.asdict(base))
        assert scope != search_key({"target": "ct"}, dataclasses.asdict(base))
        flipped = {
            "por": False,
            "dedup": False,
            "symmetry": True,
            "fingerprint_mode": "naive",
        }
        fields = [f.name for f in dataclasses.fields(ExploreOptions)]
        assert sorted(fields) == sorted(flipped), "a new option needs a flip here"
        for name in fields:
            other = dataclasses.replace(base, **{name: flipped[name]})
            assert scope != search_key(case_dict, dataclasses.asdict(other)), name


def _walk_shards_sequentially(case, choice_limit, store):
    """Pre-split ``case`` and walk its shards one batch of one at a
    time, as a lone worker would: each batch on the states of every
    batch accepted before it."""
    committed = {}
    base, roots = enqueue_case(
        store, case, "seq-q", choice_limit=choice_limit, committed=committed
    )
    for _ in range(roots):
        claimed, status = store.claim_work_batch("seq-q", "w", ttl=60.0, limit=1)
        completions, visited = _run_batch(
            claimed, status, FleetSettings(), committed=committed
        )
        assert store.complete_work_batch("w", completions)
        committed = visited
    assert store.work_status("seq-q")["pending"] == 0
    return result_from_summary(
        merge_summaries(base, [s for _, _, s in store.work_results("seq-q")])
    )


class TestSequentialShardsExactRecovery:
    @pytest.mark.parametrize(
        "case,choice_limit",
        [
            (ExploreCase(target="ct", n=2, depth=7,
                         assignment=(("susp", (1,)), ("susp", (0,)))), 6),
            (ExploreCase(target="hastycommit", n=2, depth=6, seed=1), 4),
        ],
        ids=["ct", "hastycommit-seed1"],
    )
    def test_states_never_exceed_single_process(self, case, choice_limit, tmp_path):
        single = explore_case(case)
        store = ResultStore(tmp_path)
        shared = _walk_shards_sequentially(case, choice_limit, store)
        store.close()
        assert shared.decision_vectors == single.decision_vectors
        assert _violation_set(shared) == _violation_set(single)
        assert shared.complete == single.complete
        assert shared.states <= single.states

    def test_nbac_n3_frontier_case(self, tmp_path):
        # The acceptance case: the deep n=3 NBAC tree, depth 6.
        case = ExploreCase(target="nbac", n=3, depth=6)
        single = explore_case(case)
        store = ResultStore(tmp_path)
        shared = _walk_shards_sequentially(case, 4, store)
        store.close()
        shallow, roots = split_roots(case, choice_limit=4)
        isolated = [shallow] + [
            explore_case(case, initial_stack=[root]) for root in roots
        ]
        assert shared.counters.explore_shards == len(roots) > 0
        assert shared.decision_vectors == single.decision_vectors
        assert shared.complete and single.complete
        assert shared.states <= single.states
        # Reusing earlier shards' states strictly beats isolated visited
        # sets here — the ~30% inflation the reuse exists to recover.
        assert shared.states < sum(r.states for r in isolated)
        assert shared.runs <= sum(r.runs for r in isolated)


GATE_CASE = ExploreCase(target="hastycommit", n=2, depth=6, seed=1)


def _observe_batches(monkeypatch, after_first):
    """Record the worker's committed states at every batch it walks,
    and run ``after_first(completions)`` once its first walk is done."""
    calls = []
    real = frontierd._run_batch

    def run_batch(items, status, settings, sessions, committed):
        calls.append(
            (copy.deepcopy(committed),
             [tuple(work.item["prefix"]) for work in items])
        )
        completions, visited = real(items, status, settings, sessions, committed)
        if len(calls) == 1:
            after_first(completions)
        return completions, visited

    monkeypatch.setattr(frontierd, "_run_batch", run_batch)
    return calls


def _assert_walked_in_full(store, queue_scope, prefix):
    (summary,) = [
        s for _, item, s in store.work_results(queue_scope)
        if tuple(item["prefix"]) == prefix
    ]
    rewalked = result_from_summary(summary)
    cold = explore_case(GATE_CASE, initial_stack=[prefix])
    assert (rewalked.runs, rewalked.states) == (cold.runs, cold.states)
    assert rewalked.decision_vectors == cold.decision_vectors
    assert rewalked.complete


class TestAcceptanceGate:
    """A worker reuses a batch's states only once the store accepted it."""

    def test_refused_batch_leaves_committed_and_is_rewalked_in_full(
        self, tmp_path, monkeypatch
    ):
        _, roots = split_roots(GATE_CASE, choice_limit=2)
        assert len(roots) >= 2
        first, second = roots[0], roots[1]
        store = ResultStore(tmp_path)
        _enqueue(store, "gate-q", GATE_CASE, [first, second])
        thief = ResultStore(tmp_path)

        def steal_first(completions):
            # A false suspicion while the batch was walked: every lease
            # expires, and a thief claims the oldest item and lands the
            # same (deterministic) result for it.  The worker's
            # completion is then refused as a whole.
            later = time.time() + 1.0
            thief.requeue_expired("gate-q", retry_limit=99, backoff=0.0,
                                  now=later)
            (stolen,), _ = thief.claim_work_batch(
                "gate-q", "thief", 30.0, 1, now=later
            )
            assert tuple(stolen.item["prefix"]) == first
            assert thief.complete_work_batch(
                "thief", [c for c in completions if c["work_id"] == stolen.id]
            )

        calls = _observe_batches(monkeypatch, steal_first)
        _worker_main(
            str(store.path), "gate-q", "w0", FleetSettings(lease_ttl=0.5)
        )
        thief.close()
        assert [prefixes for _, prefixes in calls] == [
            [first, second], [second]
        ]
        # The refused batch's states were never adopted...
        assert calls[1][0] == calls[0][0] == {}
        # ...so the re-claim of its item walks it as a cold walk does.
        status = store.work_status("gate-q")
        assert status["done"] == 2 and status["pending"] == 0
        _assert_walked_in_full(store, "gate-q", second)
        store.close()

    def test_raised_walk_leaves_committed_and_is_rewalked_in_full(
        self, tmp_path, monkeypatch
    ):
        _, roots = split_roots(GATE_CASE, choice_limit=2)
        first, second = roots[0], roots[1]
        store = ResultStore(tmp_path)
        _enqueue(store, "raise-q", GATE_CASE, [first, second])
        walks = []
        real_explore = frontierd.explore_case

        def explore_then_raise(*args, **kwargs):
            walks.append(kwargs["initial_stack"])
            # The batch's second walk dies after the first one filled
            # the batch's visited set.
            if len(walks) == 2:
                raise RuntimeError("walk died mid-batch")
            return real_explore(*args, **kwargs)

        monkeypatch.setattr(frontierd, "explore_case", explore_then_raise)
        calls = _observe_batches(monkeypatch, lambda completions: None)
        _worker_main(str(store.path), "raise-q", "w0", FleetSettings())
        # The raising batch, then one re-claim per requeued item.
        assert [prefixes for _, prefixes in calls] == [
            [first, second], [first], [second]
        ]
        assert calls[1][0] == calls[0][0] == {}
        assert calls[2][0] and calls[2][0] != calls[0][0]
        status = store.work_status("raise-q")
        assert status["done"] == 2 and status["quarantined"] == 0
        _assert_walked_in_full(store, "raise-q", first)
        store.close()


class TestStoreReuse:
    def test_reruns_are_independent_complete_searches(self, tmp_path):
        # No visited state outlives the worker that recorded it: a
        # re-run in the same store file does NOT dedup against the
        # finished search (whose results live in the first report, not
        # this one) — it reproduces the whole search from scratch.
        case = ExploreCase(target="hastycommit", n=2, depth=6, seed=1)
        first = explore_case_dynamic(case, workers=1, store=tmp_path)
        again = explore_case_dynamic(case, workers=1, store=tmp_path)
        assert again.states == first.states
        assert again.runs == first.runs
        assert again.decision_vectors == first.decision_vectors
        assert again.complete

    def test_finished_search_clears_its_scope(self, tmp_path):
        case = ExploreCase(target="hastycommit", n=2, depth=6, seed=1)
        explore_case_dynamic(case, workers=1, store=tmp_path)
        store = ResultStore(tmp_path)
        con = store.read_connection()
        try:
            tables = [
                name for (name,) in con.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table' "
                    "AND name != 'meta'"
                )
            ]
            rows = {
                table: con.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                for table in tables
            }
        finally:
            con.close()
            store.close()
        # Coordination state is deleted once the search merges; the
        # file does not grow with every frontier invocation.
        assert "work_queue" in rows
        assert rows == dict.fromkeys(tables, 0)
