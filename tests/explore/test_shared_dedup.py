"""Cross-shard dedup through the store recovers single-process coverage.

Shards walked with isolated visited sets re-explore states across the
shard boundary.  With a shared store
(:class:`repro.store.exchange.FingerprintExchange`) and *sequential*
shards the recovery is exact — every state a shard records is visible
to every later shard, so the summed ``states`` (which counts only
newly recorded states) can never exceed the single-process walk's.
Pinned on the real n=3 NBAC frontier case plus cheaper cases for the
mechanics.
"""

import dataclasses

import pytest

from repro.explore import (
    ExploreCase,
    ExploreOptions,
    explore_case,
    explore_case_dynamic,
    merge_summaries,
    result_from_summary,
)
from repro.explore.frontierd import FleetSettings, _run_batch
from repro.sim.perf import PerfCounters
from repro.store import ResultStore
from repro.store.exchange import FingerprintExchange, exchange_scope
from tests.explore.helpers import enqueue_case, split_roots
from tests.explore.helpers import violation_set as _violation_set


class TestExchangeMechanics:
    def test_seeded_visited_set_halts_the_walk(self, tmp_path):
        case = ExploreCase(target="nbac", n=2, depth=5)
        store = ResultStore(tmp_path)
        scope = "test-scope"
        # Publication is deferred to completion: nothing lands in the
        # store until the walk's owner declares the walk done...
        first_exchange = FingerprintExchange(store, scope)
        first = explore_case(case, exchange=first_exchange)
        assert first.states > 0
        assert store.load_fingerprints(scope)[0] == {}
        pending = first_exchange.take_pending()
        assert pending
        store.publish_fingerprints(scope, pending)
        # ...after which a second walk of the same tree re-records
        # nothing.
        second = explore_case(
            case, exchange=FingerprintExchange(store, scope)
        )
        assert second.states == 0
        assert second.decision_vectors == first.decision_vectors
        store.close()

    def test_crashed_walk_publishes_nothing(self, tmp_path):
        # The soundness half of deferred publication: a walk abandoned
        # mid-run (worker died, batch never completed) must leave no
        # fingerprint claiming coverage it never delivered — its pending
        # set dies with it unless take_pending hands it to a completion.
        case = ExploreCase(target="nbac", n=2, depth=5)
        store = ResultStore(tmp_path)
        abandoned = FingerprintExchange(store, "crash-scope")
        explore_case(case, exchange=abandoned, max_runs=3)
        del abandoned
        retry = FingerprintExchange(store, "crash-scope")
        assert retry.visited == {}
        result = explore_case(case, exchange=retry)
        assert result.complete
        assert result.decision_vectors == explore_case(case).decision_vectors
        store.close()

    def test_scope_covers_fingerprint_shaping_options(self):
        # Every field of ExploreOptions is in the scope — iterated, so a
        # field added later cannot be forgotten.
        case_dict = {"target": "nbac"}
        base = ExploreOptions()
        scope = exchange_scope(case_dict, dataclasses.asdict(base))
        assert scope == exchange_scope(case_dict, dataclasses.asdict(base))
        assert scope != exchange_scope({"target": "ct"}, dataclasses.asdict(base))
        flipped = {
            "por": False,
            "dedup": False,
            "symmetry": "auto",
            "fingerprint_mode": "naive",
        }
        fields = [f.name for f in dataclasses.fields(ExploreOptions)]
        assert sorted(fields) == sorted(flipped), "a new option needs a flip here"
        for name in fields:
            other = dataclasses.replace(base, **{name: flipped[name]})
            assert scope != exchange_scope(case_dict, dataclasses.asdict(other)), name


def _walk_shards_sequentially(case, choice_limit, store):
    """Pre-split ``case`` and walk its shards one batch of one at a
    time, each committed before the next is claimed: the shared visited
    set with no concurrency."""
    base, roots = enqueue_case(store, case, "seq-q", choice_limit=choice_limit)
    for _ in range(roots):
        claimed, status = store.claim_work_batch("seq-q", "w", ttl=60.0, limit=1)
        completions, fingerprints = _run_batch(
            store, claimed, status, FleetSettings(), PerfCounters()
        )
        assert store.complete_work_batch("w", completions, fingerprints)
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
        # The exchange strictly beats isolated visited sets here — the
        # ~30% inflation it exists to recover.
        assert shared.states < sum(r.states for r in isolated)
        assert shared.runs <= sum(r.runs for r in isolated)


class TestStoreReuse:
    def test_reruns_are_independent_complete_searches(self, tmp_path):
        # The scope is salted per invocation: a re-run in the same store
        # must NOT dedup against the finished search (whose results live
        # in the first report, not this one) — it reproduces the whole
        # search from scratch.
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
        count = store.read_connection().execute(
            "SELECT COUNT(*) FROM fingerprints"
        ).fetchone()[0]
        # Coordination state is deleted once the search merges; the
        # store does not grow with every frontier invocation.
        assert count == 0
        store.close()
