"""A visited set handed from walk to walk recovers single-process coverage.

Shards walked with isolated visited sets re-explore states across the
shard boundary.  ``explore_case`` takes a ``visited`` set read and
written in place, so shards of one root walked one after another on the
same set dedup against each other.  With *sequential* shards the
recovery is exact — every state a shard records is visible to every
later shard, so the summed ``states`` (which counts only newly recorded
states) can never exceed the single-process walk's.  Pinned on the real
n=3 NBAC frontier case plus cheaper cases for the mechanics.  The
frontier itself walks every root whole, and a re-run shares nothing
with the run before it.
"""

import dataclasses

import pytest

from repro.explore import (
    ExploreCase,
    ExploreOptions,
    explore_case,
    merge_summaries,
    result_from_summary,
)
from repro.explore.frontier import result_to_dict
from repro.explore.frontierd import search_key
from tests.explore.helpers import explore_case_dynamic, split_roots
from tests.explore.helpers import violation_set as _violation_set


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


def _walk_shards_sequentially(case, choice_limit):
    """Pre-split ``case`` and walk its shards one after another, each on
    the states of the split and of every shard walked before it."""
    visited = {}
    shallow, roots = split_roots(case, choice_limit, visited=visited)
    shards = [
        result_to_dict(explore_case(case, initial_stack=[root], visited=visited))
        for root in roots
    ]
    return result_from_summary(merge_summaries(result_to_dict(shallow), shards))


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
    def test_states_never_exceed_single_process(self, case, choice_limit):
        single = explore_case(case)
        shared = _walk_shards_sequentially(case, choice_limit)
        assert shared.decision_vectors == single.decision_vectors
        assert _violation_set(shared) == _violation_set(single)
        assert shared.complete == single.complete
        assert shared.states <= single.states

    def test_nbac_n3_frontier_case(self):
        # The acceptance case: the deep n=3 NBAC tree, depth 6.
        case = ExploreCase(target="nbac", n=3, depth=6)
        single = explore_case(case)
        shared = _walk_shards_sequentially(case, 4)
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


class TestStoreReuse:
    def test_reruns_are_independent_complete_searches(self):
        # No visited state outlives the walk that recorded it: a re-run
        # does NOT dedup against the finished search — it reproduces
        # the whole search from scratch.
        case = ExploreCase(target="hastycommit", n=2, depth=6, seed=1)
        first = explore_case_dynamic(case, workers=1)
        again = explore_case_dynamic(case, workers=1)
        assert again.states == first.states
        assert again.runs == first.runs
        assert again.decision_vectors == first.decision_vectors
        assert again.complete
