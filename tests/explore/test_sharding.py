"""Searching below a root reaches exactly the serial walk's outcomes.

Sharding re-partitions *work*, never *coverage*: a split must hand out
pairwise disjoint subtrees whose union (with the splitting walk's own
shallow leaves) is the whole tree, and the shards' merged result must
agree with the serial engine on decision vectors, violations and
completeness.  Run counts may differ — shards walked on their own
visited sets can both meet a state — so they are deliberately not
compared.
"""

import pytest

from repro.explore import (
    ExploreCase,
    explore_case,
    merge_summaries,
    result_from_summary,
)
from repro.explore.frontier import result_to_dict
from tests.explore.helpers import explore_case_dynamic, split_roots
from tests.explore.helpers import violation_set as _violation_set

CASES = [
    ExploreCase(
        target="ct",
        n=2,
        depth=7,
        assignment=(("susp", (1,)), ("susp", (0,))),
    ),
    ExploreCase(target="hastycommit", n=2, depth=6, seed=1),
]
IDS = ["ct", "hastycommit-seed1"]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_sharded_matches_serial(case):
    serial = explore_case(case)
    shallow, roots = split_roots(case, choice_limit=2)
    sharded = result_from_summary(merge_summaries(
        result_to_dict(shallow),
        [result_to_dict(explore_case(case, initial_stack=[root]))
         for root in roots],
    ))
    assert sharded.decision_vectors == serial.decision_vectors
    assert _violation_set(sharded) == _violation_set(serial)
    assert sharded.complete == serial.complete
    assert sharded.counters.explore_shards > 1


def test_shard_roots_are_pairwise_disjoint_subtrees():
    case = CASES[0]
    shallow, roots = split_roots(case, choice_limit=4)
    assert shallow.complete
    assert roots, "no subtree ever reached the cutoff"
    for i, a in enumerate(roots):
        for b in roots[i + 1 :]:
            # Neither prefix extends the other, so the subtrees under
            # them cannot share a leaf.
            shorter = min(len(a), len(b))
            assert a[:shorter] != b[:shorter]


def test_splitter_judges_only_shallow_leaves():
    case = CASES[1]
    serial = explore_case(case)
    shallow, roots = split_roots(case, choice_limit=4)
    # The splitting walk alone must under-count: everything it did not
    # judge lives under some shard root...
    assert shallow.runs < serial.runs
    assert len(shallow.violations) < len(serial.violations)
    # ...and walking those roots finds exactly the rest.
    found = _violation_set(shallow)
    for root in roots:
        found |= _violation_set(explore_case(case, initial_stack=[root]))
    assert found == _violation_set(serial)


def test_no_shards_below_cutoff_degenerates_to_serial():
    # The frontier walks a root whole: one shard, the serial walk.
    tiny = ExploreCase(target="nbac", n=2, depth=2)
    serial = explore_case(tiny)
    sharded = explore_case_dynamic(tiny, workers=1)
    assert sharded.counters.explore_shards == 1
    assert sharded.runs == serial.runs
    assert sharded.decision_vectors == serial.decision_vectors
