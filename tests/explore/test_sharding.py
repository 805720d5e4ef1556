"""Searching below a root reaches exactly the serial walk's outcomes.

Sharding re-partitions *work*, never *coverage*: a split must hand out
pairwise disjoint subtrees whose union (with the splitting walk's own
shallow leaves) is the whole tree, and the frontier's merged
result must agree with the serial engine on decision vectors,
violations and completeness.  Run counts may differ — parallel shards
can both meet a state neither has published — so they are deliberately
not compared.
"""

import pytest

from repro.explore import ExploreCase, explore_case, explore_case_dynamic
from tests.explore.helpers import split_roots
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
    sharded = explore_case_dynamic(case, workers=2, split_step=2)
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
    # One worker never splits: the whole tree is one claim, and its walk
    # is the serial walk.
    tiny = ExploreCase(target="nbac", n=2, depth=2)
    serial = explore_case(tiny)
    sharded = explore_case_dynamic(tiny, workers=1)
    assert sharded.counters.explore_shards == 1
    assert sharded.runs == serial.runs
    assert sharded.decision_vectors == serial.decision_vectors
