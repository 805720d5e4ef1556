"""Sharded subtree search reaches exactly the serial walk's outcomes.

Sharding re-partitions *work*, never *coverage*: the split must hand
out pairwise disjoint subtrees whose union (with the splitter's own
shallow leaves) is the whole tree, and the merged result must agree
with the serial engine on decision vectors, violations and
completeness.  Run counts may differ — per-shard visited sets lose
cross-shard dedup, which the module doc declares as plain-DFS
degradation — so they are deliberately not compared.
"""

import pytest

from repro.explore import ExploreCase, explore_case
from repro.explore.shard import explore_case_sharded, split_case
from repro.explore.shard import explore_shard as _real_explore_shard

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


def _violation_set(result):
    return {(v.violated, v.decisions) for v in result.violations}


# Module-level (callspecs refuse closures) poison shim for the
# partial-merge test: kills exactly one shard root, delegates the rest.
_POISON = {"prefix": None}


def _poisoned_explore_shard(case_dict, prefix, *args, **kwargs):
    if tuple(prefix) == _POISON["prefix"]:
        raise RuntimeError("injected shard death")
    return _real_explore_shard(case_dict, prefix, *args, **kwargs)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_sharded_matches_serial(case):
    serial = explore_case(case)
    sharded = explore_case_sharded(case, shard_depth=6, workers=2)
    assert sharded.decision_vectors == serial.decision_vectors
    assert _violation_set(sharded) == _violation_set(serial)
    assert sharded.complete == serial.complete
    assert sharded.counters.explore_shards > 0


def test_shard_roots_are_pairwise_disjoint_subtrees():
    case = CASES[0]
    shallow, roots = split_case(case, choice_limit=4)
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
    shallow, roots = split_case(case, choice_limit=4)
    # The splitter alone must under-count: everything it did not judge
    # lives under some shard root.
    assert shallow.runs < serial.runs
    assert len(shallow.violations) < len(serial.violations)
    sharded = explore_case_sharded(case, shard_depth=4, workers=2)
    assert _violation_set(sharded) == _violation_set(serial)


def test_failed_shard_keeps_siblings_and_reports_incident(monkeypatch):
    # Partial-merge semantics: one shard cell dying (even past the
    # executor's retries) must not raise away its siblings' finished
    # work — the merge keeps every completed summary, records a
    # structured incident, and downgrades the verdict to
    # complete=False because that subtree really was not exhausted.
    import repro.explore.shard as shard_module

    case = CASES[1]
    serial = explore_case(case)
    _, roots = split_case(case, choice_limit=4)
    assert len(roots) >= 2
    monkeypatch.setitem(_POISON, "prefix", tuple(roots[0]))
    # workers=1 keeps the cells in-process, so the campaign resolves
    # the patched module attribute instead of a pristine subprocess copy.
    monkeypatch.setattr(shard_module, "explore_shard", _poisoned_explore_shard)
    result = explore_case_sharded(case, shard_depth=4, workers=1)

    assert result.complete is False
    failures = [i for i in result.incidents if i["kind"] == "shard-failed"]
    assert len(failures) == 1
    assert failures[0]["error_type"] == "RuntimeError"
    # Siblings' coverage survives: everything found is genuine (a
    # subset of the serial walk), and most of the tree is still there.
    assert result.decision_vectors <= serial.decision_vectors
    assert _violation_set(result) <= _violation_set(serial)
    assert result.decision_vectors, "siblings' results were discarded"


def test_no_shards_below_cutoff_degenerates_to_serial():
    tiny = ExploreCase(target="nbac", n=2, depth=2)
    serial = explore_case(tiny)
    sharded = explore_case_sharded(tiny, shard_depth=50, workers=2)
    assert sharded.counters.explore_shards == 0
    assert sharded.runs == serial.runs
    assert sharded.decision_vectors == serial.decision_vectors
