"""Exhaustive verification of the clean targets at the pinned depths.

For each clean target, the default-assignment root is explored to
exhaustion — every scheduler pick and every delivery pick within the
step budget, modulo the two sound reductions — and must yield zero
safety violations, with every completed leaf agreeing on a decision
vector (the algorithms are deterministic in their inputs; only the
schedule varies, and the properties say the schedule must not matter).

The full assignment × crash frontier at these depths costs minutes
(paxos alone is ~140k runs); that lives in the deep suite
(``test_explore_deep.py``).  Default-root exhaustion is the tier-1
slice of the same guarantee.
"""

import dataclasses

import pytest

from repro.chaos.targets import CLEAN_TARGETS
from repro.explore import (
    DEFAULT_SEEDS,
    SMOKE_DEPTHS,
    ExploreCase,
    engine,
    enumerate_roots,
    explore_case,
)


@pytest.mark.parametrize("target", CLEAN_TARGETS)
def test_clean_target_exhausts_without_violation(target):
    for seed in DEFAULT_SEEDS.get(target, (0,)):
        case = ExploreCase(
            target=target, n=2, depth=SMOKE_DEPTHS[target], seed=seed
        )
        result = explore_case(case)
        assert result.complete, f"{target} seed={seed} truncated"
        assert not result.violations, (
            f"{target} seed={seed} violated: "
            f"{[v.violated for v in result.violations]}"
        )
        assert result.runs >= 1
        assert result.decision_vectors, "no completed leaf was judged"
        # Note: decision vectors legitimately differ across leaves —
        # the budget can end a run mid-protocol (prefix outcomes), and
        # validity lets different schedules elect different proposals
        # (rotating-coordinator ct does).  Per-run agreement is the
        # oracle's job; zero violations above is the whole claim.


@pytest.mark.parametrize("target", CLEAN_TARGETS)
def test_clean_target_survives_a_crash(target):
    """A single early crash of the non-pivot process: still no
    violation at a shallow depth (deeper crash frontiers are in the
    deep suite)."""
    depth = min(6, SMOKE_DEPTHS[target])
    case = ExploreCase(target=target, n=2, depth=depth, crashes=((1, 2),))
    result = explore_case(case)
    assert result.complete
    assert not result.violations


def test_clean_register_exhaust_judges_a_completed_read(monkeypatch):
    """At n = 2 seed 0 draws two writes, and a register exhaust that
    judges no read cannot catch a stale one: the default roots must put
    a completed read in the histories the linearizability check sees."""
    judged = set()
    resolve_parts = engine.resolve_parts

    def recording(case):
        parts = resolve_parts(case)

        def summarize(system, trace):
            judged.update(
                op.kind for op in trace.operations if op.response_time is not None
            )
            return parts.summarize(system, trace)

        return dataclasses.replace(parts, summarize=summarize)

    monkeypatch.setattr(engine, "resolve_parts", recording)
    for case in enumerate_roots("register", 2, depth=SMOKE_DEPTHS["register"]):
        result = explore_case(case)
        assert result.complete and not result.violations
    assert "read" in judged
