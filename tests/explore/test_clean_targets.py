"""Exhaustive verification of the clean targets.

For each clean target, one root is explored to exhaustion — every
scheduler pick and every delivery pick within the step budget, modulo
the two sound reductions — and must yield zero safety violations, with
some judged leaf deciding or completing an operation: a clean verdict
over leaves in which nothing happened checks nothing.

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


#: The root each clean target's exhaust walks (n = 2, the target's
#: default seeds): the smoke depth, where a judged leaf already decides
#: or completes an operation, else the shallowest depth or the root
#: where one does.  At the smoke depths no qc or nbac leaf decides, and
#: the default register root (all-full Σ quorums) completes no
#: operation.
JUDGED_ROOTS = {
    "paxos": {"depth": SMOKE_DEPTHS["paxos"]},
    "ct": {"depth": SMOKE_DEPTHS["ct"]},
    "qc": {"depth": 18},
    "nbac": {"depth": 18},
    "register": {
        "depth": SMOKE_DEPTHS["register"],
        "assignment": (("sigma", (0,)), ("sigma", (0,))),
    },
}


#: A crash root per clean target (n = 2, depth 12): the crash, and the
#: constant assignment or history script under which the process that
#: does not crash decides or completes an operation in some judged leaf.
CRASH_ROOTS = {
    "paxos": (((1, 1),), (("os", 0, (0,)), ("os", 0, (0,)))),
    "ct": (((0, 6),), (("susp", ()), ("susp", ()))),
    "qc": (((1, 1),), (("script", ("bot",), ("fsv", "red")),) * 2),
    "nbac": (
        ((1, 1),),
        (("script", ("pf", ("bot",), "green"),
          ("pf", ("fsv", "red"), "red")),) * 2,
    ),
    "register": (((1, 1),), (("sigma", (0,)), ("sigma", (0, 1)))),
}


def _judged_leaves(monkeypatch):
    """Every leaf the safety check judges from now on, as ``(deciding
    pids, completed operations as (pid, kind))``."""
    leaves = []
    resolve_parts = engine.resolve_parts

    def recording(case):
        parts = resolve_parts(case)

        def summarize(system, trace):
            leaves.append((
                {decision.pid for decision in trace.decisions},
                [(op.pid, op.kind) for op in trace.operations
                 if op.response_time is not None],
            ))
            return parts.summarize(system, trace)

        return dataclasses.replace(parts, summarize=summarize)

    monkeypatch.setattr(engine, "resolve_parts", recording)
    return leaves


@pytest.mark.parametrize("target", CLEAN_TARGETS)
def test_clean_target_exhausts_without_violation(target, monkeypatch):
    leaves = _judged_leaves(monkeypatch)
    for seed in DEFAULT_SEEDS.get(target, (0,)):
        case = ExploreCase(target=target, n=2, seed=seed, **JUDGED_ROOTS[target])
        del leaves[:]
        result = explore_case(case)
        assert result.complete, f"{target} seed={seed} truncated"
        assert not result.violations, (
            f"{target} seed={seed} violated: "
            f"{[v.violated for v in result.violations]}"
        )
        assert result.runs >= 1
        assert result.decision_vectors, "no completed leaf was judged"
        assert any(decided or completed for decided, completed in leaves), (
            f"{case}: no judged leaf decides or completes an operation"
        )
        # Note: decision vectors legitimately differ across leaves —
        # the budget can end a run mid-protocol (prefix outcomes), and
        # validity lets different schedules elect different proposals
        # (rotating-coordinator ct does).  Per-run agreement is the
        # oracle's job; zero violations above is the whole claim.


@pytest.mark.parametrize("target", CLEAN_TARGETS)
def test_clean_target_survives_a_crash(target, monkeypatch):
    """One crash: still no violation, and the process that does not
    crash decides or completes an operation in some judged leaf (deeper
    crash frontiers are in the deep suite)."""
    crashes, assignment = CRASH_ROOTS[target]
    leaves = _judged_leaves(monkeypatch)
    case = ExploreCase(
        target=target, n=2, depth=12, crashes=crashes, assignment=assignment
    )
    result = explore_case(case)
    assert result.complete
    assert not result.violations
    crashed = {pid for pid, _ in crashes}
    assert any(
        deciders - crashed or {pid for pid, _ in completed} - crashed
        for deciders, completed in leaves
    ), f"{case}: no surviving process decides or completes an operation"


def test_clean_register_exhaust_judges_a_completed_read(monkeypatch):
    """At n = 2 seed 0 draws two writes, and a register exhaust that
    judges no read cannot catch a stale one: the default roots must put
    a completed read in the histories the linearizability check sees."""
    leaves = _judged_leaves(monkeypatch)
    for case in enumerate_roots("register", 2, depth=SMOKE_DEPTHS["register"]):
        result = explore_case(case)
        assert result.complete and not result.violations
    assert any(
        kind == "read" for _, completed in leaves for _, kind in completed
    )
