"""E9's FS and P runs stop at their first accuracy violation, exactly.

A forgery run must end on the tick at which its history first leaves
the detector's prefix-closed safety clause — found here independently,
by running the same spec without a stop to a short horizon and cutting
its history after each sample — with the verdict the full horizon
gives.  A run that never breaks the clause must be the run it was
without a stop.
"""

import pytest

from repro.core.history import SampledHistory
from repro.core.specs import fs_safety, perfect_safety
from repro.experiments.e09_heartbeats import CASES, case_specs
from repro.experiments.hooks import safety_broken
from repro.sim.system import System

_CLAUSES = {"fs": fs_safety, "perfect": perfect_safety}

_FORGERY = [case for case in CASES if case[2] in _CLAUSES and not case[7]]
_PASS = [case for case in CASES if case[2] in _CLAUSES and case[7]]


def _first_break(history, pattern, clause):
    """The first sample time at which ``history`` cut there fails
    ``clause``; None if no cut does."""
    samples = sorted(
        (t, pid, value)
        for pid in history.processes()
        for t, value in history.samples_of(pid)
    )
    prefix = SampledHistory(history.n)
    for t, pid, value in samples:
        prefix.record(pid, t, value)
        if not clause(prefix, pattern).ok:
            return t
    return None


@pytest.mark.parametrize("case", _FORGERY, ids=lambda case: case[2])
def test_forgery_runs_stop_on_their_first_violation(case):
    clause = _CLAUSES[case[2]]
    for spec in case_specs(case, seed=0):
        stopped = spec.execute()
        reference = System.from_spec(spec.with_(stop=None, horizon=2_000))
        trace = reference.run()
        first = _first_break(trace.annotations["h"], reference.pattern, clause)
        assert first is not None, spec.seed
        assert stopped.stop_reason == "stop-condition"
        assert stopped.final_time == first, (spec.seed, first)
        assert stopped.metrics["ok"] is False


@pytest.mark.parametrize("case", _PASS, ids=lambda case: case[2])
def test_pass_runs_reach_the_horizon_unchanged(case):
    (spec,) = case_specs(case, seed=0)
    stopped = spec.execute()
    unstopped = spec.with_(stop=None).execute()
    assert stopped.stop_reason == unstopped.stop_reason == "horizon"
    assert stopped.final_time == unstopped.final_time == spec.horizon
    assert stopped.trace_digest == unstopped.trace_digest
    assert stopped.metrics == unstopped.metrics
    assert stopped.metrics["ok"] is True


def test_omega_has_no_clause_to_stop_on():
    with pytest.raises(ValueError, match="omega"):
        safety_broken("omega", "h")
