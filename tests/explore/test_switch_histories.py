"""Differential tests: enumerator and oracles, held to the detector specs.

A detector's safety is written once, as the prefix-closed safety
clauses of :mod:`repro.core.specs` (``sigma_safety``, ``fs_safety``,
``omega_sigma_safety``, ``psi_safety``).  Two parts of the repo produce
detector histories, and both are held to those clauses here:

* the chaos oracles (:mod:`repro.core.detectors`) *sample* histories:
  every sample must pass (otherwise the fuzzer tests algorithms against
  impossible worlds);
* the explorer (:mod:`repro.explore.assignments` + the
  :class:`~repro.explore.control.DetectorScript` advance rules)
  *enumerates* them: every constant, and every history any script in
  any family reaches at any admissible combination of advance ticks,
  must pass too (otherwise the explorer convicts algorithms on
  impossible worlds, and its "clean" verdicts mean nothing).

``stage_requires_crash``, the controller's per-stage crash gate, is
pinned to the same clauses: a stage is gated iff its clause rejects
its value held from tick 0 on a crash-free pattern.  Hypothesis drives
the oracle samples and the advance schedules.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.targets import TARGETS
from repro.core.detectors.fs import FSOracle
from repro.core.detectors.psi import PsiOracle
from repro.core.failure_pattern import FailurePattern
from repro.core.history import SampledHistory
from repro.core.specs import (
    SpecVerdict,
    fs_safety,
    omega_sigma_safety,
    psi_safety,
    sigma_safety,
)
from repro.explore.assignments import (
    assignment_requires_crash,
    assignments_for,
    decode_value,
    script_stages,
    stage_requires_crash,
    switch_scripts_for,
)
from repro.explore.control import DetectorScript
from repro.nbac import psi_fs_oracle

HORIZON = 32


def psi_fs_safety(history, pattern):
    """(Ψ, FS) of Corollary 10: each component passes its own clause."""
    psi_part, fs_part = SampledHistory(pattern.n), SampledHistory(pattern.n)
    for pid in pattern.processes:
        for t, (psi, fs) in history.samples_of(pid):
            psi_part.record(pid, t, psi)
            fs_part.record(pid, t, fs)
    verdict = psi_safety(psi_part, pattern)
    return verdict if not verdict else fs_safety(fs_part, pattern)


def unconstrained(history, pattern):
    """◇S is all eventual: every finite prefix extends admissibly."""
    return SpecVerdict(True)


#: Each target's detector, by its safety clause.
SAFETY = {
    "paxos": omega_sigma_safety,
    "submajority": omega_sigma_safety,
    "ct": unconstrained,
    "qc": psi_safety,
    "eagerquit": psi_safety,
    "nbac": psi_fs_safety,
    "hastycommit": psi_fs_safety,
    "redcommit": psi_fs_safety,
    "register": sigma_safety,
    "staleread": sigma_safety,
}
ALL_TARGETS = tuple(SAFETY)
#: Targets whose scripted values the Ψ / (Ψ, FS) clauses judge.
PSI_TARGETS = ("qc", "eagerquit")
PSI_FS_TARGETS = ("nbac", "hastycommit", "redcommit")


def test_every_target_names_its_safety_clause():
    assert set(SAFETY) == set(TARGETS)


@st.composite
def patterns(draw):
    """A failure pattern at n∈[2,4] with 0..n-1 crashes in-horizon."""
    n = draw(st.integers(2, 4))
    faulty = draw(
        st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1)
    )
    crashes = {
        pid: draw(st.integers(0, HORIZON - 1)) for pid in faulty
    }
    return FailurePattern(n, crashes)


def _history(prefixes):
    """Each process's values at ticks 0, 1, … as a sampled history."""
    return SampledHistory.from_pairs(
        len(prefixes),
        (
            (pid, t, value)
            for pid, values in enumerate(prefixes)
            for t, value in enumerate(values)
        ),
    )


def _pattern(n, first_crash):
    """A pattern whose first crash is at ``first_crash`` (None: none)."""
    return FailurePattern(n, {} if first_crash is None else {0: first_crash})


def _oracle_sample(oracle, pattern, seed):
    history = oracle.build_history(pattern, HORIZON, random.Random(seed))
    return _history(
        [[history.value(pid, t) for t in range(HORIZON)] for pid in pattern.processes]
    )


# -- oracle side: samples satisfy the clauses --------------------------
@given(pattern=patterns(), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_psi_oracle_samples_are_admissible(pattern, seed):
    sample = _oracle_sample(PsiOracle(), pattern, seed)
    assert psi_safety(sample, pattern)


@given(pattern=patterns(), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_fs_oracle_samples_are_admissible(pattern, seed):
    sample = _oracle_sample(FSOracle(), pattern, seed)
    assert fs_safety(sample, pattern)


@given(pattern=patterns(), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_psi_fs_oracle_samples_are_admissible(pattern, seed):
    sample = _oracle_sample(psi_fs_oracle(), pattern, seed)
    assert psi_fs_safety(sample, pattern)


# -- enumerator side: every reachable script history is admissible -----
def _detector_script(enc_assignment, first_crash):
    return DetectorScript(
        values=[
            tuple(decode_value(s) for s in script_stages(enc))
            for enc in enc_assignment
        ],
        gated=[
            tuple(stage_requires_crash(s) for s in script_stages(enc))
            for enc in enc_assignment
        ],
        first_crash=first_crash,
    )


def _drive(data, enc_assignment, first_crash, ticks=12):
    """One arbitrary admissible advance schedule through a script
    vector; returns each process's per-tick value sequence."""
    n = len(enc_assignment)
    script = _detector_script(enc_assignment, first_crash)
    seen = [[] for _ in range(n)]
    for now in range(ticks):
        for pid in range(n):
            menu = script.targets(pid, now)
            assert menu[0] == script.cursors[pid], "staying is option 0"
            script.advance(pid, data.draw(st.sampled_from(menu)))
            seen[pid].append(script.value(pid))
    return seen


def _reachable_histories_pass(data, targets):
    target = data.draw(st.sampled_from(targets))
    n = data.draw(st.sampled_from((2, 3)))
    assignment = data.draw(st.sampled_from(switch_scripts_for(target, n)))
    first_crash = data.draw(
        st.one_of(st.none(), st.integers(0, 8)), label="first_crash"
    )
    prefix = _history(_drive(data, assignment, first_crash))
    verdict = SAFETY[target](prefix, _pattern(n, first_crash))
    assert verdict, verdict.violations


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_reachable_psi_script_histories_are_admissible(data):
    _reachable_histories_pass(data, PSI_TARGETS)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_reachable_psi_fs_script_histories_are_admissible(data):
    _reachable_histories_pass(data, PSI_FS_TARGETS)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_reachable_script_histories_of_every_target_are_admissible(data):
    _reachable_histories_pass(data, ALL_TARGETS)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_gated_stages_never_advance_before_the_crash(data):
    """The crash gate exactly: a crash-claiming stage is reachable at
    tick t iff t >= first_crash — and never on a crash-free pattern."""
    target = data.draw(st.sampled_from(PSI_FS_TARGETS))
    assignment = data.draw(st.sampled_from(switch_scripts_for(target, 2)))
    first_crash = data.draw(st.one_of(st.none(), st.integers(0, 8)))
    script = _detector_script(assignment, first_crash)
    for now in range(12):
        for pid in range(len(assignment)):
            for j in script.targets(pid, now):
                if script.gated[pid][j]:
                    assert first_crash is not None and now >= first_crash


# -- family invariants -------------------------------------------------
def _held(values, ticks=3):
    """Each process's value held from tick 0."""
    return _history([[value] * ticks for value in values])


@pytest.mark.parametrize("target", ALL_TARGETS)
@pytest.mark.parametrize("n", (2, 3))
def test_every_constant_passes_its_safety_clause(target, n):
    crash_free = FailurePattern.crash_free(n)
    for assignment in assignments_for(target, n):
        held = _held([decode_value(enc) for enc in assignment])
        verdict = SAFETY[target](held, crash_free)
        assert verdict, (assignment, verdict.violations)


@pytest.mark.parametrize("target", ALL_TARGETS)
@pytest.mark.parametrize("n", (2, 3))
def test_crash_gate_is_the_safety_clause(target, n):
    """``stage_requires_crash`` is the clause, on every stage: a stage
    is gated iff its value, held from tick 0 at every process, fails
    the target's clause on a crash-free pattern."""
    crash_free = FailurePattern.crash_free(n)
    stages = {
        stage
        for family in (assignments_for(target, n), switch_scripts_for(target, n))
        for assignment in family
        for enc in assignment
        for stage in script_stages(enc)
    }
    for stage in stages:
        held = _held([decode_value(stage)] * n)
        rejected = not SAFETY[target](held, crash_free)
        assert stage_requires_crash(stage) == rejected, stage


@pytest.mark.parametrize("target", ALL_TARGETS)
@pytest.mark.parametrize("n", (2, 3))
def test_script_families_are_coherent_and_decodable(target, n):
    family = switch_scripts_for(target, n)
    assert family, f"{target} has an empty script family"
    for assignment in family:
        assert len(assignment) == n
        # Uniform: the same script at every pid (the cross-process
        # branch-agreement argument rests on this).
        assert len(set(assignment)) == 1
        for enc in assignment:
            stages = script_stages(enc)
            assert len(stages) >= 2, "a script must actually switch"
        # Coherent: every stage in order, one tick each, after a crash
        # at tick 0 (so no stage is gated), passes the clause.
        walked = [
            [decode_value(stage) for stage in script_stages(enc)]
            for enc in assignment
        ]
        verdict = SAFETY[target](_history(walked), _pattern(n, 0))
        assert verdict, (assignment, verdict.violations)


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_constant_families_never_claim_crashes(target):
    """Constants stay what they always were: admissible on any pattern.
    Crash-claiming values live only in the script families."""
    for assignment in assignments_for(target, 2):
        assert not assignment_requires_crash(assignment)
