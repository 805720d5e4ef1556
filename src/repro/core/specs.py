"""Property checkers for failure detector histories.

Each checker transcribes one detector definition from Section 2 (and
Section 6.1 for Ψ) into a predicate over *observed* histories — either
dense oracle histories or the sparse per-step samples recorded in a run.

Perpetual properties (Σ-Intersection, FS-Accuracy, P-Accuracy) are
checked exhaustively over all observed samples.  Eventual properties
("eventually ... forever") are finitised: the checker looks for a suffix
of the observation window on which the property holds and reports the
time it holds from.  A finite window can of course only *falsify* an
eventual property or confirm it held over the observed suffix; the
simulation harness sizes horizons so that the stable suffix is long
enough to be meaningful.

Σ, FS, (Ω, Σ), Ψ and P each split into a prefix-closed *safety*
clause — ``sigma_safety``, ``fs_safety``, ``omega_sigma_safety``,
``psi_safety``, ``perfect_safety``: a history failing it has no
admissible extension — and a liveness remainder; ``check_*`` is their
conjunction.  The two share one walk per detector (``_sigma``, ``_fs``,
``_omega_sigma``, ``_psi``, ``_perfect``), whose ``liveness`` argument
adds the eventual clauses.  The explorer holds its detector menus to
the safety clauses alone, since it only ever runs a finite prefix, and
a simulated run may stop at the first tick its history fails one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core.detector import BOTTOM, GREEN, RED, is_fs_value, is_omega_sigma_value
from repro.core.failure_pattern import FailurePattern
from repro.core.history import SampledHistory


class HistoryLike(Protocol):
    """Anything exposing per-process (time, value) samples."""

    n: int

    def samples_of(self, pid: int) -> Any: ...

    def processes(self) -> range: ...


@dataclass
class SpecVerdict:
    """Outcome of checking one detector specification.

    Attributes
    ----------
    ok:
        Whether every clause of the specification held on the
        observations.
    holds_from:
        For specifications with an eventual clause, the earliest
        observed time from which the eventual clause held at every
        relevant process (None when ``ok`` is false or the clause is
        vacuous).
    violations:
        Human-readable descriptions of each violated clause.
    """

    ok: bool
    holds_from: Optional[int] = None
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _samples(history: HistoryLike, pid: int) -> List[Tuple[int, Any]]:
    return list(history.samples_of(pid))


def _stable_suffix_start(
    samples: Sequence[Tuple[int, Any]], predicate
) -> Optional[int]:
    """Earliest sample time from which ``predicate(value)`` holds through
    the end of ``samples``; None if it fails on the final sample or the
    sequence is empty."""
    start: Optional[int] = None
    for t, value in samples:
        if predicate(value):
            if start is None:
                start = t
        else:
            start = None
    return start


def _not_a_set(pid: int, t: int, value: Any) -> str:
    return f"H({pid},{t}) = {value!r} is not a set of processes"


def _suspect_lists(
    history: HistoryLike, pattern: FailurePattern
) -> Optional[SpecVerdict]:
    """The failing verdict on a history holding a sample that is not a
    set of processes (None when every sample is one): P, ◇P, S and ◇S
    judge suspect lists, and anything else is no suspect list at all."""
    for pid in pattern.processes:
        for t, value in _samples(history, pid):
            if not isinstance(value, frozenset):
                return SpecVerdict(False, None, [_not_a_set(pid, t, value)])
    return None


# ----------------------------------------------------------------------
# Omega
# ----------------------------------------------------------------------
def check_omega(history: HistoryLike, pattern: FailurePattern) -> SpecVerdict:
    """Check Ω: some correct process is eventually output forever by
    every correct process."""
    violations: List[str] = []
    final_values = {}
    holds_from = 0
    for pid in sorted(pattern.correct):
        samples = _samples(history, pid)
        if not samples:
            violations.append(f"correct process {pid} has no samples")
            continue
        last_value = samples[-1][1]
        final_values[pid] = last_value
        start = _stable_suffix_start(samples, lambda v: v == last_value)
        assert start is not None
        holds_from = max(holds_from, start)

    if violations:
        return SpecVerdict(False, None, violations)

    leaders = set(final_values.values())
    if len(leaders) != 1:
        violations.append(
            f"correct processes converge to different leaders: {final_values}"
        )
        return SpecVerdict(False, None, violations)

    leader = leaders.pop()
    if leader not in pattern.correct:
        violations.append(f"eventual leader {leader!r} is not a correct process")
        return SpecVerdict(False, None, violations)

    return SpecVerdict(True, holds_from)


# ----------------------------------------------------------------------
# Sigma
# ----------------------------------------------------------------------
def sigma_safety(history: HistoryLike, pattern: FailurePattern) -> SpecVerdict:
    """Σ's safety clause: perpetual pairwise Intersection."""
    return _sigma(history, pattern, liveness=False)


def check_sigma(history: HistoryLike, pattern: FailurePattern) -> SpecVerdict:
    """Check Σ: perpetual pairwise Intersection and eventual
    Completeness (quorums at correct processes ⊆ correct(F))."""
    return _sigma(history, pattern, liveness=True)


def _sigma(
    history: HistoryLike, pattern: FailurePattern, liveness: bool
) -> SpecVerdict:
    violations: List[str] = []

    # Pairwise intersection over *distinct* quorum values (the identity
    # of the emitting process/time is irrelevant to the property, and
    # extraction outputs repeat heavily, so dedup is a large win).
    distinct: Dict[frozenset, Tuple[int, int]] = {}
    for pid in pattern.processes:
        for t, value in _samples(history, pid):
            if not isinstance(value, frozenset):
                violations.append(_not_a_set(pid, t, value))
                return SpecVerdict(False, None, violations)
            distinct.setdefault(value, (pid, t))

    quorum_list = list(distinct.items())
    # Fast sufficient conditions before the quadratic fallback: a
    # non-empty global intersection (kernel-style families) or all
    # quorums being majorities each imply pairwise intersection.
    globally_common = None
    for q, _ in quorum_list:
        globally_common = q if globally_common is None else globally_common & q
        if not globally_common:
            break
    all_majorities = all(
        len(q) >= pattern.n // 2 + 1 for q, _ in quorum_list
    )
    if not globally_common and not all_majorities:
        for i, (q1, (p1, t1)) in enumerate(quorum_list):
            for q2, (p2, t2) in quorum_list[i + 1 :]:
                if not q1 & q2:
                    violations.append(
                        f"Intersection violated: H({p1},{t1})={sorted(q1)} "
                        f"and H({p2},{t2})={sorted(q2)} are disjoint"
                    )
                    return SpecVerdict(False, None, violations)
    if not liveness:
        return SpecVerdict(True)

    holds_from = 0
    correct = pattern.correct
    for pid in sorted(correct):
        samples = _samples(history, pid)
        if not samples:
            violations.append(f"correct process {pid} has no samples")
            continue
        start = _stable_suffix_start(samples, lambda q: q <= correct)
        if start is None:
            violations.append(
                f"Completeness violated at process {pid}: final quorum "
                f"{sorted(samples[-1][1])} contains faulty processes"
            )
        else:
            holds_from = max(holds_from, start)

    if violations:
        return SpecVerdict(False, None, violations)
    return SpecVerdict(True, holds_from)


# ----------------------------------------------------------------------
# FS
# ----------------------------------------------------------------------
def fs_safety(history: HistoryLike, pattern: FailurePattern) -> SpecVerdict:
    """FS's safety clause, Accuracy: red only at or after the first
    crash."""
    return _fs(history, pattern, liveness=False)


def check_fs(history: HistoryLike, pattern: FailurePattern) -> SpecVerdict:
    """Check FS: red only after a failure; eventually-red at every
    correct process if a failure occurred."""
    return _fs(history, pattern, liveness=True)


def _fs(history: HistoryLike, pattern: FailurePattern, liveness: bool) -> SpecVerdict:
    violations: List[str] = []
    first_crash = pattern.first_crash_time()

    for pid in pattern.processes:
        for t, value in _samples(history, pid):
            if value not in (GREEN, RED):
                violations.append(f"H({pid},{t}) = {value!r} is not green/red")
                return SpecVerdict(False, None, violations)
            if value == RED and (first_crash is None or t < first_crash):
                violations.append(
                    f"Accuracy violated: H({pid},{t}) = red but no failure "
                    f"has occurred by time {t}"
                )

    holds_from: Optional[int] = None
    if liveness and pattern.faulty:
        holds_from = 0
        for pid in sorted(pattern.correct):
            samples = _samples(history, pid)
            if not samples:
                violations.append(f"correct process {pid} has no samples")
                continue
            start = _stable_suffix_start(samples, lambda v: v == RED)
            if start is None:
                violations.append(
                    f"Completeness violated: correct process {pid} does not "
                    f"end in a red suffix despite faulty={sorted(pattern.faulty)}"
                )
            else:
                holds_from = max(holds_from, start)

    if violations:
        return SpecVerdict(False, None, violations)
    return SpecVerdict(True, holds_from)


# ----------------------------------------------------------------------
# (Omega, Sigma) product
# ----------------------------------------------------------------------
def omega_sigma_safety(
    history: HistoryLike, pattern: FailurePattern
) -> SpecVerdict:
    """(Ω, Σ)'s safety clause: pairs whose Σ component passes
    :func:`sigma_safety` (Ω is all liveness)."""
    return _omega_sigma(history, pattern, liveness=False)


def check_omega_sigma(history: HistoryLike, pattern: FailurePattern) -> SpecVerdict:
    """Check the product (Ω, Σ) componentwise."""
    return _omega_sigma(history, pattern, liveness=True)


def _omega_sigma(
    history: HistoryLike, pattern: FailurePattern, liveness: bool
) -> SpecVerdict:
    omega_part = SampledHistory(pattern.n)
    sigma_part = SampledHistory(pattern.n)
    for pid in pattern.processes:
        for t, value in _samples(history, pid):
            if not is_omega_sigma_value(value):
                return SpecVerdict(
                    False,
                    None,
                    [f"H({pid},{t}) = {value!r} is not an (Omega, Sigma) pair"],
                )
            omega_part.record(pid, t, value[0])
            sigma_part.record(pid, t, value[1])
    if not liveness:
        return sigma_safety(sigma_part, pattern)
    omega_verdict = check_omega(omega_part, pattern)
    sigma_verdict = check_sigma(sigma_part, pattern)
    ok = omega_verdict.ok and sigma_verdict.ok
    holds_from = None
    if ok:
        holds_from = max(omega_verdict.holds_from or 0, sigma_verdict.holds_from or 0)
    return SpecVerdict(
        ok, holds_from, omega_verdict.violations + sigma_verdict.violations
    )


# ----------------------------------------------------------------------
# Psi
# ----------------------------------------------------------------------
def psi_safety(history: HistoryLike, pattern: FailurePattern) -> SpecVerdict:
    """Ψ's safety clause: ⊥ is never re-entered, every process that left
    ⊥ is on one common branch, the FS branch starts no earlier than the
    first crash, and the post-switch samples pass that branch's own
    safety clause.  A process still at ⊥ is liveness."""
    return _psi(history, pattern, liveness=False)


def check_psi(history: HistoryLike, pattern: FailurePattern) -> SpecVerdict:
    """Check Ψ: a ⊥-prefix at every process, then a single common branch
    — FS (admissible only after a failure) or (Ω, Σ) — whose suffix
    samples satisfy the corresponding sub-specification."""
    return _psi(history, pattern, liveness=True)


def _psi(history: HistoryLike, pattern: FailurePattern, liveness: bool) -> SpecVerdict:
    violations: List[str] = []
    branch_types = set()
    switch_times = {}
    suffix = SampledHistory(pattern.n)

    for pid in pattern.processes:
        seen_non_bottom = False
        for t, value in _samples(history, pid):
            if value is BOTTOM:
                if seen_non_bottom:
                    violations.append(
                        f"process {pid} reverted to ⊥ at time {t} after switching"
                    )
                continue
            if not seen_non_bottom:
                seen_non_bottom = True
                switch_times[pid] = t
            if is_fs_value(value):
                branch_types.add("fs")
            elif is_omega_sigma_value(value):
                branch_types.add("omega-sigma")
            else:
                violations.append(
                    f"H({pid},{t}) = {value!r} is neither ⊥, FS, nor (Omega, Sigma)"
                )
                return SpecVerdict(False, None, violations)
            suffix.record(pid, t, value)

    if violations:
        return SpecVerdict(False, None, violations)

    if len(branch_types) > 1:
        violations.append(
            "processes committed to different branches: "
            f"{sorted(branch_types)} (switch times {switch_times})"
        )
        return SpecVerdict(False, None, violations)

    if not branch_types:
        # Everyone output ⊥ throughout the window.  The definition
        # requires every process to switch eventually, so correct
        # processes stuck at ⊥ for the whole window falsify Ψ.
        if liveness and any(
            any(True for _ in history.samples_of(pid)) for pid in pattern.correct
        ):
            violations.append(
                "no process ever switched away from ⊥ within the window"
            )
            return SpecVerdict(False, None, violations)
        return SpecVerdict(True, None)

    branch = branch_types.pop()
    for pid in sorted(pattern.correct) if liveness else ():
        if pid not in switch_times:
            samples = _samples(history, pid)
            if samples:
                violations.append(
                    f"correct process {pid} never switched away from ⊥"
                )
    if violations:
        return SpecVerdict(False, None, violations)

    if branch == "fs":
        first_crash = pattern.first_crash_time()
        if first_crash is None:
            violations.append(
                "FS branch taken on a crash-free pattern (inadmissible)"
            )
            return SpecVerdict(False, None, violations)
        for pid, t_switch in sorted(switch_times.items()):
            if t_switch < first_crash:
                violations.append(
                    f"process {pid} switched to FS at {t_switch}, before the "
                    f"first crash at {first_crash}"
                )
        if violations:
            return SpecVerdict(False, None, violations)
        sub = _fs(suffix, pattern, liveness)
    else:
        sub = _omega_sigma(suffix, pattern, liveness)

    if not sub.ok:
        return SpecVerdict(
            False, None, [f"{branch} suffix fails: {v}" for v in sub.violations]
        )
    if not liveness:
        return SpecVerdict(True)
    holds_from = max(
        [sub.holds_from or 0] + [t for t in switch_times.values()]
    )
    return SpecVerdict(True, holds_from)


# ----------------------------------------------------------------------
# P and <>P
# ----------------------------------------------------------------------
def perfect_safety(history: HistoryLike, pattern: FailurePattern) -> SpecVerdict:
    """P's safety clause, strong accuracy: no process is suspected
    before it crashes."""
    return _perfect(history, pattern, liveness=False)


def check_perfect(history: HistoryLike, pattern: FailurePattern) -> SpecVerdict:
    """Check P: strong accuracy (never suspect before crash) and strong
    completeness (faulty processes end permanently suspected)."""
    return _perfect(history, pattern, liveness=True)


def _perfect(
    history: HistoryLike, pattern: FailurePattern, liveness: bool
) -> SpecVerdict:
    refused = _suspect_lists(history, pattern)
    if refused is not None:
        return refused
    violations: List[str] = []
    for pid in pattern.processes:
        for t, suspects in _samples(history, pid):
            for victim in suspects:
                if not pattern.crashed(victim, t):
                    violations.append(
                        f"Accuracy violated: {pid} suspects {victim} at {t} "
                        f"but {victim} has not crashed"
                    )
    holds_from = None
    if liveness:
        holds_from = _check_strong_completeness(history, pattern, violations)
    if violations:
        return SpecVerdict(False, None, violations)
    return SpecVerdict(True, holds_from)


def check_eventually_perfect(
    history: HistoryLike, pattern: FailurePattern
) -> SpecVerdict:
    """Check ◇P: strong completeness and eventual strong accuracy."""
    refused = _suspect_lists(history, pattern)
    if refused is not None:
        return refused
    violations: List[str] = []
    holds_from = _check_strong_completeness(history, pattern, violations) or 0
    for pid in sorted(pattern.correct):
        samples = _samples(history, pid)
        if not samples:
            continue
        start = _stable_suffix_start(
            samples, lambda s: not (s & pattern.correct)
        )
        if start is None:
            violations.append(
                f"Eventual accuracy violated: process {pid} still suspects a "
                f"correct process in its final sample"
            )
        else:
            holds_from = max(holds_from, start)
    if violations:
        return SpecVerdict(False, None, violations)
    return SpecVerdict(True, holds_from)


def check_strong(history: HistoryLike, pattern: FailurePattern) -> SpecVerdict:
    """Check S: strong completeness plus *perpetual* weak accuracy —
    some correct process is suspected by nobody at any observed time."""
    refused = _suspect_lists(history, pattern)
    if refused is not None:
        return refused
    violations: List[str] = []
    holds_from = _check_strong_completeness(history, pattern, violations) or 0

    never_suspected = set(pattern.correct)
    for pid in pattern.processes:
        for _, suspects in _samples(history, pid):
            never_suspected -= suspects
            if not never_suspected:
                break
        if not never_suspected:
            break
    if not never_suspected:
        violations.append(
            "Weak accuracy violated: every correct process was suspected "
            "by someone at some time"
        )

    if violations:
        return SpecVerdict(False, None, violations)
    return SpecVerdict(True, holds_from)


def check_eventually_strong(
    history: HistoryLike, pattern: FailurePattern
) -> SpecVerdict:
    """Check ◇S: strong completeness and eventual *weak* accuracy
    (some correct process eventually suspected by no correct process)."""
    refused = _suspect_lists(history, pattern)
    if refused is not None:
        return refused
    violations: List[str] = []
    holds_from = _check_strong_completeness(history, pattern, violations) or 0

    protected_candidates = set(pattern.correct)
    starts: List[int] = []
    for pid in sorted(pattern.correct):
        samples = _samples(history, pid)
        if not samples:
            continue
        for candidate in list(protected_candidates):
            start = _stable_suffix_start(
                samples, lambda s, c=candidate: c not in s
            )
            if start is None:
                protected_candidates.discard(candidate)
    if not protected_candidates:
        violations.append(
            "Eventual weak accuracy violated: every correct process is "
            "suspected in some correct process's final samples"
        )
    else:
        # Stabilisation time of the surviving candidate(s).
        candidate = min(protected_candidates)
        for pid in sorted(pattern.correct):
            samples = _samples(history, pid)
            if not samples:
                continue
            start = _stable_suffix_start(
                samples, lambda s: candidate not in s
            )
            holds_from = max(holds_from, start or 0)

    if violations:
        return SpecVerdict(False, None, violations)
    return SpecVerdict(True, holds_from)


def _check_strong_completeness(
    history: HistoryLike, pattern: FailurePattern, violations: List[str]
) -> Optional[int]:
    if not pattern.faulty:
        return None
    holds_from = 0
    for pid in sorted(pattern.correct):
        samples = _samples(history, pid)
        if not samples:
            violations.append(f"correct process {pid} has no samples")
            continue
        start = _stable_suffix_start(
            samples, lambda s: pattern.faulty <= s
        )
        if start is None:
            violations.append(
                f"Completeness violated: process {pid} does not permanently "
                f"suspect all of {sorted(pattern.faulty)}"
            )
        else:
            holds_from = max(holds_from, start)
    return holds_from
