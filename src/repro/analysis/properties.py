"""Problem-level property checkers.

Transcribes the specifications of consensus (§4.1), quittable consensus
(§5) and non-blocking atomic commit (§7.1) into predicates over
recorded run traces.  Each checker returns a :class:`ProblemVerdict`
splitting the verdict into the specification's named clauses, so a test
failure says *which* property broke, not just "wrong".

Termination is finitised as usual: on a bounded run it means "every
correct process decided within the horizon".  A run whose scheduler or
delivery policy is intentionally unfair loses its claim to Termination
but never to the safety clauses: the checkers report every clause, and
the caller decides whether Termination was promised (the chaos fuzzer
asks :attr:`~repro.chaos.knobs.ChaosKnobs.fair`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from repro.qc.spec import Q
from repro.sim.trace import RunTrace


@dataclass
class ProblemVerdict:
    """Per-clause verdict for one agreement problem on one run."""

    ok: bool
    termination: bool
    agreement: bool
    validity: bool
    violations: List[str] = field(default_factory=list)
    decisions: Dict[int, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def _gather(trace: RunTrace, component: str) -> Dict[int, Any]:
    return {
        d.pid: d.value for d in trace.decisions if d.component == component
    }


def _decision_times(trace: RunTrace, component: str) -> Dict[int, int]:
    return {d.pid: d.time for d in trace.decisions if d.component == component}


def _check_termination(
    trace: RunTrace, decisions: Mapping[int, Any], violations: List[str]
) -> bool:
    missing = sorted(trace.pattern.correct - set(decisions))
    if missing:
        violations.append(
            f"Termination violated: correct processes {missing} never decided "
            f"(horizon {trace.horizon}, stop: {trace.stop_reason})"
        )
        return False
    return True


def _check_agreement(decisions: Mapping[int, Any], violations: List[str]) -> bool:
    values = {repr(v) for v in decisions.values()}
    if len(values) > 1:
        violations.append(
            f"Uniform Agreement violated: decisions {dict(decisions)}"
        )
        return False
    return True


# ----------------------------------------------------------------------
# Consensus (§4.1)
# ----------------------------------------------------------------------
def check_consensus(
    trace: RunTrace,
    proposals: Mapping[int, Any],
    component: str = "consensus",
) -> ProblemVerdict:
    """Termination + Uniform Agreement + Validity (decided value was
    proposed by some process)."""
    violations: List[str] = []
    decisions = _gather(trace, component)

    termination = _check_termination(trace, decisions, violations)
    agreement = _check_agreement(decisions, violations)

    validity = True
    proposed = set(map(repr, proposals.values()))
    for pid, value in sorted(decisions.items()):
        if repr(value) not in proposed:
            validity = False
            violations.append(
                f"Validity violated: process {pid} decided {value!r}, "
                f"which no process proposed"
            )

    ok = termination and agreement and validity
    return ProblemVerdict(ok, termination, agreement, validity, violations, decisions)


# ----------------------------------------------------------------------
# Quittable consensus (§5)
# ----------------------------------------------------------------------
def check_qc(
    trace: RunTrace,
    proposals: Mapping[int, Any],
    component: str = "qc",
) -> ProblemVerdict:
    """QC validity: a 0/1-type decision must have been proposed; a Q
    decision requires a failure to have previously occurred."""
    violations: List[str] = []
    decisions = _gather(trace, component)
    times = _decision_times(trace, component)

    termination = _check_termination(trace, decisions, violations)
    agreement = _check_agreement(decisions, violations)

    validity = True
    proposed = set(map(repr, proposals.values()))
    first_crash = trace.pattern.first_crash_time()
    for pid, value in sorted(decisions.items()):
        if value is Q:
            if first_crash is None or times[pid] < first_crash:
                validity = False
                violations.append(
                    f"Validity violated: process {pid} decided Q at time "
                    f"{times[pid]} but no failure had occurred"
                )
        elif repr(value) not in proposed:
            validity = False
            violations.append(
                f"Validity violated: process {pid} decided {value!r}, "
                f"which no process proposed"
            )

    ok = termination and agreement and validity
    return ProblemVerdict(ok, termination, agreement, validity, violations, decisions)


# ----------------------------------------------------------------------
# Non-blocking atomic commit (§7.1)
# ----------------------------------------------------------------------
COMMIT = "Commit"
ABORT = "Abort"


def check_nbac(
    trace: RunTrace,
    votes: Mapping[int, str],
    component: str = "nbac",
) -> ProblemVerdict:
    """NBAC validity: Commit requires all-Yes votes; Abort requires a No
    vote or a prior failure."""
    violations: List[str] = []
    decisions = _gather(trace, component)
    times = _decision_times(trace, component)

    termination = _check_termination(trace, decisions, violations)
    agreement = _check_agreement(decisions, violations)

    validity = True
    all_yes = all(v == "Yes" for v in votes.values())
    some_no = any(v == "No" for v in votes.values())
    first_crash = trace.pattern.first_crash_time()
    for pid, value in sorted(decisions.items()):
        if value == COMMIT:
            if not all_yes:
                validity = False
                violations.append(
                    f"Validity violated: process {pid} decided Commit but "
                    f"votes were {dict(votes)}"
                )
        elif value == ABORT:
            failed_before = first_crash is not None and first_crash <= times[pid]
            if not some_no and not failed_before:
                validity = False
                violations.append(
                    f"Validity violated: process {pid} decided Abort at time "
                    f"{times[pid]} with all-Yes votes and no prior failure"
                )
        else:
            validity = False
            violations.append(
                f"Validity violated: process {pid} returned {value!r}, "
                f"not Commit/Abort"
            )

    ok = termination and agreement and validity
    return ProblemVerdict(ok, termination, agreement, validity, violations, decisions)
