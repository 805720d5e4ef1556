"""Worker-side summarize hooks shared by the experiment campaigns.

Every experiment routes its runs through :mod:`repro.runner`, and the
property checking happens *inside the worker* — while the full
:class:`~repro.sim.system.System` and trace are still in scope — via a
``summarize`` hook.  The hook's return dict must be picklable and
seed-stable; it lands in ``RunSummary.metrics`` and is all the parent
process sees of the run beyond the standard counters.

The makers here are module-level (importable) so specs can reference
them with :func:`repro.runner.call`; the hooks they *return* are
closures, which is fine — resolution happens worker-side.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

from repro.analysis.properties import check_consensus, check_nbac, check_qc
from repro.core.specs import (
    check_fs,
    check_omega,
    check_perfect,
    check_psi,
    check_sigma,
    fs_safety,
    perfect_safety,
)
from repro.sim.probes import OutputRecorder

_AGREEMENT_CHECKERS = {
    "consensus": check_consensus,
    "qc": check_qc,
    "nbac": check_nbac,
}

_SPEC_CHECKERS = {
    "sigma": check_sigma,
    "omega": check_omega,
    "fs": check_fs,
    "perfect": check_perfect,
    "psi": check_psi,
}

#: The detectors whose accuracy clause is perpetual, with that clause.
_SAFETY_CLAUSES = {
    "fs": fs_safety,
    "perfect": perfect_safety,
}


def agreement_summary(kind: str, component: str, inputs: Iterable[Tuple[int, Any]]):
    """Hook maker: check one agreement problem and report its clauses.

    ``kind`` picks the checker (consensus / qc / nbac); ``inputs`` are
    the per-pid proposals or votes as ``(pid, value)`` pairs (a spec
    cannot hold a bare dict of unhashable values, and pairs fingerprint
    canonically).
    """
    checker = _AGREEMENT_CHECKERS[kind]
    inputs = dict(inputs)

    def hook(system, trace) -> Dict[str, Any]:
        verdict = checker(trace, inputs, component)
        outcomes = sorted(
            {repr(d.value) for d in trace.decisions if d.component == component}
        )
        return {
            "ok": verdict.ok,
            "termination": verdict.termination,
            "agreement": verdict.agreement,
            "validity": verdict.validity,
            "outcomes": outcomes,
        }

    return hook


def annotation_check(checker: str, key: str):
    """Hook maker: run a detector spec checker on a trace annotation.

    The annotation at ``key`` must be the emitted history object the
    extraction/heartbeat components publish; the verdict's clause data
    comes back as plain fields.
    """
    check = _SPEC_CHECKERS[checker]

    def hook(system, trace) -> Dict[str, Any]:
        verdict = check(trace.annotations[key], trace.pattern)
        return {
            "ok": verdict.ok,
            "holds_from": verdict.holds_from,
            "violations": list(verdict.violations),
        }

    return hook


def safety_broken(checker: str, key: str):
    """Stop-predicate maker: the history at annotation ``key`` has left
    ``checker``'s prefix-closed safety clause.

    Once a prefix fails that clause no extension passes it, so
    ``annotation_check`` at that tick already reads the verdict the
    full horizon would.  The clause is re-judged only on the ticks
    after the history changed (its ``revision`` moved); any other tick
    costs a lookup and a comparison.  Only ``"fs"`` and ``"perfect"``
    are accepted: Ω, for one, has no perpetual clause.
    """
    try:
        clause = _SAFETY_CLAUSES[checker]
    except KeyError:
        raise ValueError(
            f"{checker!r} has no perpetual safety clause to stop on "
            f"(one of {sorted(_SAFETY_CLAUSES)})"
        ) from None
    judged = -1

    def predicate(system) -> bool:
        nonlocal judged
        history = system.trace.annotations.get(key)
        if history is None or history.revision == judged:
            return False
        judged = history.revision
        return not clause(history, system.pattern).ok

    return predicate


def probe_factory(component: str, key: str):
    """Component-factory maker for the standard output probe."""
    return lambda pid: OutputRecorder(component, key)
