"""The frontier: root enumeration and the summary dicts of its walk.

A single :func:`~repro.explore.engine.explore_case` call exhausts one
subtree — one target, one constant detector assignment, one crash
schedule.  The frontier is the cartesian family of such roots
(:func:`enumerate_roots`): the detector assignments from
:mod:`repro.explore.assignments`, crossed with a small crash-schedule
family, crossed with the seeds that vary the target's inputs (NBAC's
vote vectors).  Together the roots cover every source of
nondeterminism the sim exposes: scheduling and delivery are enumerated
*inside* each subtree by the controller, detector values and crash
points *across* subtrees by the frontier.

The roots are walked by :func:`repro.explore.frontierd.run_frontier`,
the leased work queue.  Every shard it walks returns the summary dict
of :func:`result_to_dict` (its inverse :func:`result_from_summary`),
and :func:`merge_summaries` folds a root's shards into one.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.explore.assignments import (
    assignment_requires_crash,
    assignments_for,
    switch_scripts_for,
)
from repro.explore.cases import (
    ExploreCase,
    ExploreOptions,
    case_from_dict,
    case_to_dict,
)
from repro.explore.engine import ExploreResult, Violation
from repro.sim.perf import PerfCounters

#: Pinned per-target smoke depths: deep enough that every mutant's
#: violation is reachable and shallow enough that the paired clean
#: target exhausts in seconds.  Mutant/clean pairs share a depth
#: (submajority↔paxos, eagerquit↔qc, hastycommit↔nbac) so "the mutant
#: fires where the clean target is silent" is an apples-to-apples
#: statement; the regression tests pin these numbers.
SMOKE_DEPTHS: Dict[str, int] = {
    "paxos": 10,
    "submajority": 10,
    "ct": 10,
    "qc": 10,
    "eagerquit": 10,
    "nbac": 6,
    "hastycommit": 6,
    "redcommit": 6,
    "register": 7,
}

#: Pinned smoke depths at n=3 — the size the hot-path overhaul makes
#: tractable.  Only the symmetry-safe NBAC pair is registered: the
#: mutant/clean pairing mirrors the n=2 table (hastycommit's premature
#: COMMIT fires at this depth while clean nbac exhausts violation-free
#: within the CI explore-smoke budget), and the regression tests pin
#: both halves.
SMOKE_DEPTHS_N3: Dict[str, int] = {
    "nbac": 6,
    "hastycommit": 6,
}

#: Seeds worth enumerating per target (the seed only feeds the target
#: builder).  NBAC's vote vector is seed-derived: even seeds vote
#: all-Yes, odd seeds carry one No — both matter, for the clean target
#: (both outcomes verified) and for hastycommit (the bug needs a No).
#: Consensus proposals follow the same convention since they went
#: pid-free (even = uniform, odd = pid 0 distinct); those targets pin
#: seed 1 so the explored roots keep *distinct* proposals — the only
#: shape on which an agreement mutant like submajority can fire at all.
DEFAULT_SEEDS: Dict[str, Tuple[int, ...]] = {
    "paxos": (1,),
    "ct": (1,),
    "qc": (1,),
    "submajority": (1,),
    "eagerquit": (1,),
    "nbac": (0, 1),
    "hastycommit": (0, 1),
    "redcommit": (1,),
}

#: Mutants whose bug hides behind a detector transition: undetectable
#: under constant assignments (they exhaust clean — the tests assert
#: it), so the CLI auto-enables ``--detector-switches`` and at least
#: one crash for them.
SWITCH_MUTANTS = frozenset({"redcommit"})


def crash_schedules(
    n: int, depth: int, max_crashes: int
) -> List[Tuple[Tuple[int, int], ...]]:
    """The crash-schedule family: boundary times, every victim.

    Times come from the window edges — ``1`` (crashed before its first
    step) and mid-window — because a crash commutes with every step it
    is not adjacent to; intermediate times add schedules the
    in-subtree interleaving enumeration already distinguishes better.
    At least one process always survives.
    """
    schedules: List[Tuple[Tuple[int, int], ...]] = [()]
    if max_crashes < 1:
        return schedules
    times = sorted({1, max(2, depth // 2)})
    for pid in range(n):
        for t in times:
            schedules.append(((pid, t),))
    if max_crashes >= 2:
        early = times[0]
        if n >= 3:  # keep at least one process alive
            for a in range(n):
                for b in range(a + 1, n):
                    schedules.append(((a, early), (b, early)))
    return schedules


def enumerate_roots(
    target: str,
    n: int,
    depth: Optional[int] = None,
    max_crashes: int = 0,
    seeds: Optional[Sequence[int]] = None,
    detector_switches: bool = False,
) -> List[ExploreCase]:
    """Every exploration root for one target at one size.

    With ``detector_switches`` the assignment family is extended by the
    target's history scripts (:func:`switch_scripts_for`) — the third
    choice dimension.  Scripts whose stages claim a failure (an FS
    ``red``, a Ψ FS-branch commitment) are only paired with schedules
    that actually crash someone; on a crash-free schedule no admissible
    switch time exists, so the root would be the constant-prefix subtree
    explored twice.

    ``n < 1`` is a ``ValueError``: a system with no process has no
    root, and an empty frontier would exhaust as a clean verdict.
    """
    if n < 1:
        raise ValueError(f"n={n}: a system needs 1 or more processes")
    if depth is None:
        depth = SMOKE_DEPTHS.get(target, 8)
    if seeds is None:
        seeds = DEFAULT_SEEDS.get(target, (0,))
    assignments = list(assignments_for(target, n))
    if detector_switches:
        assignments.extend(switch_scripts_for(target, n))
    roots = []
    for seed in seeds:
        for assignment in assignments:
            needs_crash = assignment_requires_crash(assignment)
            for crashes in crash_schedules(n, depth, max_crashes):
                if len(crashes) >= n:
                    continue
                if needs_crash and not crashes:
                    continue
                roots.append(
                    ExploreCase(
                        target=target,
                        n=n,
                        depth=depth,
                        seed=seed,
                        crashes=crashes,
                        assignment=assignment,
                    )
                )
    return roots


def result_to_dict(result: ExploreResult) -> Dict[str, Any]:
    """A picklable, JSON-able summary of one explored subtree."""
    return {
        "case": case_to_dict(result.case),
        "options": asdict(result.options),
        "complete": result.complete,
        "symmetry": result.symmetry,
        "stats": result.stats(),
        "counters": result.counters.as_dict(),
        "decision_vectors": sorted(
            [list(entry) for entry in vector]
            for vector in result.decision_vectors
        ),
        "violations": [
            {
                "choices": list(v.choices),
                "violated": list(v.violated),
                "decisions": [list(entry) for entry in v.decisions],
                "final_time": v.final_time,
            }
            for v in result.violations
        ],
        "incidents": list(result.incidents),
    }


def result_from_summary(summary: Dict[str, Any]) -> ExploreResult:
    """The inverse of :func:`result_to_dict` (violation metrics aside)."""
    case = case_from_dict(summary["case"])
    options = ExploreOptions(**summary["options"])
    counters = PerfCounters()
    counters.merge(summary.get("counters", {}))
    stats = summary["stats"]
    return ExploreResult(
        case=case,
        options=options,
        runs=stats["runs"],
        states=stats["states"],
        dedup_hits=stats["dedup_hits"],
        por_pruned=stats["por_pruned"],
        complete=summary["complete"],
        violations=[
            Violation(
                case=case,
                choices=tuple(raw["choices"]),
                violated=tuple(raw["violated"]),
                metrics={},
                decisions=tuple(tuple(d) for d in raw["decisions"]),
                final_time=raw["final_time"],
                por=options.por,
            )
            for raw in summary["violations"]
        ],
        decision_vectors={
            tuple(tuple(entry) for entry in vector)
            for vector in summary["decision_vectors"]
        },
        counters=counters,
        incidents=list(summary.get("incidents", [])),
    )


def merge_summaries(
    base: Dict[str, Any], shard_summaries: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Fold the summaries of a root's shards into ``base``.

    Stats are summed, decision vectors unioned, violations and
    incidents concatenated, ``complete`` AND-ed.  ``states`` counts
    newly recorded states only, so with the shared visited set the sum
    measures distinct coverage; parallel shards may still both meet a
    state neither has published — redundancy, never a soundness issue.
    """
    merged = dict(base)
    merged["stats"] = dict(base["stats"])
    counters = PerfCounters()
    counters.merge(base.get("counters", {}))
    vectors = {tuple(tuple(entry) for entry in v) for v in base["decision_vectors"]}
    violations = list(base["violations"])
    incidents = list(base.get("incidents", []))
    complete = base["complete"]
    for summary in shard_summaries:
        for key, value in summary["stats"].items():
            merged["stats"][key] = merged["stats"].get(key, 0) + value
        counters.merge(summary.get("counters", {}))
        vectors.update(
            tuple(tuple(entry) for entry in v)
            for v in summary["decision_vectors"]
        )
        violations.extend(summary["violations"])
        incidents.extend(summary.get("incidents", []))
        complete = complete and summary["complete"]
    counters.explore_shards += len(shard_summaries)
    merged["stats"]["shards"] = counters.explore_shards
    merged["stats"]["violations"] = len(violations)
    merged["stats"]["decision_vectors"] = len(vectors)
    merged["counters"] = counters.as_dict()
    merged["decision_vectors"] = sorted([list(e) for e in v] for v in vectors)
    merged["violations"] = violations
    merged["incidents"] = incidents
    merged["complete"] = complete
    return merged
