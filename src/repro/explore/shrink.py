"""Shrinking explorer violations down to readable witnesses.

A violation straight out of the DFS carries whatever the search
happened to walk through first: a choice at every tick, the full case
depth, any crash schedule the frontier pinned.  This module reuses the
chaos shrinker's greedy fixpoint loop
(:func:`repro.chaos.shrink.greedy_shrink`) over a different state shape
— ``(case, choices)`` — with edits tuned to choice traces:

* strip trailing zeros (free: beyond the recorded prefix the controller
  takes index 0 anyway, so the run is identical);
* lower the step budget toward the violation's actual final time;
* drop crashes, all at once and then one victim at a time;
* zero a choice position (collapse a subtree back to its default path);
* decrement a choice position (smaller menu index, same tree level).

Acceptance re-executes the candidate (controlled runs are deterministic
in ``(case, choices)``) and keeps it iff the required clauses
still break.  A candidate whose choices no longer fit its tree — a
shorter depth can remove choice points — simply fails acceptance via
the controller's replay-mismatch error.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Sequence, Tuple

from repro.chaos.shrink import greedy_shrink
from repro.explore.cases import ExploreCase
from repro.explore.engine import Violation

State = Tuple[ExploreCase, Tuple[int, ...]]


def _still_violates(state: State, required: Sequence[str], por: bool) -> bool:
    from repro.explore.artifact import judge

    case, choices = state
    try:
        verdict = judge(case, choices, por=por)
    except ValueError:
        return False  # replay mismatch: edit invalidated the trace
    return set(required) <= set(verdict["violated"])


def _candidates(state: State) -> Iterator[Tuple[str, State]]:
    case, choices = state

    stripped = len(choices)
    while stripped and choices[stripped - 1] == 0:
        stripped -= 1
    if stripped < len(choices):
        yield "strip-trailing-zeros", (case, choices[:stripped])

    if case.depth > 1:
        yield "halve-depth", (
            case.with_(depth=max(1, case.depth // 2)),
            choices,
        )
        yield "dec-depth", (case.with_(depth=case.depth - 1), choices)

    if case.crashes:
        yield "drop-all-crashes", (case.with_(crashes=()), choices)
        for i in range(len(case.crashes)):
            reduced = case.crashes[:i] + case.crashes[i + 1 :]
            yield f"drop-crash-{case.crashes[i][0]}", (
                case.with_(crashes=reduced),
                choices,
            )

    for i in range(len(choices)):
        if choices[i] != 0:
            yield f"zero-{i}", (case, choices[:i] + (0,) + choices[i + 1 :])
    for i in range(len(choices)):
        if choices[i] > 1:
            yield f"dec-{i}", (
                case,
                choices[:i] + (choices[i] - 1,) + choices[i + 1 :],
            )


def shrink_violation(
    violation: Violation,
    budget: int = 64,
) -> Tuple[ExploreCase, Tuple[int, ...], Dict[str, Any]]:
    """Greedy fixpoint shrink preserving the violation's clauses.

    Returns the shrunk case, the shrunk choice trace, and the shared
    shrinker's stats dict.  The input is assumed violating (the DFS just
    judged it) and is never re-checked.
    """
    (case, choices), stats = greedy_shrink(
        (violation.case, tuple(violation.choices)),
        _candidates,
        lambda state: _still_violates(
            state, violation.violated, violation.por
        ),
        budget,
    )
    return case, choices, stats
