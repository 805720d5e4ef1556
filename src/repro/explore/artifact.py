"""Explore artifacts: a violating schedule, frozen as replayable JSON.

The chaos artifact freezes a *case plus RNG seed*; the explorer's
witness is stronger — a case plus the exact **choice list** that walks
the simulator into the violation, no randomness left anywhere.  The
document mirrors the chaos format closely enough that the chaos loader
(:func:`repro.chaos.artifact.load_artifact`) accepts both and replay
dispatches on the ``format`` field, so one ``tests/data`` replay suite
covers fuzzer and explorer witnesses alike.

Replay re-executes the controlled run (:func:`~repro.explore.cases
.run_controlled` with the recorded choices as the full replay prefix),
re-judges it with the target's summarize hook, and checks the recorded
clauses still break *and* the trace digest still matches — the same
"bug still there / still deterministic" split the chaos replayer
reports.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.explore.cases import (
    ExploreCase,
    case_from_dict,
    case_to_dict,
    resolve_parts,
    run_controlled,
)

EXPLORE_FORMAT = "repro-explore-artifact/1"


def judge(
    case: ExploreCase,
    choices: Sequence[int],
    por: bool = True,
) -> Dict[str, Any]:
    """Execute one choice path and return its verdict record.

    ``por`` must match the setting the choices were recorded under —
    the POR filter shapes the menus the indices point into.
    """
    parts = resolve_parts(case)
    system, controller = run_controlled(
        case, tuple(choices), parts=parts, por=por
    )
    trace = system.trace
    metrics = parts.summarize(system, trace)
    violated = sorted(
        clause
        for clause in parts.safety_clauses
        if not metrics.get(clause, True)
    )
    return {
        "violated": violated,
        "metrics": dict(metrics),
        "digest": trace.digest(),
        "decisions": sorted(
            [d.pid, d.component, repr(d.value)] for d in trace.decisions
        ),
        "final_time": trace.final_time,
        "choices_taken": [point.chosen for point in controller.log],
    }


def build_document(
    case: ExploreCase,
    choices: Sequence[int],
    violated: Sequence[str],
    por: bool = True,
    shrink_stats: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One violating schedule as its artifact document (not yet on disk).

    The expected digest/decisions are recomputed by replaying here, so
    the artifact always records what the committed code actually does.
    """
    verdict = judge(case, choices, por=por)
    missing = set(violated) - set(verdict["violated"])
    if missing:
        raise ValueError(
            f"artifact would not reproduce clauses {sorted(missing)}; "
            f"replay violated {verdict['violated']}"
        )
    return {
        "format": EXPLORE_FORMAT,
        "case": case_to_dict(case),
        "por": por,
        "choices": list(choices),
        "violated": sorted(violated),
        "expected": {
            "trace_digest": verdict["digest"],
            "decisions": verdict["decisions"],
            "final_time": verdict["final_time"],
        },
        "shrink": shrink_stats or {},
    }


def write_artifact(
    path: Path,
    case: ExploreCase,
    choices: Sequence[int],
    violated: Sequence[str],
    por: bool = True,
    shrink_stats: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Serialise one violating schedule; returns the written document."""
    document = build_document(
        case, choices, violated, por=por, shrink_stats=shrink_stats
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def load_artifact(path: Path) -> Dict[str, Any]:
    """Load one explore artifact; wrong versions refused with a diagnosis."""
    from repro.chaos.artifact import check_format

    document = json.loads(Path(path).read_text())
    check_format(
        Path(path), document, frozenset({EXPLORE_FORMAT}),
        noun="explore artifact",
    )
    return document


def replay(document: Dict[str, Any]) -> "ReplayResult":
    """Re-execute an explore artifact and compare with the recording.

    Older documents also carry an ``"engine"`` key (which network the
    search ran on); both networks are trace-identical, so it is not
    read.
    """
    from repro.chaos.artifact import ReplayResult

    case = case_from_dict(document["case"])
    verdict = judge(case, document["choices"], por=document.get("por", True))
    return ReplayResult(
        reproduced=set(document["violated"]) <= set(verdict["violated"]),
        deterministic=verdict["digest"]
        == document["expected"]["trace_digest"],
        violated_now=verdict["violated"],
        digest=verdict["digest"],
    )
