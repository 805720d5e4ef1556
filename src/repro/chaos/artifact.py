"""Repro artifacts: a safety violation, frozen as replayable JSON.

When the fuzz loop catches a safety violation it writes one of these:
the shrunk :class:`~repro.chaos.targets.FuzzCase`, the clauses it
breaks, and the summary's stable digest.  The file is self-contained —
no pickles, no object references — so it survives refactors that would
invalidate the run cache, and a teammate (or CI) replays it with::

    python -m repro.chaos --replay artifact.json

Replay rebuilds the spec from the case, executes it in-process, and
checks two things: the recorded clauses still break (the bug is still
there) and the summary digest matches (the run is still byte-for-byte
deterministic).  A digest mismatch with the violation intact means the
simulation semantics drifted — worth knowing, reported separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence

from repro.chaos.knobs import ChaosKnobs
from repro.chaos.targets import FuzzCase, violated_safety

FORMAT = "repro-chaos-artifact/1"

#: The explorer freezes its violations in a sibling format
#: (:mod:`repro.explore.artifact`); the loader and :func:`replay`
#: accept both so one replay suite covers fuzzer and explorer
#: witnesses alike.
EXPLORE_FORMAT = "repro-explore-artifact/1"
_KNOWN_FORMATS = frozenset({FORMAT, EXPLORE_FORMAT})


def parse_format(value: Any) -> tuple:
    """``(family, version)`` out of a ``family/N`` format string.

    Returns ``(None, None)`` for anything that is not shaped like an
    artifact header at all — the caller distinguishes "not ours" from
    "ours, but a version this code does not read".
    """
    if not isinstance(value, str) or "/" not in value:
        return None, None
    family, _, version = value.rpartition("/")
    if not family:
        return None, None
    try:
        return family, int(version)
    except ValueError:
        return None, None


def check_format(
    path: Path,
    document: Dict[str, Any],
    known: frozenset,
    noun: str = "repro artifact",
) -> None:
    """Refuse anything but a known format, with the right diagnosis.

    A recognised family at an unsupported version gets a version error
    (the file is real but written by other code — don't guess at its
    fields); everything else is simply not an artifact.
    """
    value = document.get("format") if isinstance(document, dict) else None
    if value in known:
        return
    family, version = parse_format(value)
    supported = {parse_format(f)[0]: parse_format(f)[1] for f in known}
    if family in supported:
        raise ValueError(
            f"{path}: {family} version {version} is not supported; this "
            f"code reads version {supported[family]}.  Re-generate the "
            f"artifact with the current tree (or replay it with the tree "
            f"that wrote it)."
        )
    raise ValueError(
        f"{path} is not a{'n' if noun[0] in 'aeiou' else ''} {noun} "
        f"(format {value!r}, want one of {sorted(known)})"
    )


def case_to_dict(case: FuzzCase) -> Dict[str, Any]:
    return {
        "target": case.target,
        "n": case.n,
        "seed": case.seed,
        "horizon": case.horizon,
        "knobs": case.knobs.to_dict(),
        "crashes": [[pid, t] for pid, t in case.crashes],
    }


def case_from_dict(data: Dict[str, Any]) -> FuzzCase:
    return FuzzCase(
        target=data["target"],
        n=int(data["n"]),
        seed=int(data["seed"]),
        horizon=int(data["horizon"]),
        knobs=ChaosKnobs.from_dict(data["knobs"]),
        crashes=tuple(
            (int(pid), int(t)) for pid, t in sorted(data["crashes"])
        ),
    )


def write_artifact(
    path: Path,
    case: FuzzCase,
    violated: Sequence[str],
    summary: Any,
    shrink_stats: Dict[str, Any] | None = None,
) -> Dict[str, Any]:
    """Serialise a violation witness; returns the written document."""
    document = {
        "format": FORMAT,
        "case": case_to_dict(case),
        "violated": sorted(violated),
        "expected": {
            "stable_digest": summary.stable_digest(),
            "outcomes": summary.metrics.get("outcomes", []),
        },
        "shrink": shrink_stats or {},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def load_artifact(path: Path) -> Dict[str, Any]:
    """Load any repro violation artifact (chaos or explore format)."""
    document = json.loads(Path(path).read_text())
    check_format(Path(path), document, _KNOWN_FORMATS)
    return document


@dataclass(frozen=True)
class ReplayResult:
    """What replaying an artifact established."""

    reproduced: bool  # the recorded clauses still break
    deterministic: bool  # the summary digest matches the recording
    violated_now: List[str]
    digest: str

    @property
    def ok(self) -> bool:
        return self.reproduced and self.deterministic


def replay(document: Dict[str, Any]) -> ReplayResult:
    """Re-execute an artifact's case and compare against the recording.

    Dispatches on the document's ``format``: chaos artifacts replay the
    seeded fuzz case, explore artifacts replay the recorded choice
    trace (lazy import — the explorer depends on this module, not the
    other way around).
    """
    if document.get("format") == EXPLORE_FORMAT:
        from repro.explore.artifact import replay as replay_explore

        return replay_explore(document)

    from repro.chaos.shrink import run_case

    case = case_from_dict(document["case"])
    summary = run_case(case)
    violated_now = sorted(violated_safety(case, summary.metrics))
    digest = summary.stable_digest()
    return ReplayResult(
        reproduced=set(document["violated"]) <= set(violated_now),
        deterministic=digest == document["expected"]["stable_digest"],
        violated_now=violated_now,
        digest=digest,
    )
