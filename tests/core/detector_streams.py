"""The oracle catalogue and stream digests behind ``tests/data/detector-streams.json``.

Not a test module.  ``test_history_segments.py`` imports the catalogue
and compares :func:`stream_digests` with the committed file; the file
itself was written by running this module against the commit *before*
histories became segments::

    PYTHONPATH=<parent checkout>/src python -m tests.core.detector_streams

so it pins the segment generators to the per-tick streams they replaced.
Only ``build_history`` and ``value`` are used, which both sides have.
Regenerate only for an intended change of an oracle's stream.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Callable, Dict

from repro.core.detector import BOTTOM, FailureDetector
from repro.core.detectors import (
    EventuallyPerfectOracle,
    EventuallyStrongOracle,
    FSOracle,
    MajoritySigmaOracle,
    OmegaOracle,
    PerfectOracle,
    ProductOracle,
    PsiOracle,
    SigmaOracle,
    StrongOracle,
    omega_sigma_oracle,
)
from repro.core.detectors.psi import FS_BRANCH, OMEGA_SIGMA_BRANCH
from repro.core.failure_pattern import FailurePattern

STREAMS_PATH = Path(__file__).resolve().parents[1] / "data" / "detector-streams.json"

SEED = 0
HORIZON = 2000
TICKS = 400

#: Both patterns keep a correct majority (majority-Σ) and crash someone
#: (Ψ's FS branch), early enough that every stabilisation, switch and
#: detection time falls inside the first :data:`TICKS` ticks.
PATTERNS: Dict[str, FailurePattern] = {
    "n4-p3@5": FailurePattern(4, {3: 5}),
    "n5-p1@40-p4@120": FailurePattern(5, {1: 40, 4: 120}),
}

#: Every oracle class, plus the knob settings the chaos harness turns.
ORACLES: Dict[str, Callable[[], FailureDetector]] = {
    "omega": OmegaOracle,
    "omega-benign": lambda: OmegaOracle(noisy=False),
    "omega-churn1-span0": lambda: OmegaOracle(churn_period=1, stabilization_span=0),
    "sigma": SigmaOracle,
    "sigma-benign": lambda: SigmaOracle(noisy=False),
    "sigma-reshuffle1-span900": lambda: SigmaOracle(
        reshuffle_period=1, stabilization_span=900
    ),
    "sigma-majority": MajoritySigmaOracle,
    "fs": FSOracle,
    "fs-steady": lambda: FSOracle(flicker=False),
    "perfect": PerfectOracle,
    "eventually-perfect": EventuallyPerfectOracle,
    "eventually-strong": EventuallyStrongOracle,
    "eventually-strong-benign": lambda: EventuallyStrongOracle(noisy=False),
    "strong": StrongOracle,
    "strong-benign": lambda: StrongOracle(noisy=False),
    "psi-fs": lambda: PsiOracle(branch=FS_BRANCH),
    "psi-omega-sigma": lambda: PsiOracle(branch=OMEGA_SIGMA_BRANCH),
    "psi-coin": PsiOracle,
    "omega-sigma": omega_sigma_oracle,
    "psi-fs-product": lambda: ProductOracle(PsiOracle(), FSOracle()),
}


def canonical(value: Any) -> Any:
    """A JSON-able stand-in for a detector value, stable across runs."""
    if value is BOTTOM:
        return "bottom"
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [canonical(part) for part in value]
    return value


def stream_digests() -> Dict[str, Dict[str, str]]:
    """``{pattern: {oracle: sha256 of H(p, t), p-major, t < TICKS}}``."""
    out: Dict[str, Dict[str, str]] = {}
    for pattern_name, pattern in PATTERNS.items():
        row = out[pattern_name] = {}
        for oracle_name, make in ORACLES.items():
            history = make().build_history(pattern, HORIZON, random.Random(SEED))
            stream = [
                [canonical(history.value(pid, t)) for t in range(TICKS)]
                for pid in range(pattern.n)
            ]
            row[oracle_name] = hashlib.sha256(
                json.dumps(stream, separators=(",", ":")).encode()
            ).hexdigest()
    return out


if __name__ == "__main__":
    STREAMS_PATH.write_text(json.dumps(stream_digests(), indent=2) + "\n")
    print(f"wrote {STREAMS_PATH}")
