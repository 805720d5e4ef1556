"""The failure signal detector FS.

Definition (Section 2): the range of FS is ``{green, red}``, and
``H ∈ FS(F)`` iff

* **Accuracy** (perpetual): red is only ever output after a failure has
  occurred: ``∀p ∀t : H(p, t) = red ⇒ F(t) ≠ ∅``;
* **Completeness** (eventual): if a failure occurs, every correct
  process eventually outputs red forever:
  ``faulty(F) ≠ ∅ ⇒ ∀p ∈ correct(F) ∃t ∀t' ≥ t : H(p, t') = red``.

If the pattern is crash-free, FS outputs green everywhere, forever.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.core.detector import GREEN, RED, FailureDetector
from repro.core.failure_pattern import FailurePattern
from repro.core.history import (
    FOREVER,
    FailureDetectorHistory,
    Segment,
    bucket_around,
)


class FSOracle(FailureDetector):
    """Samples histories of FS.

    Parameters
    ----------
    max_detection_delay:
        Upper bound on the sampled per-process delay between the first
        crash and that process's permanent switch to red.  The switch
        time is drawn uniformly from ``[t* , t* + max_detection_delay]``
        where ``t*`` is the first crash time.
    flicker:
        When true (default), processes may flicker red/green between the
        first crash and their permanent switch — admissible because
        Accuracy only forbids red *before* a failure.
    """

    name = "FS"

    def __init__(self, max_detection_delay: int = 50, flicker: bool = True):
        if max_detection_delay < 0:
            raise ValueError("max_detection_delay must be non-negative")
        self.max_detection_delay = max_detection_delay
        self.flicker = flicker

    def build_history(
        self,
        pattern: FailurePattern,
        horizon: int,
        rng: random.Random,
    ) -> FailureDetectorHistory:
        first_crash = pattern.first_crash_time()
        if first_crash is None:
            return FailureDetectorHistory(
                pattern.n, horizon, lambda pid, t: (0, FOREVER, GREEN)
            )

        switch: Dict[int, int] = {}
        for pid in pattern.processes:
            delay = rng.randint(0, self.max_detection_delay)
            switch[pid] = first_crash + delay
        noise_seed = rng.randrange(2**62)
        flicker = self.flicker

        def segment(pid: int, t: int) -> Segment:
            if t < first_crash:
                return (0, first_crash, GREEN)
            settled = switch[pid]
            if t >= settled:
                return (settled, FOREVER, RED)
            if not flicker:
                return (first_crash, settled, GREEN)
            start, end = bucket_around(t, 3, lo=first_crash, hi=settled)
            red = hash((noise_seed, pid, t // 3)) % 2 == 0
            return (start, end, RED if red else GREEN)

        return FailureDetectorHistory(pattern.n, horizon, segment)
