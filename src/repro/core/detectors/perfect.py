"""Classical baseline detectors: P (perfect) and ◇P (eventually perfect).

These are not part of the paper's contributions but are the standard
points of comparison from Chandra–Toueg [4]; the experiment suite uses
them to position Σ/Ω/FS/Ψ in the detector hierarchy (e.g. P can
implement every detector in this library, and ◇P can implement Ω).

Both output a set of *suspected* processes:

* **P** — strong completeness (eventually every faulty process is
  permanently suspected by every correct process) and strong accuracy
  (no process is suspected before it crashes);
* **◇P** — strong completeness and *eventual* strong accuracy (there is
  a time after which correct processes are not suspected).
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.detector import FailureDetector, sample_stabilization_time
from repro.core.failure_pattern import FailurePattern
from repro.core.history import (
    FailureDetectorHistory,
    Segment,
    bucket_around,
    interval_around,
)


class PerfectOracle(FailureDetector):
    """Samples histories of the perfect detector P.

    Each process suspects a crashed process after a per-pair sampled
    detection delay, and never suspects a live one.
    """

    name = "P"

    def __init__(self, max_detection_delay: int = 50):
        if max_detection_delay < 0:
            raise ValueError("max_detection_delay must be non-negative")
        self.max_detection_delay = max_detection_delay

    def build_history(
        self,
        pattern: FailurePattern,
        horizon: int,
        rng: random.Random,
    ) -> FailureDetectorHistory:
        detect: Dict[tuple[int, int], int] = {}
        for observer in pattern.processes:
            for victim, crash_t in pattern.crash_times.items():
                detect[(observer, victim)] = crash_t + rng.randint(
                    0, self.max_detection_delay
                )

        # The output of ``pid`` changes only when it detects a victim.
        cuts: Dict[int, List[int]] = {
            pid: sorted({detect[(pid, victim)] for victim in pattern.faulty})
            for pid in pattern.processes
        }

        def segment(pid: int, t: int) -> Segment:
            start, end = interval_around(cuts[pid], t)
            suspects = frozenset(
                victim
                for victim in pattern.faulty
                if t >= detect[(pid, victim)]
            )
            return (start, end, suspects)

        return FailureDetectorHistory(pattern.n, horizon, segment)


class EventuallyPerfectOracle(FailureDetector):
    """Samples histories of ◇P.

    Before a sampled stabilization time, suspicions are noisy (live
    processes may be wrongly suspected); afterwards the output equals
    the set of processes that have actually crashed, with perfect-
    detector behaviour from then on.
    """

    name = "<>P"

    def __init__(self, max_detection_delay: int = 50):
        if max_detection_delay < 0:
            raise ValueError("max_detection_delay must be non-negative")
        self.max_detection_delay = max_detection_delay

    def build_history(
        self,
        pattern: FailurePattern,
        horizon: int,
        rng: random.Random,
    ) -> FailureDetectorHistory:
        stab: Dict[int, int] = {
            pid: sample_stabilization_time(rng, pattern, horizon)
            for pid in pattern.processes
        }
        noise_seed = rng.randrange(2**62)

        crash_cuts = sorted(set(pattern.crash_times.values()))

        def segment(pid: int, t: int) -> Segment:
            settled = stab[pid]
            if t >= settled:
                start, end = interval_around(crash_cuts, t)
                return (max(start, settled), end, pattern.crashed_at(t))
            mix = random.Random(hash((noise_seed, pid, t // 4)))
            k = mix.randint(0, pattern.n - 1)
            start, end = bucket_around(t, 4, hi=settled)
            return (start, end, frozenset(mix.sample(range(pattern.n), k)))

        return FailureDetectorHistory(pattern.n, horizon, segment)
