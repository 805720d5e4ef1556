"""The strong detector S — perpetual weak accuracy.

S (Chandra–Toueg [4]) outputs suspicion sets subject to:

* **Strong completeness** — eventually every faulty process is
  permanently suspected by every correct process;
* **(Perpetual) weak accuracy** — some correct process is *never*
  suspected by anyone, from time 0.

The perpetual clause is what ◇S relaxes.  Its payoff: with S,
consensus is solvable with *any* number of crashes — like the paper's
(Ω, Σ) — but S is far more than the weakest detector for the job (it
cannot be implemented under asynchrony even with a correct majority,
whereas (Ω, Σ)'s components can).  Experiment E3's table shows both
surviving f = n - 1 while the eventual-only baselines stop at the
majority line.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.detector import FailureDetector
from repro.core.failure_pattern import FailurePattern
from repro.core.history import (
    FailureDetectorHistory,
    Segment,
    bucket_around,
    interval_around,
)


class StrongOracle(FailureDetector):
    """Samples histories of S.

    One correct process is protected from time 0 at every module;
    everything else enjoys the definition's full slack — arbitrary
    (even flickering) wrong suspicions of other correct processes,
    bounded detection delays for crashed ones.
    """

    name = "S"

    def __init__(self, protect: int | None = None, noisy: bool = True):
        self.protect = protect
        self.noisy = noisy

    def build_history(
        self,
        pattern: FailurePattern,
        horizon: int,
        rng: random.Random,
    ) -> FailureDetectorHistory:
        if not pattern.correct:
            raise ValueError("S requires at least one correct process")
        if self.protect is not None:
            if self.protect not in pattern.correct:
                raise ValueError(
                    f"protected process {self.protect} is not correct"
                )
            protected = self.protect
        else:
            protected = min(pattern.correct)

        detect: Dict[tuple, int] = {}
        for observer in pattern.processes:
            for victim, crash_t in pattern.crash_times.items():
                detect[(observer, victim)] = crash_t + rng.randint(0, 40)
        noise_seed = rng.randrange(2**62)
        # The crashed part of ``pid``'s output changes only when it
        # detects a victim.
        cuts: Dict[int, List[int]] = {
            pid: sorted({detect[(pid, victim)] for victim in pattern.faulty})
            for pid in pattern.processes
        }
        # Read once: a history handed out must not follow later edits of
        # the oracle that sampled it.
        noisy = self.noisy

        def segment(pid: int, t: int) -> Segment:
            start, end = interval_around(cuts[pid], t)
            suspects = {
                victim
                for victim in pattern.faulty
                if t >= detect[(pid, victim)]
            }
            if noisy:
                mix = random.Random(hash((noise_seed, pid, t // 5)))
                start, end = bucket_around(t, 5, lo=start, hi=end)
                for q in pattern.correct:
                    if q not in (pid, protected) and mix.random() < 0.2:
                        suspects.add(q)
            suspects.discard(protected)
            suspects.discard(pid)
            return (start, end, frozenset(suspects))

        return FailureDetectorHistory(pattern.n, horizon, segment)
