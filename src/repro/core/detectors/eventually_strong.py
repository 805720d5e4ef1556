"""The eventually strong detector ◇S — the classical consensus detector.

Chandra–Toueg [4] solve consensus with ◇S and a correct majority, and
[3] proves Ω ≅ ◇S is the weakest for that setting; the paper reproduced
here generalises exactly that result to every environment (Corollary
4).  ◇S outputs suspicion sets subject to:

* **Strong completeness** — eventually every faulty process is
  permanently suspected by every correct process;
* **Eventual weak accuracy** — eventually *some* correct process is
  never suspected by any correct process.

Weaker than ◇P (which protects every correct process); exactly strong
enough to elect a leader (the unsuspected correct process).
"""

from __future__ import annotations

import random
from typing import Dict

from repro.core.detector import FailureDetector, sample_stabilization_time
from repro.core.failure_pattern import FailurePattern
from repro.core.history import (
    FOREVER,
    FailureDetectorHistory,
    Segment,
    bucket_around,
)


class EventuallyStrongOracle(FailureDetector):
    """Samples histories of ◇S.

    After stabilization each process suspects the faulty processes and,
    adversarially, may keep *wrongly* suspecting correct processes —
    all except one sampled "protected" correct process, exercising the
    full slack weak accuracy leaves.
    """

    name = "<>S"

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
            raise ValueError("<>S requires at least one correct process")
        if self.protect is not None:
            if self.protect not in pattern.correct:
                raise ValueError(
                    f"protected process {self.protect} is not correct"
                )
            protected = self.protect
        else:
            protected = min(pattern.correct)

        stab: Dict[int, int] = {
            pid: sample_stabilization_time(rng, pattern, horizon)
            for pid in pattern.processes
        }
        noise_seed = rng.randrange(2**62)
        others = [p for p in pattern.processes if p != protected]
        # Read once: a history handed out must not follow later edits of
        # the oracle that sampled it.
        noisy = self.noisy

        def segment(pid: int, t: int) -> Segment:
            settled = stab[pid]
            if t >= settled:
                start, end = settled, FOREVER
                suspects = set(pattern.faulty)
                if noisy:
                    # Weak accuracy permits persistent wrong suspicion
                    # of unprotected correct processes.
                    mix = random.Random(hash((noise_seed, pid, t // 6)))
                    start, end = bucket_around(t, 6, lo=settled)
                    for q in others:
                        if q != pid and q in pattern.correct and mix.random() < 0.3:
                            suspects.add(q)
                suspects.discard(protected)
                suspects.discard(pid)
                return (start, end, frozenset(suspects))
            mix = random.Random(hash((noise_seed, pid, t // 4)))
            k = mix.randint(0, pattern.n - 1)
            start, end = bucket_around(t, 4, hi=settled)
            return (start, end, frozenset(mix.sample(range(pattern.n), k)))

        return FailureDetectorHistory(pattern.n, horizon, segment)
