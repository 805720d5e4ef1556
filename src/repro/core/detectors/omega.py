"""The leader failure detector Ω.

Definition (Section 2): the range of Ω is Pi, and ``H ∈ Ω(F)`` iff there
is a correct process ``p`` such that every correct process eventually
outputs ``p`` forever:

    ∃p ∈ correct(F)  ∀q ∈ correct(F)  ∃t  ∀t' ≥ t : H(q, t') = p.

Before the stabilization time the output is unconstrained (it may name
crashed processes, and different processes may disagree); the oracle
deliberately emits such noise so that algorithms are exercised against
the full adversarial latitude the definition allows.
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


class OmegaOracle(FailureDetector):
    """Samples histories of Ω.

    Parameters
    ----------
    noisy:
        When true (default), pre-stabilization outputs are sampled
        adversarially: each process flips between random (possibly
        faulty) leaders.  When false, the oracle outputs the eventual
        leader from time 0 — the "benign" history useful in unit tests.
    leader:
        Force the eventual leader to a specific correct process.  By
        default the oracle picks the smallest correct pid.
    churn_period:
        How many steps a pre-stabilization noise output persists before
        flipping.  The default (7) reproduces the historical noise
        stream; ``1`` is the maximal in-spec churn adversary used by the
        chaos harness — the output may change on *every* step before
        stabilization, which the definition of Ω fully permits.
    stabilization_span:
        Cap on how long after the last crash the oracle may stay noisy
        (see :func:`repro.core.detector.sample_stabilization_time`).
        Larger spans keep the churn going longer while remaining
        admissible — stabilization still happens inside the horizon.
    """

    name = "Omega"

    def __init__(
        self,
        noisy: bool = True,
        leader: int | None = None,
        churn_period: int = 7,
        stabilization_span: int | None = None,
    ):
        if churn_period < 1:
            raise ValueError(f"churn_period must be >= 1, got {churn_period}")
        self.noisy = noisy
        self.leader = leader
        self.churn_period = churn_period
        self.stabilization_span = stabilization_span

    def build_history(
        self,
        pattern: FailurePattern,
        horizon: int,
        rng: random.Random,
    ) -> FailureDetectorHistory:
        if not pattern.correct:
            raise ValueError("Omega requires at least one correct process")
        if self.leader is not None:
            if self.leader not in pattern.correct:
                raise ValueError(
                    f"forced leader {self.leader} is not correct in {pattern!r}"
                )
            leader = self.leader
        else:
            leader = min(pattern.correct)

        if not self.noisy:
            return FailureDetectorHistory(
                pattern.n, horizon, lambda pid, t: (0, FOREVER, leader)
            )

        # Per-process stabilization times and pre-stabilization noise.
        stab: Dict[int, int] = {}
        noise_seed = rng.randrange(2**62)
        span = self.stabilization_span
        for pid in pattern.processes:
            if span is None:
                stab[pid] = sample_stabilization_time(rng, pattern, horizon)
            else:
                stab[pid] = sample_stabilization_time(
                    rng, pattern, horizon, span=span
                )
        period = self.churn_period

        def segment(pid: int, t: int) -> Segment:
            settled = stab[pid]
            if t >= settled:
                return (settled, FOREVER, leader)
            # Deterministic pseudo-noise: any process id is admissible
            # before stabilization, including faulty ones.
            mix = hash((noise_seed, pid, t // period))
            start, end = bucket_around(t, period, hi=settled)
            return (start, end, mix % pattern.n)

        return FailureDetectorHistory(pattern.n, horizon, segment)
