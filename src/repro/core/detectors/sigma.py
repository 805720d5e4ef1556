"""The quorum failure detector Σ.

Definition (Section 2): the range of Σ is ``2^Pi``, and ``H ∈ Σ(F)`` iff

* **Intersection** (perpetual): any two quorums output at any times by
  any processes intersect:
  ``∀p, p'  ∀t, t' : H(p, t) ∩ H(p', t') ≠ ∅``;
* **Completeness** (eventual): eventually every quorum output at a
  correct process contains only correct processes:
  ``∀p ∈ correct(F)  ∃t  ∀t' ≥ t : H(p, t') ⊆ correct(F)``.

Two oracles are provided:

* :class:`SigmaOracle` works in *every* environment.  It keeps the
  perpetual intersection property by threading a common correct
  "kernel" process through every quorum; before stabilization the rest
  of the quorum is noise (may include faulty processes), afterwards it
  is a subset of the correct processes.
* :class:`MajoritySigmaOracle` outputs majority quorums, which intersect
  pairwise by counting.  It is only admissible in majority-correct
  environments (completeness needs a fully-correct majority) and
  mirrors the paper's remark that Σ comes "for free" there.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.detector import FailureDetector, sample_stabilization_time
from repro.core.failure_pattern import FailurePattern
from repro.core.history import (
    FOREVER,
    FailureDetectorHistory,
    Segment,
    bucket_around,
)


class SigmaOracle(FailureDetector):
    """Samples histories of Σ, valid in any environment.

    Every emitted quorum contains a fixed correct *kernel* process, which
    enforces Intersection at all times; Completeness is achieved by
    shrinking quorums to subsets of ``correct(F)`` after a sampled
    stabilization time.

    Parameters
    ----------
    reshuffle_period:
        How many steps an emitted quorum persists before being redrawn.
        The default (5) reproduces the historical stream; ``1`` redraws
        the quorum on every step — the maximal in-spec reshuffling
        adversary, still sound because every draw contains the kernel
        (Intersection) and post-stabilization draws are subsets of
        ``correct(F)`` (Completeness).
    stabilization_span:
        Cap on post-crash noise duration, as in :class:`OmegaOracle`.
    """

    name = "Sigma"

    def __init__(
        self,
        noisy: bool = True,
        kernel: int | None = None,
        reshuffle_period: int = 5,
        stabilization_span: int | None = None,
    ):
        if reshuffle_period < 1:
            raise ValueError(
                f"reshuffle_period must be >= 1, got {reshuffle_period}"
            )
        self.noisy = noisy
        self.kernel = kernel
        self.reshuffle_period = reshuffle_period
        self.stabilization_span = stabilization_span

    def build_history(
        self,
        pattern: FailurePattern,
        horizon: int,
        rng: random.Random,
    ) -> FailureDetectorHistory:
        if not pattern.correct:
            raise ValueError("Sigma requires at least one correct process")
        if self.kernel is not None:
            if self.kernel not in pattern.correct:
                raise ValueError(
                    f"kernel {self.kernel} is not correct in {pattern!r}"
                )
            kernel = self.kernel
        else:
            kernel = min(pattern.correct)

        correct = sorted(pattern.correct)
        everyone = list(pattern.processes)

        if not self.noisy:
            stable = frozenset(correct)
            return FailureDetectorHistory(
                pattern.n, horizon, lambda pid, t: (0, FOREVER, stable)
            )

        span = self.stabilization_span
        stab: Dict[int, int] = {
            pid: (
                sample_stabilization_time(rng, pattern, horizon)
                if span is None
                else sample_stabilization_time(rng, pattern, horizon, span=span)
            )
            for pid in pattern.processes
        }
        noise_seed = rng.randrange(2**62)
        period = self.reshuffle_period

        def segment(pid: int, t: int) -> Segment:
            mix = random.Random(hash((noise_seed, pid, t // period)))
            settled = stab[pid]
            if t >= settled:
                start, end = bucket_around(t, period, lo=settled)
                # Subset of correct processes, always containing kernel.
                k = mix.randint(1, len(correct))
                quorum = set(mix.sample(correct, k))
            else:
                start, end = bucket_around(t, period, hi=settled)
                # Arbitrary noise, possibly including faulty processes.
                k = mix.randint(1, len(everyone))
                quorum = set(mix.sample(everyone, k))
            quorum.add(kernel)
            return (start, end, frozenset(quorum))

        return FailureDetectorHistory(pattern.n, horizon, segment)


class MajoritySigmaOracle(FailureDetector):
    """Σ via majorities; admissible only when a majority is correct.

    Any two majorities of Pi intersect, giving Intersection without a
    designated kernel.  Completeness holds because after stabilization
    the oracle emits majorities drawn from ``correct(F)``, which exist
    exactly when a majority of processes is correct.
    """

    name = "Sigma(majority)"

    def build_history(
        self,
        pattern: FailurePattern,
        horizon: int,
        rng: random.Random,
    ) -> FailureDetectorHistory:
        majority = pattern.n // 2 + 1
        correct = sorted(pattern.correct)
        if len(correct) < majority:
            raise ValueError(
                "MajoritySigmaOracle needs a correct majority; "
                f"only {len(correct)}/{pattern.n} correct in {pattern!r}"
            )
        everyone = list(pattern.processes)
        stab: Dict[int, int] = {
            pid: sample_stabilization_time(rng, pattern, horizon)
            for pid in pattern.processes
        }
        noise_seed = rng.randrange(2**62)

        def segment(pid: int, t: int) -> Segment:
            mix = random.Random(hash((noise_seed, pid, t // 5)))
            settled = stab[pid]
            if t >= settled:
                start, end = bucket_around(t, 5, lo=settled)
                pool: List[int] = correct
            else:
                start, end = bucket_around(t, 5, hi=settled)
                pool = everyone
            k = mix.randint(majority, len(pool)) if len(pool) >= majority else majority
            return (start, end, frozenset(mix.sample(pool, min(k, len(pool)))))

        return FailureDetectorHistory(pattern.n, horizon, segment)
