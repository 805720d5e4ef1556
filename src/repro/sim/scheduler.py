"""Process schedulers — the adversary's first knob.

Asynchrony means the adversary chooses which process takes the next
step, subject only to fairness (correct processes take infinitely many
steps).  Fair schedulers here are :class:`RandomScheduler` (fair with
probability 1) and :class:`RoundRobinScheduler` (fair deterministically).
:class:`StarvationScheduler` and :class:`BurstScheduler` are *unfair*
adversaries used to probe safety under pathological schedules (safety
properties must survive them; liveness legitimately may not).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Iterable, Optional, Sequence, Set, Tuple

from repro.sim.rng import draw_below


class Scheduler(ABC):
    """Chooses which alive process steps at each tick."""

    @abstractmethod
    def pick(
        self, alive: Sequence[int], now: int, rng: random.Random
    ) -> Optional[int]:
        """Pick a pid from ``alive`` (non-empty), or None to halt."""


class RandomScheduler(Scheduler):
    """Uniformly random choice among alive processes."""

    def pick(
        self, alive: Sequence[int], now: int, rng: random.Random
    ) -> Optional[int]:
        return alive[draw_below(rng, len(alive))]


class RoundRobinScheduler(Scheduler):
    """Cycle deterministically through alive processes.

    Contract: ``alive`` must be in ascending pid order —
    :meth:`System.run` maintains it that way (it filters a ``range``),
    so ``pick`` scans it directly instead of re-sorting every tick.
    """

    def __init__(self) -> None:
        self._last = -1

    def pick(
        self, alive: Sequence[int], now: int, rng: random.Random
    ) -> Optional[int]:
        last = self._last
        for pid in alive:
            if pid > last:
                self._last = pid
                return pid
        first = alive[0]
        self._last = first
        return first


class WeightedScheduler(Scheduler):
    """Random choice with per-process weights (slow/fast processes).

    Fair with probability 1 as long as every weight is positive.
    """

    def __init__(self, weights: Sequence[float]):
        if any(w <= 0 for w in weights):
            raise ValueError("all weights must be positive for fairness")
        self.weights = list(weights)

    def pick(
        self, alive: Sequence[int], now: int, rng: random.Random
    ) -> Optional[int]:
        ws = [self.weights[p] for p in alive]
        return rng.choices(list(alive), weights=ws, k=1)[0]


class StarvationScheduler(Scheduler):
    """An *unfair* adversary that never schedules selected processes.

    Starved processes look exactly like crashed ones to everyone else —
    the indistinguishability at the heart of FLP [8].  Safety checkers
    run against this; liveness checkers must not.
    """

    def __init__(self, starved: Set[int], inner: Optional[Scheduler] = None):
        self.starved = set(starved)
        self.inner = inner or RandomScheduler()

    def pick(
        self, alive: Sequence[int], now: int, rng: random.Random
    ) -> Optional[int]:
        allowed = [p for p in alive if p not in self.starved]
        if not allowed:
            return None
        return self.inner.pick(allowed, now, rng)


class WindowedStarvationScheduler(Scheduler):
    """Starves selected processes during bounded time windows.

    ``windows`` is a sequence of ``(start, end, pids)`` triples
    (``end`` exclusive): while ``start <= now < end`` the listed
    processes are never scheduled.  Unlike :class:`StarvationScheduler`
    this stays *fair* — every window closes, so every correct process
    still takes infinitely many steps — which makes it an in-spec
    adversary for the chaos harness's liveness-preserving campaigns.
    If a window would starve every alive process (halting the run for
    a reason the model does not admit), it is ignored for that step.
    """

    def __init__(
        self,
        windows: Sequence[Tuple[int, int, Iterable[int]]],
        inner: Optional[Scheduler] = None,
    ):
        self.windows = []
        for start, end, pids in windows:
            if start > end:
                raise ValueError(f"starvation window [{start}, {end}) is inverted")
            self.windows.append((start, end, frozenset(pids)))
        self.inner = inner or RandomScheduler()
        # Interval index: between two consecutive window boundaries the
        # starved set is constant, so precompute it once and answer
        # per-tick queries with a bisect instead of a window sweep.
        boundaries = sorted(
            {start for start, _, _ in self.windows}
            | {end for _, end, _ in self.windows}
        )
        self._boundaries = boundaries
        self._active = []
        for point in boundaries:
            starved = frozenset().union(
                *(
                    pids
                    for start, end, pids in self.windows
                    if start <= point < end
                )
            )
            self._active.append(starved)

    def _starved(self, now: int) -> Set[int]:
        idx = bisect_right(self._boundaries, now) - 1
        if idx < 0:
            return frozenset()
        return self._active[idx]

    def pick(
        self, alive: Sequence[int], now: int, rng: random.Random
    ) -> Optional[int]:
        starved = self._starved(now)
        allowed = [p for p in alive if p not in starved]
        if not allowed:
            allowed = list(alive)
        return self.inner.pick(allowed, now, rng)


class BurstScheduler(Scheduler):
    """Runs one process for long bursts before switching — maximal skew.

    Fair (every alive process gets infinitely many bursts) but highly
    uneven, which stresses timestamp and quorum logic.
    """

    def __init__(self, burst_length: int = 25):
        if burst_length < 1:
            raise ValueError("burst_length must be >= 1")
        self.burst_length = burst_length
        self._current: Optional[int] = None
        self._remaining = 0

    def pick(
        self, alive: Sequence[int], now: int, rng: random.Random
    ) -> Optional[int]:
        if (
            self._current is None
            or self._remaining <= 0
            or self._current not in alive
        ):
            self._current = alive[draw_below(rng, len(alive))]
            self._remaining = self.burst_length
        self._remaining -= 1
        return self._current
