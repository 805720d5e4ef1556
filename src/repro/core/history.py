"""Failure detector histories.

A *failure detector history* with range ``R`` is a function
``H : Pi x T -> R`` giving the value of each process's failure detector
module at each time (Section 2).  A run of a simulation only *samples*
``H`` at the times when processes take steps, so this module provides
both:

* :class:`FailureDetectorHistory` — a dense history defined at every
  time step up to a horizon (what oracle detectors generate), held as
  what every oracle is: per process, a sequence of *constant segments*
  computed on demand, and
* :class:`SampledHistory` — the sparse per-step samples recorded in a
  run trace (what spec checkers consume).

Both expose the same ``samples_of(pid)`` iteration interface, so the
property checkers in :mod:`repro.core.specs` work on either.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

Sample = Tuple[int, Any]  # (time, detector value)

#: ``(start, end, value)``: ``H(pid, t) == value`` for ``start <= t < end``.
Segment = Tuple[int, int, Any]

#: The ``end`` of a segment that never ends.
FOREVER = sys.maxsize


def bucket_around(
    t: int, period: int, lo: int = 0, hi: int = FOREVER
) -> Tuple[int, int]:
    """The ``period``-aligned bucket around ``t``, clipped to ``[lo, hi)``.

    Oracle noise is drawn once per bucket ``t // period``; ``lo`` /
    ``hi`` cut the bucket at the time (stabilisation, switch, detection)
    on whose side of ``t`` the output follows another rule.
    """
    start = t - t % period
    return (max(start, lo), min(start + period, hi))


def interval_around(cuts: Sequence[int], t: int) -> Tuple[int, int]:
    """The ``[start, end)`` around ``t`` that the ascending ``cuts`` delimit.

    For outputs that change only at known times (detection delays,
    crashes): ``start`` is the last cut ``<= t`` (0 before the first),
    ``end`` the first cut ``> t`` (:data:`FOREVER` after the last).
    """
    i = bisect_right(cuts, t)
    return (cuts[i - 1] if i else 0, cuts[i] if i < len(cuts) else FOREVER)


def per_tick(value_fn: Callable[[int, int], Any]) -> Callable[[int, int], Segment]:
    """Adapt a hand-written ``value_fn(pid, t)`` to a segment function.

    Every tick becomes its own unit segment ``[t, t + 1)`` — the input
    shape for tests and ad-hoc histories whose author has no breakpoints
    to offer; the lookup path is the one every history uses.
    """
    return lambda pid, t: (t, t + 1, value_fn(pid, t))


class FailureDetectorHistory:
    """A dense history ``H(p, t)`` walked as constant segments.

    ``segment_fn(pid, t)`` returns a :data:`Segment` ``(start, end,
    value)`` with ``start <= t < end`` on which ``H(pid, ·)`` is
    ``value``; ``end`` may lie past the horizon (:data:`FOREVER` for a
    stabilised output).  It must be deterministic in ``(pid, t)``, and
    need not be maximal: two adjacent segments may carry equal values.

    The history keeps **one current segment per process** and nothing
    else.  A run reads each process's history at increasing times, so a
    read either falls inside the current segment (two comparisons) or
    moves past it and asks ``segment_fn`` once for the next; a read that
    jumps backwards is just another miss that recomputes — never a wrong
    answer, because the segment function alone defines ``H``.  What
    ``segment_fn`` returns on a miss is checked to contain ``t``: a
    wrong segment would be a wrong verdict further up.
    """

    def __init__(
        self,
        n: int,
        horizon: int,
        segment_fn: Callable[[int, int], Segment],
    ):
        if n <= 0:
            raise ValueError(f"need at least one process, got n={n}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.n = n
        self.horizon = horizon
        self._segment_fn = segment_fn
        # The empty segment [0, 0) contains no time: the first read of
        # every process is a miss.
        self._current: List[Segment] = [(0, 0, None)] * n
        #: Optional duck-typed perf-counter bag (the sim layer attaches a
        #: :class:`repro.sim.perf.PerfCounters`; core never imports sim).
        self.perf = None

    def value(self, pid: int, t: int) -> Any:
        """``H(pid, t)``."""
        if not 0 <= pid < self.n:
            raise ValueError(f"unknown process {pid}")
        if t < 0:
            raise ValueError(f"negative time {t}")
        perf = self.perf
        if perf is not None:
            perf.detector_value_calls += 1
        start, end, value = self._current[pid]
        if start <= t < end:
            if perf is not None:
                perf.detector_cache_hits += 1
            return value
        return self._advance(pid, t)[2]

    def segment(self, pid: int, t: int) -> Segment:
        """The constant segment of ``H(pid, ·)`` that contains ``t``.

        Its ``end`` is the next tick at which ``pid``'s output *may*
        change.  Composed histories (products, Ψ, reductions) are built
        from their parts' segments through this method.
        """
        if not 0 <= pid < self.n:
            raise ValueError(f"unknown process {pid}")
        if t < 0:
            raise ValueError(f"negative time {t}")
        current = self._current[pid]
        if current[0] <= t < current[1]:
            return current
        return self._advance(pid, t)

    def _advance(self, pid: int, t: int) -> Segment:
        segment = self._segment_fn(pid, t)
        start, end, _ = segment
        if not start <= t < end:
            raise ValueError(
                f"segment [{start}, {end}) returned for process {pid} "
                f"does not contain time {t}"
            )
        self._current[pid] = segment
        return segment

    def samples_of(self, pid: int) -> Iterator[Sample]:
        """All ``(t, H(pid, t))`` pairs up to the horizon."""
        horizon = self.horizon
        t = 0
        while t < horizon:
            _, end, value = self.segment(pid, t)
            end = min(end, horizon)
            for tick in range(t, end):
                yield (tick, value)
            t = end

    def processes(self) -> range:
        return range(self.n)


def product_history(
    first: FailureDetectorHistory, second: FailureDetectorHistory
) -> FailureDetectorHistory:
    """The pair history ``H(p, t) = (first(p, t), second(p, t))``.

    Constant wherever both components are: each segment is the
    intersection of the components' segments around ``t``.
    """
    if first.n != second.n or first.horizon != second.horizon:
        raise ValueError("component histories must have matching shape")

    def segment(pid: int, t: int) -> Segment:
        start_1, end_1, value_1 = first.segment(pid, t)
        start_2, end_2, value_2 = second.segment(pid, t)
        return (max(start_1, start_2), min(end_1, end_2), (value_1, value_2))

    return FailureDetectorHistory(first.n, first.horizon, segment)


def prefixed_history(
    inner: FailureDetectorHistory, switch: Sequence[int], prefix: Any
) -> FailureDetectorHistory:
    """``prefix`` at process ``p`` until ``switch[p]``, ``inner`` from then on."""

    def segment(pid: int, t: int) -> Segment:
        switched = switch[pid]
        if t < switched:
            return (0, switched, prefix)
        start, end, value = inner.segment(pid, t)
        return (max(start, switched), end, value)

    return FailureDetectorHistory(inner.n, inner.horizon, segment)


class SampledHistory:
    """The sparse detector samples observed in a run.

    Each process contributes the (time, value) pairs at which it actually
    took steps.  This is the *observable* portion of ``H``; since all the
    detector specifications quantify over all times, checking them on the
    sampled subset is a sound (necessary) check, and the simulation's
    fairness guarantees make it an adequate one.
    """

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError(f"need at least one process, got n={n}")
        self.n = n
        self._samples: List[List[Sample]] = [[] for _ in range(n)]

    def record(self, pid: int, t: int, value: Any) -> None:
        """Append the detector value ``pid`` saw at step time ``t``."""
        if not 0 <= pid < self.n:
            raise ValueError(f"unknown process {pid}")
        samples = self._samples[pid]
        if samples and samples[-1][0] >= t:
            raise ValueError(
                f"non-increasing sample time {t} for process {pid} "
                f"(last was {samples[-1][0]})"
            )
        samples.append((t, value))

    def drop_from(self, t: int) -> None:
        """Forget every sample taken at time ``t`` or later."""
        for samples in self._samples:
            while samples and samples[-1][0] >= t:
                samples.pop()

    def samples_of(self, pid: int) -> Iterator[Sample]:
        return iter(self._samples[pid])

    def last_value(self, pid: int) -> Any:
        """The most recent value seen by ``pid`` (None if never stepped)."""
        samples = self._samples[pid]
        return samples[-1][1] if samples else None

    def processes(self) -> range:
        return range(self.n)

    def sample_count(self, pid: int) -> int:
        return len(self._samples[pid])

    @classmethod
    def from_pairs(
        cls, n: int, pairs: Iterable[Tuple[int, int, Any]]
    ) -> "SampledHistory":
        """Build from ``(pid, t, value)`` triples (sorted per process)."""
        hist = cls(n)
        by_pid: Dict[int, List[Tuple[int, Any]]] = {}
        for pid, t, value in pairs:
            by_pid.setdefault(pid, []).append((t, value))
        for pid, samples in by_pid.items():
            for t, value in sorted(samples):
                hist.record(pid, t, value)
        return hist
