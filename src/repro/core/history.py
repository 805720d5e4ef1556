"""Failure detector histories.

A *failure detector history* with range ``R`` is a function
``H : Pi x T -> R`` giving the value of each process's failure detector
module at each time (Section 2).  A run of a simulation only *samples*
``H`` at the times when processes take steps, so this module provides
both:

* :class:`FailureDetectorHistory` — a dense history defined at every
  time step up to a horizon (what oracle detectors generate), and
* :class:`SampledHistory` — the sparse per-step samples recorded in a
  run trace (what spec checkers consume).

Both expose the same ``samples_of(pid)`` iteration interface, so the
property checkers in :mod:`repro.core.specs` work on either.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

Sample = Tuple[int, Any]  # (time, detector value)

#: Per-process memo bound for dense histories.  Spec checkers sweep
#: times mostly in order, so a recency window this size makes repeated
#: queries free while keeping horizon-length histories O(n * bound)
#: instead of O(n * horizon).
DEFAULT_HISTORY_CACHE_SIZE = 2048


class FailureDetectorHistory:
    """A dense history ``H(p, t)`` backed by a value function.

    Oracle detectors construct these lazily: ``value_fn(pid, t)`` is
    evaluated on demand and memoised per process in a bounded LRU —
    long-horizon sweeps no longer grow the memo without bound.  The
    bound is safe because ``value_fn`` must be deterministic in
    ``(pid, t)``: an evicted entry recomputes to the same value.
    """

    def __init__(
        self,
        n: int,
        horizon: int,
        value_fn: Callable[[int, int], Any],
        cache_size: int = DEFAULT_HISTORY_CACHE_SIZE,
    ):
        if n <= 0:
            raise ValueError(f"need at least one process, got n={n}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.n = n
        self.horizon = horizon
        self.cache_size = cache_size
        self._value_fn = value_fn
        self._cache: List[OrderedDict[int, Any]] = [OrderedDict() for _ in range(n)]
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
        memo = self._cache[pid]
        try:
            memo.move_to_end(t)
            if perf is not None:
                perf.detector_cache_hits += 1
            return memo[t]
        except KeyError:
            pass
        value = self._value_fn(pid, t)
        memo[t] = value
        if len(memo) > self.cache_size:
            memo.popitem(last=False)
        return value

    def cached_entries(self, pid: int | None = None) -> int:
        """How many ``(pid, t)`` memo entries are currently held."""
        if pid is not None:
            return len(self._cache[pid])
        return sum(len(memo) for memo in self._cache)

    def samples_of(self, pid: int) -> Iterator[Sample]:
        """All ``(t, H(pid, t))`` pairs up to the horizon."""
        for t in range(self.horizon):
            yield (t, self.value(pid, t))

    def processes(self) -> range:
        return range(self.n)


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
