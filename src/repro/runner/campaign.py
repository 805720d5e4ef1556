"""Campaigns: parameter sweeps expanded into spec grids and executed.

A :class:`Campaign` is an ordered list of jobs (:class:`RunSpec` /
:class:`FnSpec` cells).  :meth:`Campaign.grid` expands a cartesian
parameter sweep through a builder callback; :meth:`Campaign.run`
executes the cells — consulting the result cache first, deduplicating
identical cells, fanning misses out over a worker pool — and returns a
:class:`CampaignResult` whose summaries align one-to-one with the
campaign's cells regardless of executor or cache state.
"""

from __future__ import annotations

import itertools
import logging
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.runner import profile
from repro.runner.config import (
    CacheArg,
    resolve_cache,
    resolve_timeout,
    resolve_workers,
)
from repro.runner.executor import make_executor
from repro.runner.spec import FnSpec, RunSpec
from repro.runner.summary import JobFailure

Job = Union[RunSpec, FnSpec]

logger = logging.getLogger("repro.runner")


class CampaignResult:
    """Ordered summaries plus execution accounting.

    ``incidents`` records every recovery the executor performed (broken
    pools, retries, quarantines, serial degradation) and ``cache_events``
    every corrupt cache entry discarded; both empty on a clean run.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        summaries: List[Any],
        hits: int,
        executed: int,
        wall_clock: float,
        workers: int,
        incidents: Optional[List[Dict[str, Any]]] = None,
        cache_events: Optional[List[Dict[str, Any]]] = None,
    ):
        self.jobs = list(jobs)
        self.summaries = summaries
        self.hits = hits
        self.executed = executed
        self.wall_clock = wall_clock
        self.workers = workers
        self.incidents = incidents or []
        self.cache_events = cache_events or []

    @property
    def failures(self) -> List[JobFailure]:
        """The cells that failed to produce a summary."""
        return [s for s in self.summaries if isinstance(s, JobFailure)]

    @property
    def ok(self) -> bool:
        """True iff every cell produced a real summary."""
        return not self.failures

    @property
    def cache_corruption(self) -> int:
        """How many corrupt/unreadable cache entries were discarded.

        A torn entry is recoverable (the cell recomputes) but worth
        surfacing: repeated corruption means a sick disk or a writer
        being killed mid-batch, not bad luck.
        """
        return sum(
            1 for e in self.cache_events if e.get("kind") == "cache-corrupt"
        )

    def __iter__(self):
        return iter(self.summaries)

    def __len__(self) -> int:
        return len(self.summaries)

    def __getitem__(self, index):
        return self.summaries[index]

    def by_tag(self, **tags: Any) -> List[Any]:
        """Summaries whose tags contain every given key/value pair."""
        return [
            s
            for s in self.summaries
            if all(s.tags.get(k) == v for k, v in tags.items())
        ]

    def one(self, **tags: Any) -> Any:
        matches = self.by_tag(**tags)
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} summaries match {tags!r}")
        return matches[0]

    def perf_totals(self) -> Dict[str, int]:
        """Summed hot-path counters across every cell that has them.

        Cached summaries carry the counters of the run that populated
        the cache; FnSpec cells and failures contribute nothing.
        """
        from repro.sim.perf import aggregate

        return aggregate(
            getattr(s, "perf", None) or {} for s in self.summaries
        )

    def __repr__(self) -> str:
        return (
            f"CampaignResult({len(self.summaries)} cells, "
            f"{self.hits} cached, {self.executed} executed, "
            f"{self.wall_clock:.2f}s, workers={self.workers})"
        )


class Campaign:
    """An ordered batch of run/function specs, executable as one unit."""

    def __init__(self, jobs: Iterable[Job], name: Optional[str] = None):
        self.jobs: List[Job] = list(jobs)
        self.name = name

    @classmethod
    def grid(
        cls,
        build: Callable[..., Union[Job, Iterable[Job], None]],
        name: Optional[str] = None,
        **axes: Sequence[Any],
    ) -> "Campaign":
        """Expand a cartesian sweep.

        ``build(**point)`` is called for every point of the product of
        ``axes`` (axes iterate in the order given; the rightmost axis
        varies fastest) and may return one job, an iterable of jobs, or
        None to skip the cell.  The builder runs in the parent process,
        so it is free to be a closure — only the *returned specs* must
        be picklable.
        """
        names = list(axes)
        jobs: List[Job] = []
        for values in itertools.product(*(axes[k] for k in names)):
            produced = build(**dict(zip(names, values)))
            if produced is None:
                continue
            if isinstance(produced, (RunSpec, FnSpec)):
                jobs.append(produced)
            else:
                jobs.extend(produced)
        return cls(jobs, name=name)

    def __len__(self) -> int:
        return len(self.jobs)

    def __add__(self, other: "Campaign") -> "Campaign":
        return Campaign(self.jobs + other.jobs, name=self.name or other.name)

    def run(
        self,
        workers: Optional[int] = None,
        cache: Optional[CacheArg] = None,
        timeout: Optional[float] = None,
    ) -> CampaignResult:
        """Execute every cell; summaries come back in cell order.

        ``workers``/``cache``/``timeout`` default to the process-wide
        configuration (see :mod:`repro.runner.config`).  A cell that
        raises, times out, or kills its worker yields a
        :class:`~repro.runner.summary.JobFailure` in its slot (never
        cached) instead of aborting the campaign.
        """
        started = time.perf_counter()
        workers = resolve_workers(workers)
        store, opened = resolve_cache(cache)
        try:
            timeout = resolve_timeout(timeout)
            executor = make_executor(workers)

            results: List[Any] = [None] * len(self.jobs)
            keys = [job.fingerprint() for job in self.jobs]

            hits = 0
            pending: Dict[str, List[int]] = {}
            for i, key in enumerate(keys):
                cached = store.get(key) if store is not None else None
                if cached is not None:
                    cached.cached = True
                    results[i] = cached
                    hits += 1
                else:
                    # Identical cells execute once; every index gets the result.
                    pending.setdefault(key, []).append(i)

            unique_indices = [slots[0] for slots in pending.values()]
            executed = executor.map(
                [self.jobs[i] for i in unique_indices], timeout=timeout
            )
            for index, summary in zip(unique_indices, executed):
                key = keys[index]
                if store is not None and not isinstance(summary, JobFailure):
                    store.put(key, summary)
                for slot in pending[key]:
                    results[slot] = summary

            result = CampaignResult(
                jobs=self.jobs,
                summaries=results,
                hits=hits,
                executed=len(executed),
                wall_clock=time.perf_counter() - started,
                workers=getattr(executor, "workers", 1),
                incidents=list(getattr(executor, "incidents", [])),
                cache_events=store.drain_events() if store is not None else [],
            )
            if result.cache_corruption:
                logger.warning(
                    "campaign %s: discarded %d corrupt cache entr%s (recomputed; "
                    "see CampaignResult.cache_events)",
                    self.name or "<unnamed>",
                    result.cache_corruption,
                    "y" if result.cache_corruption == 1 else "ies",
                )
            if store is not None and hasattr(store, "record_campaign"):
                # Store-backed caches file every execution, making resume
                # auditable: `repro.store summarise` shows the re-run with
                # hits == cells and executed == 0.
                store.record_campaign(result, self.name, keys)
            if profile.is_enabled():
                profile.record(self.name, result)
            return result
        finally:
            # A cache opened here from a location is this run's: left
            # open, its connection and its -wal / -shm files would live
            # until the collector found them.  A ready-made cache
            # object is the caller's.
            if opened:
                store.close()


def run_jobs(
    jobs: Iterable[Job],
    workers: Optional[int] = None,
    cache: Optional[CacheArg] = None,
) -> List[Any]:
    """One-shot convenience: ``Campaign(jobs).run(...)`` summaries."""
    return Campaign(jobs).run(workers=workers, cache=cache).summaries
