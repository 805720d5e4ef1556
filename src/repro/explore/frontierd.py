"""The frontier driver: whole roots, walked here or in forked children.

:func:`run_frontier` is the one way a frontier's roots are walked: one
:func:`~repro.explore.engine.explore_case` per root on the runner's fork
pool (:func:`repro.runner.pool.fork_imap`): in the caller's process
with one worker, else in ``k`` forked children, each walking the next
root when free and sending its summary back.  A child walks exactly
what the caller loaded: a target registered or patched at run time, a
network class swapped in by :func:`~repro.sim.system.network_implementation`.

A root whose child dies on every run (:data:`~repro.runner.pool
.RERUN_LIMIT`) ends ``complete=False`` with a ``worker-lost`` incident
while the other roots finish; a walk that raises is not retried and
ends with a ``worker-exception`` incident, in a child or not.  Children
touch no store: the cache is read before the first fork and written
after the last child is reaped.
"""

from __future__ import annotations

import logging
import os
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.explore.cases import ExploreCase, ExploreOptions
from repro.explore.engine import ExploreResult, explore_case
from repro.explore.frontier import merge_summaries, result_to_dict
from repro.runner.pool import Lost, fork_imap, pool_size

logger = logging.getLogger(__name__)


def search_key(case_dict: Dict[str, Any], options_dict: Dict[str, Any]) -> str:
    """The key of one (case, options) search: a root's cache key.

    ``options_dict`` is the whole :class:`~repro.explore.cases
    .ExploreOptions` (``dataclasses.asdict``): every option that shapes
    fingerprints or dedup semantics is a field of it, so none can be
    left out of the key, and mixing keys would merge incomparable
    searches.  The code salt makes a cached root of an edited tree a
    miss rather than a wrong hit.
    """
    from repro.runner.fingerprint import code_salt, fingerprint

    return fingerprint(
        {"case": case_dict, "options": options_dict, "code": code_salt()},
        salt="explore-scope:2",
    )


def _unwalked(case: ExploreCase, options: ExploreOptions,
              incident: Dict[str, Any]) -> Dict[str, Any]:
    """The summary of a root that has no walk to show: 0 runs."""
    return result_to_dict(
        ExploreResult(case, options, complete=False, incidents=[incident])
    )


def _walk(
    case: ExploreCase,
    options: ExploreOptions,
    stop_on_first_violation: bool,
    max_runs: Optional[int],
) -> Dict[str, Any]:
    """One root's summary; a walk that raises is an incident, not an error."""
    try:
        result = explore_case(
            case,
            options,
            stop_on_first_violation=stop_on_first_violation,
            max_runs=max_runs,
        )
    except Exception as exc:  # noqa: BLE001 — the root fails, its siblings go on
        return _unwalked(case, options, {
            "kind": "worker-exception",
            "error_type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(limit=8),
        })
    return result_to_dict(result)


def run_frontier(
    roots: Sequence[ExploreCase],
    options: ExploreOptions = ExploreOptions(),
    workers: Optional[int] = None,
    cache: Any = False,
    stop_on_first_violation: bool = False,
    max_runs: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Explore every root, each walked whole; one summary per root.

    Each summary, in root order, carries the ``frontier`` block of this
    call: ``workers`` (:func:`~repro.runner.pool.pool_size`),
    ``rewalks`` (children that died and had their root walked again),
    ``lost`` (roots that ended with no walk, by a raise or past the
    re-run limit) and ``wall_clock``.

    ``cache`` takes the forms of :func:`repro.runner.config
    .resolve_cache`, closed by the same rules: a root whose summary is
    complete and has no incidents is put under its :func:`search_key`
    (case, options, code salt), without the frontier block, and a later
    run with the same cache serves it without walking it.

    ``stop_on_first_violation`` and ``max_runs`` bound each root's walk.
    """
    from repro.runner.config import resolve_cache
    from repro.runner.summary import FnSummary

    workers = pool_size(workers)
    # One empty summary per root for its walk to merge into.
    bases = [result_to_dict(ExploreResult(case, options)) for case in roots]
    keys = [search_key(base["case"], base["options"]) for base in bases]
    cache, opened = resolve_cache(cache)
    try:
        hits = [None if cache is None else cache.get(key) for key in keys]
        todo = [index for index, hit in enumerate(hits) if hit is None]
        started = time.perf_counter()
        outcomes = list(fork_imap(
            lambda case: _walk(case, options, stop_on_first_violation, max_runs),
            [roots[index] for index in todo],
            workers,
        ))
        walked = []
        for index, (summary, walks) in zip(todo, outcomes):
            if isinstance(summary, Lost):
                summary = _unwalked(roots[index], options, {
                    "kind": "worker-lost",
                    "walks": walks,
                    "exitcode": summary.exitcode,
                })
            walked.append(summary)
        block = {
            "workers": workers,
            "rewalks": sum(walks - 1 for _, walks in outcomes),
            "lost": sum(1 for summary in walked if summary["incidents"]),
            "wall_clock": round(time.perf_counter() - started, 3),
        }
        summaries = [None if hit is None else hit.value for hit in hits]
        for index, summary in zip(todo, walked):
            summary = merge_summaries(bases[index], [summary])
            summaries[index] = summary
            if (cache is not None and summary["complete"]
                    and not summary["incidents"]):
                cache.put(keys[index], FnSummary(keys[index], {}, summary))
        for event in () if cache is None else cache.drain_events():
            logger.warning("frontier cache: %s", event)
        return [dict(summary, frontier=block) for summary in summaries]
    finally:
        if opened:
            cache.close()


def run_frontier_dynamic(
    roots: Sequence[ExploreCase],
    options: ExploreOptions = ExploreOptions(),
    workers: Optional[int] = None,
    store: Optional[Union[str, os.PathLike]] = None,
) -> List[Dict[str, Any]]:
    """:func:`run_frontier` under the name the repo benchmark calls.

    ``store`` is accepted and unused: the walk keeps no file.  This
    entry point goes when the benchmark calls :func:`run_frontier`.
    """
    return run_frontier(roots, options, workers=workers)
