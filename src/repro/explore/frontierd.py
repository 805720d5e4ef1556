"""The frontier driver: whole roots, walked here or in forked children.

:func:`run_frontier` is the one way a frontier's roots are walked.  With
one worker it is a loop of :func:`~repro.explore.engine.explore_case`
over the roots in the caller's process.  With ``k`` workers it forks one
child per root, at most ``k`` at a time, in root order; each child walks
its root and sends the summary (:func:`~repro.explore.frontier
.result_to_dict`) back over a pipe.  A child is forked from the caller,
so it walks exactly what the caller loaded: a target registered or
patched at run time, a network class swapped in by
:func:`~repro.sim.system.network_implementation`.

On one host a child's exit is a *perfect* failure detector: the parent
never suspects a live child, and the pipe of a dead one reaches end of
file at once.  So nothing expires and nothing is leased.  A child that
dies without a result has its root walked again, up to
:data:`REWALK_LIMIT` times; after that the root ends ``complete=False``
with a ``worker-lost`` incident while the other roots finish.  A walk
that raises is deterministic and is not retried: its root ends
``complete=False`` with a ``worker-exception`` incident, in a child and
in the one-worker loop alike.

Children touch no store.  The cache is read before the first fork and
written after the last child is reaped, and no child outlives the call,
whether it returns, raises or is interrupted.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.explore.cases import ExploreCase, ExploreOptions
from repro.explore.engine import ExploreResult, explore_case
from repro.explore.frontier import merge_summaries, result_to_dict

#: Times a root is walked again after its child died without a result.
REWALK_LIMIT = 3

logger = logging.getLogger(__name__)


def fleet_size(workers: Optional[int] = None) -> int:
    """The worker count :func:`run_frontier` runs for ``workers``.

    Resolved like a campaign's (:func:`repro.runner.config
    .resolve_workers`, which refuses a negative count); None means 1
    and 0 every core.  More than one worker on a platform without
    ``fork``, the one way children start, is a ``ValueError``; one
    worker needs no process and runs everywhere.
    """
    from repro.runner.config import resolve_workers
    from repro.runner.executor import default_worker_count

    resolved = resolve_workers(workers)
    resolved = 1 if resolved is None else resolved or default_worker_count()
    if resolved > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ValueError(
            f"workers={resolved} needs the fork start method, which this "
            "platform lacks; one worker runs everywhere"
        )
    return resolved


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


def _child(writer: Any, *walk_args: Any) -> None:
    writer.send(_walk(*walk_args))


def _walk_forked(
    cases: Sequence[ExploreCase],
    workers: int,
    walk_args: Tuple[Any, ...],
) -> Tuple[List[Dict[str, Any]], int]:
    """``(summaries, re-walks)``: every case walked in a forked child.

    The parent waits on the children's pipes rather than on their exit:
    a child blocks in ``send`` until its summary is read, and its pipe
    is ready either way, with the summary or, once the child is dead,
    at end of file.
    """
    context = multiprocessing.get_context("fork")
    pending = deque(range(len(cases)))
    walks = [0] * len(cases)
    summaries: List[Optional[Dict[str, Any]]] = [None] * len(cases)
    running: Dict[Any, Tuple[int, Any]] = {}
    rewalks = 0
    try:
        while pending or running:
            while pending and len(running) < workers:
                index = pending.popleft()
                reader, writer = context.Pipe(duplex=False)
                process = context.Process(
                    target=_child, args=(writer, cases[index], *walk_args),
                    daemon=True,
                )
                process.start()
                running[reader] = (index, process)
                # The parent's copy of the write end would keep the pipe
                # open after the child died, and a later child would
                # inherit it.
                writer.close()
                walks[index] += 1
            for reader in multiprocessing.connection.wait(list(running)):
                index, process = running[reader]
                try:
                    summaries[index] = reader.recv()
                except (EOFError, OSError):
                    pass  # died before its summary was whole
                process.join()
                del running[reader]
                reader.close()
                if summaries[index] is not None:
                    continue
                if walks[index] <= REWALK_LIMIT:
                    rewalks += 1
                    pending.appendleft(index)
                    continue
                summaries[index] = _unwalked(cases[index], walk_args[0], {
                    "kind": "worker-lost",
                    "walks": walks[index],
                    "exitcode": process.exitcode,
                })
    finally:
        for reader, (_, process) in running.items():
            process.kill()
            process.join()
            reader.close()
    return summaries, rewalks


def run_frontier(
    roots: Sequence[ExploreCase],
    options: ExploreOptions = ExploreOptions(),
    workers: Optional[int] = None,
    cache: Any = False,
    stop_on_first_violation: bool = False,
    max_runs: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Explore every root, each walked whole; one summary per root.

    Returns one summary dict per root, in root order, each with the
    ``frontier`` block of the run that walked it: ``workers``,
    ``rewalks`` (children that died and had their root walked again),
    ``lost`` (roots that ended with no walk, by a raise or past
    :data:`REWALK_LIMIT`) and ``wall_clock``.  ``workers`` is checked by
    :func:`fleet_size`; one worker walks in this process and more are
    forked from it (see the module doc).

    ``cache`` takes the forms of :func:`repro.runner.config
    .resolve_cache`, closed by the same rules: a root whose summary is
    complete and has no incidents is put under its :func:`search_key`
    (case, options, code salt), and a later run with the same cache
    serves it as stored without walking it.

    ``stop_on_first_violation`` and ``max_runs`` bound each root's walk.
    """
    from repro.runner.config import resolve_cache
    from repro.runner.summary import FnSummary

    workers = fleet_size(workers)
    # One empty summary per root for its walk to merge into.
    bases = [result_to_dict(ExploreResult(case, options)) for case in roots]
    keys = [search_key(base["case"], base["options"]) for base in bases]
    cache, opened = resolve_cache(cache)
    try:
        hits = [None if cache is None else cache.get(key) for key in keys]
        todo = [index for index, hit in enumerate(hits) if hit is None]
        walk_args = (options, stop_on_first_violation, max_runs)
        started = time.perf_counter()
        if workers > 1 and todo:
            walked, rewalks = _walk_forked(
                [roots[index] for index in todo], workers, walk_args
            )
        else:
            walked = [_walk(roots[index], *walk_args) for index in todo]
            rewalks = 0
        block = {
            "workers": workers,
            "rewalks": rewalks,
            "lost": sum(1 for summary in walked if summary["incidents"]),
            "wall_clock": round(time.perf_counter() - started, 3),
        }
        summaries = [None if hit is None else hit.value for hit in hits]
        for index, summary in zip(todo, walked):
            summary = merge_summaries(bases[index], [summary])
            summary["frontier"] = block
            summaries[index] = summary
            if (cache is not None and summary["complete"]
                    and not summary["incidents"]):
                cache.put(keys[index], FnSummary(keys[index], {}, summary))
        for event in () if cache is None else cache.drain_events():
            logger.warning("frontier cache: %s", event)
        return summaries
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
