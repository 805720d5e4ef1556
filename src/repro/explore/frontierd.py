"""The frontier driver: a campaign of roots, each walked whole.

:func:`run_frontier` runs one :class:`~repro.runner.campaign.Campaign`
with one cell per root; the cell is :func:`walk_root`, one
:func:`~repro.explore.engine.explore_case` walk.  The campaign supplies
everything else: the cache, the fork pool (in the caller's process with
one worker and no timeout, else in ``k`` forked children, each walking
the next root when free), one walk for identical roots, the per-cell
timeout (``REPRO_RUNNER_TIMEOUT``, a deadline the parent keeps), a :class:`~repro.runner.summary.JobFailure`
for a walk that raises or a child that dies past
:data:`~repro.runner.pool.RERUN_LIMIT`, and the store's campaign row.
A child walks exactly what the caller loaded: a target registered or
patched at run time, a network class swapped in by
:func:`~repro.sim.system.network_implementation`.

A failed cell ends its root ``complete=False`` with 0 runs and one
incident (``worker-lost``, ``worker-exception`` or ``timeout``) while
the other roots finish.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.explore.cases import ExploreCase, ExploreOptions
from repro.explore.engine import ExploreResult, explore_case
from repro.explore.frontier import result_to_dict
from repro.runner import Campaign, call, fn_spec
from repro.runner.summary import JobFailure

#: The incident a root gets for each way its cell can fail.
_INCIDENT_KINDS = {
    "worker-crash": "worker-lost",
    "exception": "worker-exception",
    "timeout": "timeout",
}


def walk_root(
    case: ExploreCase,
    options: ExploreOptions,
    stop_on_first_violation: bool,
    max_runs: Optional[int],
) -> Dict[str, Any]:
    """One root's summary: the dict of its one walk (a campaign cell)."""
    return result_to_dict(explore_case(
        case,
        options,
        stop_on_first_violation=stop_on_first_violation,
        max_runs=max_runs,
    ))


def _unwalked(case: ExploreCase, options: ExploreOptions,
              failure: JobFailure) -> Dict[str, Any]:
    """The summary of a root whose cell failed: 0 runs, one incident."""
    incident = {"kind": _INCIDENT_KINDS[failure.kind], "message": failure.message}
    if failure.kind == "worker-crash":
        incident["walks"] = failure.attempts
    elif failure.kind == "exception":
        incident.update(error_type=failure.error_type, traceback=failure.traceback)
    return result_to_dict(
        ExploreResult(case, options, complete=False, incidents=[incident])
    )


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
    ``lost`` (roots that ended with no walk) and ``wall_clock``.

    ``cache`` is :meth:`Campaign.run <repro.runner.campaign.Campaign.run>`'s
    (off by default): every summary that is not a failure is put under
    its cell's key — the case, the whole ``options``, both bounds and
    the code salt — without the frontier block, and a later run with
    the same cache serves it without walking it.  A walk is
    deterministic, so a root truncated by ``max_runs`` or
    ``stop_on_first_violation`` is served only to a call with the same
    bounds.
    """
    campaign = Campaign(
        [
            fn_spec(call(walk_root, case, options, stop_on_first_violation,
                         max_runs))
            for case in roots
        ],
        name="frontier",
    )
    result = campaign.run(workers=workers, cache=cache)
    incidents = result.incidents
    block = {
        "workers": result.workers,
        # Every run of a cell after its first followed a dead child.
        "rewalks": sum(i["runs"] - 1 for i in incidents if i["kind"] == "rerun")
        + sum(i["attempts"] - 1 for i in incidents if i["kind"] == "quarantined"),
        "lost": len(result.failures),
        "wall_clock": round(result.wall_clock, 3),
    }
    return [
        dict(
            _unwalked(case, options, summary)
            if isinstance(summary, JobFailure) else summary.value,
            frontier=block,
        )
        for case, summary in zip(roots, result.summaries)
    ]


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
