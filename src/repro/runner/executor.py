"""Executors: run a batch of specs serially or in forked children, and
return the results in job order whatever the children's scheduling (part
of the determinism contract).  Jobs are anything with ``fingerprint()``
/ ``execute()`` (:class:`~repro.runner.spec.RunSpec`,
:class:`~repro.runner.spec.FnSpec`).

Hardening contract (the chaos harness leans on this):

* a job that *raises*, or whose result cannot be pickled back from its
  child, is a :class:`~repro.runner.summary.JobFailure` in its slot and
  the rest of the batch still runs;
* a job still running ``timeout`` seconds after its child was handed it
  is killed with that child by the parent
  (:func:`~repro.runner.pool.fork_imap`), a ``"timeout"`` failure; with
  a timeout every job runs in a child, even at one worker, since a job
  running in the caller's process could not be bounded;
* a job that *kills its child* (``os._exit``, segfault, OOM) is run
  again, up to :data:`~repro.runner.pool.RERUN_LIMIT` times: a re-run
  that returns files a ``"rerun"`` incident (``runs``: the children
  that ran it), and a job whose every child died is a ``"worker-crash"``
  failure with a ``"quarantined"`` incident.
"""

from __future__ import annotations

import functools
import pickle
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runner.pool import Expired, Lost, default_worker_count, fork_imap
from repro.runner.summary import JobFailure


def _tags(job: Any) -> Dict[str, Any]:
    return dict(getattr(job, "tag_dict", None) or getattr(job, "tags", None) or {})


def _failure(job: Any, **fields: Any) -> JobFailure:
    return JobFailure(key=job.fingerprint(), tags=_tags(job), **fields)


def _failure_from(job: Any, exc: BaseException, kind: str) -> JobFailure:
    return _failure(
        job,
        kind=kind,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )[-4000:],
    )


def execute_job_guarded(job: Any) -> Any:
    """Run one job, converting an exception to a JobFailure (what a
    pool child runs)."""
    try:
        return job.execute()
    except Exception as exc:  # noqa: BLE001 — the whole point
        return _failure_from(job, exc, kind="exception")


def _pickled_in_child(run: Callable[[Any], Any], job: Any) -> bytes:
    """``run(job)`` pickled, or a JobFailure in its place if it cannot be."""
    result = run(job)
    try:
        return pickle.dumps(result)
    except Exception as exc:  # noqa: BLE001 — PicklingError, TypeError, ...
        return pickle.dumps(_failure_from(job, exc, kind="exception"))


class PoolExecutor:
    """Run the jobs in order: in ``workers`` forked children
    (:func:`~repro.runner.pool.fork_imap`), or here when there is one
    worker or one job and no timeout.  Children run
    :func:`execute_job_guarded`, so only a child that *died* or
    *overran* is the pool's business.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = max(1, workers or default_worker_count())
        self.incidents: List[Dict[str, Any]] = []

    def map(self, jobs: Sequence[Any], timeout: Optional[float] = None) -> List[Any]:
        children = self.workers if len(jobs) > 1 else 1
        in_child = children > 1 or bool(timeout)
        run: Callable[[Any], Any] = execute_job_guarded
        if in_child:
            run = functools.partial(_pickled_in_child, run)
        results = []
        outcomes = list(fork_imap(run, jobs, children, timeout))
        for job, (outcome, runs) in zip(jobs, outcomes):
            if isinstance(outcome, Lost):
                outcome = _failure(
                    job, kind="worker-crash", error_type="WorkerLost",
                    attempts=runs,
                    message=f"its child died on each of {runs} runs "
                    f"(last exit code {outcome.exitcode})",
                )
                self.incidents.append(
                    {"kind": "quarantined", "key": outcome.key, "attempts": runs}
                )
            elif isinstance(outcome, Expired):
                outcome = _failure(
                    job, kind="timeout", error_type="JobTimeout",
                    message=f"job exceeded {outcome.timeout:g}s wall-clock budget",
                )
            elif in_child:
                outcome = pickle.loads(outcome)
                if runs > 1:
                    self.incidents.append(
                        {"kind": "rerun", "key": job.fingerprint(), "runs": runs}
                    )
            results.append(outcome)
        return results

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"

