"""Executors: run a batch of specs serially or in forked children, and
return the results in job order whatever the children's scheduling (part
of the determinism contract).  Jobs are anything with ``fingerprint()``
/ ``execute()`` (:class:`~repro.runner.spec.RunSpec`,
:class:`~repro.runner.spec.FnSpec`).

Hardening contract (the chaos harness leans on this):

* a job that *raises*, or whose result cannot be pickled back from its
  child, is a :class:`~repro.runner.summary.JobFailure` in its slot and
  the rest of the batch still runs;
* a job over ``timeout`` seconds of wall clock is interrupted
  (``SIGALRM``), a ``"timeout"`` failure; where the alarm cannot fire
  the jobs run unbounded and ``map`` records a ``"timeout-unavailable"``
  incident;
* a job that *kills its child* (``os._exit``, segfault, OOM) is run
  again, up to :data:`~repro.runner.pool.RERUN_LIMIT` times: a re-run
  that returns files a ``"rerun"`` incident (``runs``: the children
  that ran it), and a job whose every child died is a ``"worker-crash"``
  failure with a ``"quarantined"`` incident.
"""

from __future__ import annotations

import functools
import pickle
import signal
import threading
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runner.pool import Lost, default_worker_count, fork_imap
from repro.runner.summary import JobFailure


class JobTimeout(Exception):
    """Raised inside a job that exceeds its wall-clock budget."""


def _tags(job: Any) -> Dict[str, Any]:
    return dict(getattr(job, "tag_dict", None) or getattr(job, "tags", None) or {})


def _failure_from(job: Any, exc: BaseException, kind: str) -> JobFailure:
    return JobFailure(
        key=job.fingerprint(),
        tags=_tags(job),
        kind=kind,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )[-4000:],
    )


def timeout_unavailable(in_pool_worker: bool = False) -> Optional[str]:
    """Why a per-job timeout cannot fire, or None when it can.

    The timeout is a ``SIGALRM``, which only exists on POSIX and only
    fires on a main thread.  A forked child runs its job on its only,
    and so main, thread (``in_pool_worker``); jobs run in-process are on
    the caller's.
    """
    if not hasattr(signal, "SIGALRM"):
        return "this platform has no SIGALRM"
    if not in_pool_worker and (
        threading.current_thread() is not threading.main_thread()
    ):
        return "jobs run on a non-main thread, where SIGALRM never fires"
    return None


def execute_job_guarded(job: Any, timeout: Optional[float] = None) -> Any:
    """Run one job, converting exceptions and timeouts to JobFailure.

    This is what a pool child runs.  Where the timeout cannot fire
    (:func:`timeout_unavailable`) the job runs without one; the executor
    says so, once per ``map`` call.
    """
    use_alarm = (
        timeout is not None and timeout > 0 and timeout_unavailable() is None
    )
    if not use_alarm:
        try:
            return job.execute()
        except Exception as exc:  # noqa: BLE001 — the whole point
            return _failure_from(job, exc, kind="exception")

    def _on_alarm(signum, frame):
        raise JobTimeout(f"job exceeded {timeout:g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return job.execute()
    except JobTimeout as exc:
        return _failure_from(job, exc, kind="timeout")
    except Exception as exc:  # noqa: BLE001
        return _failure_from(job, exc, kind="exception")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


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
    worker or one job.  Children run :func:`execute_job_guarded`, so
    only a child that *died* is the pool's business.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = max(1, workers or default_worker_count())
        self.incidents: List[Dict[str, Any]] = []

    def map(self, jobs: Sequence[Any], timeout: Optional[float] = None) -> List[Any]:
        children = self.workers if len(jobs) > 1 else 1
        reason = timeout_unavailable(in_pool_worker=children > 1)
        if timeout and jobs and reason:
            self.incidents.append({"kind": "timeout-unavailable", "reason": reason})
        results = []
        run = functools.partial(execute_job_guarded, timeout=timeout)
        if children > 1:
            run = functools.partial(_pickled_in_child, run)
        outcomes = list(fork_imap(run, jobs, children))
        for job, (outcome, runs) in zip(jobs, outcomes):
            if isinstance(outcome, Lost):
                outcome = JobFailure(
                    key=job.fingerprint(), tags=_tags(job), kind="worker-crash",
                    error_type="WorkerLost", attempts=runs,
                    message=f"its child died on each of {runs} runs "
                    f"(last exit code {outcome.exitcode})",
                )
                self.incidents.append(
                    {"kind": "quarantined", "key": outcome.key, "attempts": runs}
                )
            elif children > 1:
                outcome = pickle.loads(outcome)
                if runs > 1:
                    self.incidents.append(
                        {"kind": "rerun", "key": job.fingerprint(), "runs": runs}
                    )
            results.append(outcome)
        return results

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"

