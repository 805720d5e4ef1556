"""Executors: run a batch of specs serially or across a process pool.

Both executors take the job list in order and return results in that
same order, whatever the workers' scheduling — result ordering is part
of the determinism contract, so campaign tables never depend on pool
timing.  Jobs are anything with ``fingerprint()``/``execute()``
(:class:`~repro.runner.spec.RunSpec`, :class:`~repro.runner.spec.FnSpec`).

Hardening contract (the chaos harness leans on this):

* a job that *raises* becomes a :class:`~repro.runner.summary.JobFailure`
  in its result slot — the rest of the batch still runs;
* a job that exceeds ``timeout`` seconds of wall clock is interrupted
  (``SIGALRM``) and recorded as a ``"timeout"`` failure; where the alarm
  cannot fire (no ``SIGALRM``, or jobs running on a non-main thread)
  the jobs still run, unbounded, and the executor records one
  ``"timeout-unavailable"`` incident for the ``map`` call;
* a job that *kills its worker* (``os._exit``, segfault, OOM) breaks the
  ``ProcessPoolExecutor``; the pool is rebuilt and the un-finished jobs
  re-run one at a time so the poisoned spec can be attributed, retried
  with exponential backoff, and finally quarantined as a
  ``"worker-crash"`` failure;
* if a pool cannot be created at all, execution degrades to serial and
  the incident is recorded.

Every recovery action is appended to ``executor.incidents`` so campaign
results can surface what happened.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence

from repro.runner.summary import JobFailure


class JobTimeout(Exception):
    """Raised inside a worker when a job exceeds its wall-clock budget."""


def execute_job(job: Any) -> Any:
    """Top-level worker entry point (must stay importable for pickling)."""
    return job.execute()


def _failure_from(job: Any, exc: BaseException, kind: str, attempts: int = 1) -> JobFailure:
    return JobFailure(
        key=job.fingerprint(),
        tags=dict(getattr(job, "tag_dict", None) or getattr(job, "tags", None) or {}),
        kind=kind,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )[-4000:],
        attempts=attempts,
    )


def timeout_unavailable(in_pool_worker: bool = False) -> Optional[str]:
    """Why a per-job timeout cannot fire, or None when it can.

    The timeout is a ``SIGALRM``, which only exists on POSIX and only
    fires on a main thread.  Pool workers run their tasks on their main
    thread (``in_pool_worker``); jobs run in-process are on the
    caller's.
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

    This is the importable unit shipped to pool workers.  Where the
    timeout cannot fire (:func:`timeout_unavailable`) the job runs
    without one rather than not at all; saying so is the executor's
    job, which knows how many jobs one ``map`` call covers.
    """
    use_alarm = (
        timeout is not None and timeout > 0 and timeout_unavailable() is None
    )
    if not use_alarm:
        try:
            return execute_job(job)
        except Exception as exc:  # noqa: BLE001 — the whole point
            return _failure_from(job, exc, kind="exception")

    def _on_alarm(signum, frame):
        raise JobTimeout(f"job exceeded {timeout:g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return execute_job(job)
    except JobTimeout as exc:
        return _failure_from(job, exc, kind="timeout")
    except Exception as exc:  # noqa: BLE001
        return _failure_from(job, exc, kind="exception")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class _Executor:
    """What both executors share: the incident log, and running jobs on
    the calling thread."""

    def __init__(self) -> None:
        self.incidents: List[Dict[str, Any]] = []
        #: Whether the ``map`` call in progress has already said that
        #: its timeout cannot fire (it says so once).
        self._timeout_noted = False

    def _note(self, kind: str, **detail: Any) -> None:
        self.incidents.append({"kind": kind, **detail})

    def _note_dead_timeout(
        self, timeout: Optional[float], reason: Optional[str]
    ) -> None:
        if timeout and reason and not self._timeout_noted:
            self._timeout_noted = True
            self._note("timeout-unavailable", reason=reason)

    def _run_here(self, jobs: Sequence[Any], timeout: Optional[float]) -> List[Any]:
        if jobs:
            self._note_dead_timeout(timeout, timeout_unavailable())
        return [execute_job_guarded(job, timeout) for job in jobs]


class SerialExecutor(_Executor):
    """Run every job in this process, in order."""

    workers = 1

    def map(self, jobs: Sequence[Any], timeout: Optional[float] = None) -> List[Any]:
        self._timeout_noted = False
        return self._run_here(jobs, timeout)

    def __repr__(self) -> str:
        return "SerialExecutor()"


class PoolExecutor(_Executor):
    """Fan jobs out over a ``ProcessPoolExecutor``, surviving crashes.

    Jobs are submitted individually (futures preserve submission order,
    so results stay aligned with the job list).  Ordinary exceptions and
    timeouts never reach the parent — workers return
    :class:`~repro.runner.summary.JobFailure` records instead — so a
    broken pool can only mean a worker *died*.  Recovery: rebuild the
    pool, replay the unfinished jobs one at a time to attribute the
    crash, retry the killer with exponential backoff, and quarantine it
    after ``max_retries`` attempts.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.25,
    ):
        super().__init__()
        self.workers = max(1, workers or default_worker_count())
        self.max_retries = max(0, max_retries)
        self.retry_backoff = retry_backoff

    def _make_pool(self) -> Optional[ProcessPoolExecutor]:
        try:
            return ProcessPoolExecutor(max_workers=self.workers)
        except Exception as exc:  # noqa: BLE001 — e.g. sandboxed /dev/shm
            self._note("pool-degraded", error=f"{type(exc).__name__}: {exc}")
            return None

    def map(self, jobs: Sequence[Any], timeout: Optional[float] = None) -> List[Any]:
        if not jobs:
            return []
        self._timeout_noted = False
        pool = None
        if self.workers > 1 and len(jobs) > 1:
            pool = self._make_pool()
        if pool is None:
            return self._run_here(jobs, timeout)
        self._note_dead_timeout(timeout, timeout_unavailable(in_pool_worker=True))

        results: List[Any] = [None] * len(jobs)
        done: List[bool] = [False] * len(jobs)
        try:
            self._batch_phase(pool, jobs, timeout, results, done)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return results

    def _batch_phase(self, pool, jobs, timeout, results, done) -> None:
        futures = {}
        broken = False
        for i in range(len(jobs)):
            try:
                futures[i] = pool.submit(execute_job_guarded, jobs[i], timeout)
            except BrokenProcessPool:
                broken = True
                break
        for i in sorted(futures):
            try:
                results[i] = futures[i].result()
                done[i] = True
            except BrokenProcessPool:
                broken = True
                break
            except Exception as exc:  # unpicklable result, etc.
                results[i] = _failure_from(jobs[i], exc, kind="exception")
                done[i] = True
        if not broken:
            return
        # Harvest whatever did finish before the pool died.
        for i, fut in futures.items():
            if not done[i] and fut.done():
                try:
                    results[i] = fut.result()
                    done[i] = True
                except Exception:  # noqa: BLE001 — re-run it below
                    pass
        remaining = [i for i in range(len(jobs)) if not done[i]]
        self._note("pool-broken", unfinished=len(remaining))
        self._recovery_phase(jobs, timeout, results, done, remaining)

    def _recovery_phase(self, jobs, timeout, results, done, remaining) -> None:
        """One job at a time through fresh pools: crash attribution."""
        pool = self._make_pool()
        for i in remaining:
            attempts = 0
            while True:
                attempts += 1
                if pool is None:
                    (results[i],) = self._run_here([jobs[i]], timeout)
                    done[i] = True
                    break
                try:
                    results[i] = pool.submit(
                        execute_job_guarded, jobs[i], timeout
                    ).result()
                    done[i] = True
                    break
                except BrokenProcessPool as exc:
                    pool.shutdown(wait=False, cancel_futures=True)
                    if attempts > self.max_retries:
                        results[i] = _failure_from(
                            jobs[i], exc, kind="worker-crash", attempts=attempts
                        )
                        done[i] = True
                        self._note(
                            "quarantined",
                            key=jobs[i].fingerprint(),
                            attempts=attempts,
                        )
                        pool = self._make_pool()
                        break
                    self._note(
                        "worker-crash-retry",
                        key=jobs[i].fingerprint(),
                        attempt=attempts,
                    )
                    time.sleep(self.retry_backoff * (2 ** (attempts - 1)))
                    pool = self._make_pool()
                except Exception as exc:  # noqa: BLE001
                    results[i] = _failure_from(jobs[i], exc, kind="exception")
                    done[i] = True
                    break
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def __repr__(self) -> str:
        return f"PoolExecutor(workers={self.workers})"


def default_worker_count() -> int:
    """Workers to use when the caller just says "parallel"."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def make_executor(workers: Optional[int]) -> Any:
    """``None``/``1`` -> serial; ``0`` -> all cores; else that many."""
    if workers is None or workers == 1:
        return SerialExecutor()
    if workers == 0:
        return PoolExecutor(default_worker_count())
    return PoolExecutor(workers)
