"""The one parallel executor: a function over items, in forked children.

:func:`fork_imap` runs ``fn(item)`` for every item in at most ``k``
children forked from the caller, each handed the next item in item
order when it is free, and yields the results in item order.  Campaigns
(:class:`~repro.runner.executor.PoolExecutor`; the explorer's frontier,
:func:`repro.explore.frontierd.run_frontier`, is one) and the
experiments CLI run on it, and nothing else forks.

On one host a child's exit is a *perfect* failure detector: the pipe of
a dead child reaches end of file at once, so nothing is leased.  The
item a child died running is run again, up to :data:`RERUN_LIMIT`
times, and is then yielded as :class:`Lost`.  A child still running its
item ``timeout`` seconds after it was handed it is killed by the parent
and the item yielded as :class:`Expired`.  Neither that nor ``fn``
raising (:class:`ChildError` at that item's turn, as in a serial loop)
is retried: a deterministic item would do it again.  No child outlives
the iteration, whether it is exhausted, raises, is interrupted or is
closed early (:func:`contextlib.closing`).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Times an item is run again after its child died without a result.
RERUN_LIMIT = 3


@dataclass(frozen=True)
class Lost:
    """The outcome of an item whose child died on each of its runs;
    ``exitcode`` is the last child's (``-signal`` if a signal killed it)."""

    exitcode: Optional[int]


@dataclass(frozen=True)
class Expired:
    """The outcome of an item whose child was still running it
    ``timeout`` seconds after being handed it, and was killed."""

    timeout: float


class ChildError(Exception):
    """``fn`` raised in a child; the message is the child's traceback."""


def default_worker_count() -> int:
    """Workers to use when the caller just says "parallel"."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether this platform has the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def pool_size(workers: Optional[int] = None, timeout: Optional[float] = None) -> int:
    """The number of children :func:`fork_imap` runs for ``workers``,
    resolved by :func:`repro.runner.config.resolve_workers` (None: 1,
    0: every core).  More than one, or any ``timeout`` (kept by killing
    a child), needs ``fork``: else ``ValueError``, before any item runs.
    """
    from repro.runner.config import resolve_workers

    resolved = resolve_workers(workers)
    resolved = 1 if resolved is None else resolved or default_worker_count()
    if (resolved > 1 or timeout) and not can_fork():
        needs = f"timeout={timeout:g}" if timeout else f"workers={resolved}"
        raise ValueError(
            f"{needs} needs the fork start method, which this platform "
            "lacks; one worker with no timeout runs everywhere"
        )
    return resolved


def _child(conn: Any, parent_ends: List[Any], fn: Callable[[Any], Any],
           items: List[Any]) -> None:
    # Ctrl-C reaches the whole process group; the parent alone answers
    # it, by killing its children.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A copy of the parent's ends left open here would hide the parent's
    # exit from a child waiting for its next item.
    for end in parent_ends:
        end.close()
    with contextlib.suppress(EOFError):  # EOF: the parent is gone
        for index in iter(conn.recv, None):
            try:
                conn.send((True, fn(items[index])))
            except Exception:  # noqa: BLE001 — fn's error, or an unpicklable result
                conn.send((False, traceback.format_exc()))


def fork_imap(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: int,
    timeout: Optional[float] = None,
) -> Iterator[Tuple[Any, int]]:
    """Yield ``(outcome, runs)`` for each item, in item order.

    ``outcome`` is ``fn(item)``, :class:`Lost` once the item's child
    died :data:`RERUN_LIMIT` + 1 times, or :class:`Expired` once a child
    ran it past ``timeout`` seconds (None or 0: no limit); ``runs``
    counts the children that ran it.  With one worker and no timeout
    every item runs in this process (``runs`` is 1, and ``fn``'s
    exceptions propagate as they are); with a timeout every item runs in
    a child, which the parent can kill (:func:`pool_size` refuses a
    timeout where there is no ``fork``).

    A child serves item after item over one pipe: the parent sends the
    next pending index, the child sends back the result, so many small
    items cost ``workers`` forks, not one each.  The parent waits on the
    pipes, not on exits, until the nearest deadline: a pipe is ready
    with the result or, once its child is dead, at end of file.
    """
    items = list(items)
    if workers <= 1 and not timeout:
        for item in items:
            yield fn(item), 1
        return
    context = multiprocessing.get_context("fork")
    pending = deque(range(len(items)))
    runs = [0] * len(items)
    #: index -> (True, result) | (False, child traceback) | (None, Lost | Expired)
    done: Dict[int, Tuple[Optional[bool], Any]] = {}
    #: the parent's end of each child's pipe -> [process, index it runs,
    #: that run's deadline or None]
    children: Dict[Any, List[Any]] = {}

    def reap(conn: Any) -> Any:
        process = children.pop(conn)[0]
        process.join()
        conn.close()
        return process

    def hand_out(conn: Any) -> None:
        """Send the child its next item, or stop it if there is none.

        A child killed since its last result shows up at end of file on
        the next wait, where the item sent to it is counted as lost."""
        index = pending.popleft() if pending else None
        if index is not None:
            children[conn][1:] = index, timeout and time.monotonic() + timeout
            runs[index] += 1
        with contextlib.suppress(OSError):
            conn.send(index)
        if index is None:
            reap(conn)

    try:
        for index in range(len(items)):
            while index not in done:
                while pending and len(children) < workers:
                    conn, child_end = context.Pipe()
                    # Not daemonic: a child may run a pool of its own
                    # (a budgeted campaign forks even at one worker).
                    # The finally below reaps every child regardless.
                    process = context.Process(
                        target=_child,
                        args=(child_end, [*children, conn], fn, items),
                    )
                    process.start()
                    child_end.close()  # else it outlives the child
                    children[conn] = [process, None, None]
                    hand_out(conn)
                wait_for = None
                if timeout:
                    nearest = min(c[2] for c in children.values())
                    wait_for = max(0.0, nearest - time.monotonic())
                for conn in multiprocessing.connection.wait(list(children), wait_for):
                    running = children[conn][1]
                    try:
                        done[running] = conn.recv()
                    except (EOFError, OSError):  # died before its result was whole
                        process = reap(conn)
                        if runs[running] <= RERUN_LIMIT:
                            pending.appendleft(running)
                        else:
                            done[running] = (None, Lost(process.exitcode))
                        continue
                    hand_out(conn)
                # A result or an end of file that came in since the wait
                # is taken on the next one, not mistaken for an overrun.
                now = time.monotonic()
                for conn, (process, running, deadline) in list(children.items()):
                    if timeout and deadline <= now and not conn.poll():
                        process.kill()
                        reap(conn)
                        done[running] = (None, Expired(timeout))
            ok, outcome = done.pop(index)
            if ok is False:
                raise ChildError(outcome)
            yield outcome, runs[index]
    finally:
        for conn in list(children):
            children[conn][0].kill()
            reap(conn)
