"""Tasklet driving, shared by real processes and virtual runtimes.

A *tasklet* is a generator that encodes a multi-phase protocol as
straight-line code, yielding :class:`WaitUntil` / :class:`WaitSteps`
conditions between phases.  :class:`TaskletDriver` owns a set of
tasklets and advances every runnable one once per step.

The driver is deliberately host-agnostic: the real
:class:`~repro.sim.process.ProcessHost` uses one per process, and the
CHT-style simulation of Figure 3 (:mod:`repro.qc.cht.simulation`) uses
one per *simulated* process, so the very same protocol-core code runs
in both worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List


class WaitUntil:
    """Resume when ``predicate()`` is truthy; its value is sent back in.

    ``collected = yield WaitUntil(lambda: self.acks_quorum())`` both
    waits for and harvests a condition's witness.
    """

    __slots__ = ("predicate",)

    def __init__(self, predicate: Callable[[], Any]):
        self.predicate = predicate


class WaitSteps:
    """Resume after ``k`` further steps of the hosting process."""

    __slots__ = ("remaining",)

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.remaining = k


@dataclass(slots=True)
class _Tasklet:
    gen: Generator
    wait: Any = None
    started: bool = False
    done: bool = False
    name: str = ""


class TaskletDriver:
    """Advances a set of tasklets; one :meth:`advance` call per step."""

    #: Bound on intra-step cascades (tasklet A unblocking tasklet B).
    MAX_CASCADE = 16

    def __init__(self) -> None:
        self._tasklets: List[_Tasklet] = []

    def spawn(self, gen: Generator, name: str = "") -> None:
        self._tasklets.append(_Tasklet(gen=gen, name=name))

    @property
    def active_count(self) -> int:
        return sum(1 for t in self._tasklets if not t.done)

    def advance(self) -> None:
        """Resume every runnable tasklet; cascade predicate re-checks.

        One ``advance`` is one step of the hosting process.  The first
        pass visits every tasklet and is the only pass allowed to tick
        ``WaitSteps`` counters — a step is one step, however many
        cascade passes follow.  The cascade passes re-check only
        ``WaitUntil`` predicates (and start freshly-spawned tasklets),
        so that a tasklet unblocked by another one within the same step
        still runs in that step.

        A pass visits the tasklets present when it began: one spawned
        during a pass (only appends happen mid-pass) is first started
        by the next, cascade pass.  The whole step runs in this one
        frame, and finished tasklets leave the list at its end.
        """
        tasklets = self._tasklets
        if not tasklets:
            return
        finished = False
        tick_waitsteps = True
        passes_left = self.MAX_CASCADE
        while True:
            progressed = False
            index, count = 0, len(tasklets)
            while index < count:
                task = tasklets[index]
                index += 1
                if task.done:
                    continue
                send_value: Any = None
                if task.started:
                    wait = task.wait
                    if isinstance(wait, WaitUntil):
                        send_value = wait.predicate()
                        if not send_value:
                            continue
                    elif isinstance(wait, WaitSteps):
                        if not tick_waitsteps:
                            continue
                        wait.remaining -= 1
                        if wait.remaining > 0:
                            continue
                    else:
                        raise TypeError(
                            f"tasklet {task.name!r} yielded {wait!r}"
                        )
                progressed = True
                try:
                    if task.started:
                        task.wait = task.gen.send(send_value)
                    else:
                        task.started = True
                        task.wait = next(task.gen)
                except StopIteration:
                    task.done = True
                    task.wait = None
                    finished = True
            passes_left -= 1
            if not progressed or not passes_left:
                break
            tick_waitsteps = False
        if finished:
            self._tasklets = [t for t in tasklets if not t.done]
