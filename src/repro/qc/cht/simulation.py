"""The virtual runtime: executing algorithm A inside a simulated run.

Figure 3's task 1 (line 6) "constructs a forest of ever-increasing
simulated runs of algorithm A using D that could have occurred with the
current failure pattern and failure detector history".  To make that
literal, the same :class:`~repro.protocols.base.ProtocolCore` objects
that execute A in the real system are instantiated inside a
:class:`VirtualRuntime` — a sandbox with its own message buffer and
tasklet drivers — and stepped along paths of the sample DAG: the i-th
step of a simulated run is taken by the process of the i-th path vertex
and sees that vertex's detector value.

A run/schedule is *compatible* with a DAG path exactly as in [3]: the
sequence of (process, detector value) pairs of its steps matches the
path.  Message delivery inside a step is deterministic (oldest pending
message to the stepping process, else λ), so a schedule is fully
reproducible from its sample sequence — which is what lets the Figure 3
algorithm ship schedules to other processes inside QC proposals and the
Σ-extraction replay configurations by prefix instead of snapshotting
live generators.

A path is chosen by :class:`BalancedPathDriver` from per-process pools
that are the DAG's own growing sample lists.  The Σ-extraction's
simulated runs (lines 28-31) are :class:`SimulationAttempt` objects: an
attempt that did not decide is run again once gossip has grown the DAG,
and it resumes from the first choice the new samples can change instead
of re-simulating from scratch — with the result a fresh attempt on the
grown DAG would give (the class docstring has the rule and why it is
exact).  :func:`simulate_run` is an attempt run once; the forest's
canonical runs (:class:`~repro.qc.cht.forest.TreeRun`) grow through the
same driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.protocols.base import ProtocolContext, ProtocolCore
from repro.qc.cht.samples import Sample, SampleDag
from repro.sim.tasklets import TaskletDriver


@dataclass
class VirtualMessage:
    seq: int
    sender: int
    dest: int
    payload: Any


class VirtualContext(ProtocolContext):
    """Context for one simulated process inside a virtual runtime."""

    def __init__(self, runtime: "VirtualRuntime", pid: int):
        self.runtime = runtime
        self.pid = pid
        self.n = runtime.n

    def send(self, dest: int, payload: Any) -> None:
        self.runtime._enqueue(self.pid, dest, payload)

    def broadcast(self, payload: Any) -> None:
        for dest in range(self.n):
            self.runtime._enqueue(self.pid, dest, payload)

    def detector(self) -> Any:
        return self.runtime._current_d[self.pid]

    def spawn(self, gen: Generator, name: str = "") -> None:
        self.runtime._drivers[self.pid].spawn(gen, name)


class VirtualRuntime:
    """A sandboxed n-process system executing cores of algorithm A.

    Parameters
    ----------
    n:
        Number of simulated processes.
    core_factory:
        ``core_factory(pid)`` builds the (unattached) core of A for
        process ``pid``.
    proposals:
        Initial configuration: ``proposals[pid]`` is handed to the
        core's ``propose`` before its first step.
    """

    def __init__(
        self,
        n: int,
        core_factory: Callable[[int], ProtocolCore],
        proposals: Sequence[Any],
    ):
        if len(proposals) != n:
            raise ValueError("need one proposal per process")
        self.n = n
        self.proposals = list(proposals)
        self.cores: List[ProtocolCore] = [core_factory(pid) for pid in range(n)]
        self._drivers = [TaskletDriver() for _ in range(n)]
        self._started = [False] * n
        self._buffers: List[List[VirtualMessage]] = [[] for _ in range(n)]
        self._next_msg_seq = 0
        self._current_d: List[Any] = [None] * n
        self.steps_taken = 0
        #: pids that took at least one step (Σ-extraction quorums).
        self.step_takers: set[int] = set()

    # ------------------------------------------------------------------
    def _enqueue(self, sender: int, dest: int, payload: Any) -> None:
        self._buffers[dest].append(
            VirtualMessage(self._next_msg_seq, sender, dest, payload)
        )
        self._next_msg_seq += 1

    def _ensure_started(self, pid: int) -> None:
        if self._started[pid]:
            return
        self._started[pid] = True
        core = self.cores[pid]
        core.attach(VirtualContext(self, pid))
        core.start()
        propose = getattr(core, "propose", None)
        if callable(propose):
            propose(self.proposals[pid])

    def step(self, pid: int, detector_value: Any) -> None:
        """One atomic simulated step ⟨pid, oldest-message-or-λ, d⟩.

        The receivable message is chosen *before* the core runs, so a
        message the process sends within this very step (e.g. from
        ``start``) is not delivered back to it in the same step —
        matching the real network's minimum delay of one.
        """
        buffer = self._buffers[pid]
        msg = buffer.pop(0) if buffer else None
        self._current_d[pid] = detector_value
        self._ensure_started(pid)
        if msg is not None:
            self.cores[pid].on_message(msg.sender, msg.payload)
        self._drivers[pid].advance()
        self.steps_taken += 1
        self.step_takers.add(pid)

    def decision_of(self, pid: int) -> Any:
        return self.cores[pid].decision

    def decided(self, pid: int) -> bool:
        return self.cores[pid].decided


def apply_schedule(runtime: VirtualRuntime, schedule: Sequence[Sample]) -> None:
    """Apply a recorded schedule (its sample sequence) to a runtime."""
    for sample in schedule:
        runtime.step(sample.pid, sample.value)


class BalancedPathDriver:
    """Chooses the next vertex of a canonical fair DAG path.

    The naive greedy path ("apply whatever is compatible") starves
    processes whose samples only learn about the path tip through
    gossip: the simulating process's own samples are always compatible,
    so the tip outruns everyone else forever, the simulated leader never
    steps, and the run never decides.  The balanced driver instead
    always prefers the process with the *fewest applied steps*, and when
    that laggard has no compatible sample yet it waits (reporting "no
    progress") for up to ``patience`` attempts before *benching* the
    laggard — correct processes deliver a compatible sample within a
    gossip round-trip and get unbenched on arrival; crashed processes
    stay benched, exactly as a fair schedule must eventually exclude
    them.

    The candidates are per-process pools: ``pools[q]`` holds q's samples
    in sequence order (typically the DAG's own growing list) and
    ``used[q]`` is the index of q's next candidate.  A choice is a
    :meth:`scan` of the pools followed by a :meth:`pick`;
    :meth:`choose` does both.
    """

    def __init__(self, n: int, patience: int = 12):
        self.n = n
        self.patience = patience
        self.applied_counts = [0] * n
        self.tip: Tuple[int, int] = (-1, 0)
        self._stall = [0] * n
        self._benched = [False] * n

    def note_prefix(self, schedule: Sequence[Sample]) -> None:
        """Account for an already-applied prefix."""
        for sample in schedule:
            self.applied_counts[sample.pid] += 1
        if schedule:
            self.tip = (schedule[-1].pid, schedule[-1].seq)

    def scan(
        self, pools: Sequence[Sequence[Sample]], used: List[int]
    ) -> Dict[int, Sample]:
        """Each process's next *tip-compatible* sample, by pid.

        Samples skipped as tip-incompatible are consumed for good
        (``used[q]`` moves past them): once a sample fails to descend
        from the tip it can never rejoin this path.  The driver's own
        state is left as it was.
        """
        pid, seq = self.tip
        available: Dict[int, Sample] = {}
        for q in range(self.n):
            pool = pools[q]
            idx = used[q]
            while idx < len(pool):
                sample = pool[idx]
                if sample.compatible_after(pid, seq):
                    available[q] = sample
                    break
                idx += 1
            used[q] = idx
        return available

    def pick(self, available: Dict[int, Sample]) -> Optional[Sample]:
        """The next path vertex among one scan's samples, or None to
        wait for the DAG.  A process with a sample is unbenched."""
        if not available:
            return None
        for q in available:
            self._benched[q] = False
            self._stall[q] = 0

        # The fairness frontier: the least-applied unbenched processes.
        active = [q for q in range(self.n) if not self._benched[q]]
        frontier = min(self.applied_counts[q] for q in active)
        laggards = [
            q
            for q in active
            if self.applied_counts[q] == frontier and q not in available
        ]
        if laggards:
            # Give gossip a chance to produce the laggards' samples.
            exhausted = True
            for q in laggards:
                self._stall[q] += 1
                if self._stall[q] <= self.patience:
                    exhausted = False
                else:
                    self._benched[q] = True
            if not exhausted:
                return None

        # Apply the least-applied process that actually has a sample.
        q = min(available, key=lambda r: (self.applied_counts[r], r))
        sample = available[q]
        self.applied_counts[q] += 1
        self.tip = (sample.pid, sample.seq)
        return sample

    def choose(
        self, pools: Sequence[Sequence[Sample]], used: List[int]
    ) -> Optional[Sample]:
        """Scan and pick; the picked sample is consumed from its pool."""
        sample = self.pick(self.scan(pools, used))
        if sample is not None:
            used[sample.pid] += 1
        return sample

    def state(self) -> Tuple:
        """A copy of everything :meth:`pick` reads and writes."""
        return (
            self.tip,
            list(self.applied_counts),
            list(self._stall),
            list(self._benched),
        )

    def restore(self, state: Tuple) -> None:
        tip, applied, stall, benched = state
        self.tip = tip
        self.applied_counts = list(applied)
        self._stall = list(stall)
        self._benched = list(benched)


@dataclass
class _ChoicePoint:
    """An attempt just before one choice: enough to redo that choice,
    and everything after it, on a grown DAG."""

    call: int  #: choices made before this one
    length: int  #: schedule length (prefix included)
    driver: Tuple  #: :meth:`BalancedPathDriver.state`
    used: List[int]  #: pool indices after the choice's scan


class SimulationAttempt:
    """A simulated run of A from an initial configuration, kept across
    retries on a growing DAG.

    :meth:`run` replays ``prefix`` (a recorded schedule), then extends
    along a balanced path using the DAG's samples — optionally only
    those that are descendants of ``restrict_after`` (line 29's
    "subgraph induced by the descendants of u", the freshness device of
    the Σ-extraction) — until ``target`` decides, the path runs dry or
    ``max_steps`` steps were added.  The DAG cannot grow during a run,
    so waiting for gossip is pointless there and ``patience`` is kept
    minimal; an attempt that did not decide is run again once the DAG
    has grown.

    A retry returns exactly what a fresh attempt on the grown DAG would,
    but only recomputes the path from the first choice the new samples
    can change.  The path depends on the pools alone (A only decides
    where it stops), and the pools are the DAG's append-only lists, so a
    choice can only come out differently where some process ``q`` had no
    tip-compatible sample.  The attempt journals, per process, the first
    such choice point.  A later point where ``q`` had none cannot gain a
    sample unless this one does: path tips form a descent chain, and a
    sample descending from a later tip descends from every earlier one.
    Knowledge vectors are monotone along q's list, so "q has a new
    sample for this point" is one look at q's newest sample: does it
    descend from ``restrict_after`` and from the point's tip?  A retry
    restarts from the earliest journaled point whose process passes,
    lifting every pool index to ``first_descendant(q, restrict_after)``
    (a process none of whose samples descended from the pivot before
    may have descendants now).  With no such point, nothing changed.

    The runtime is kept while the recomputed path repeats the old one —
    the old path never decided, so no decision is missed — and rebuilt
    from the prefix and the common part at the first differing sample.
    :attr:`steps_executed` counts the steps of A actually executed over
    all runs, replays included.
    """

    def __init__(
        self,
        n: int,
        core_factory: Callable[[int], ProtocolCore],
        proposals: Sequence[Any],
        dag: SampleDag,
        target: int,
        prefix: Sequence[Sample] = (),
        restrict_after: Optional[Sample] = None,
        max_steps: int = 100_000,
        patience: int = 2,
    ):
        self.n = n
        self.core_factory = core_factory
        self.proposals = list(proposals)
        self.dag = dag
        self.target = target
        self.restrict_after = restrict_after
        self._end = len(prefix) + max_steps
        self.schedule: List[Sample] = list(prefix)
        self.runtime: Optional[VirtualRuntime] = None
        self.steps_executed = 0

        # Each pool is the DAG's own list of q's samples, entered at the
        # index where the eligible window starts: the descendants of
        # ``restrict_after`` are a suffix (knowledge vectors are monotone
        # along the list; :meth:`_resume` bisects for it), and so are the
        # samples the prefix did not consume (seq ``k`` sits at index
        # ``k - 1``).
        self._pools = [dag.samples_view(q) for q in range(n)]
        used = [0] * n
        if restrict_after is None:
            for s in prefix:
                used[s.pid] = max(used[s.pid], s.seq)
        self._driver = BalancedPathDriver(n, patience=patience)
        self._driver.note_prefix(self.schedule)
        self._start = _ChoicePoint(0, len(prefix), self._driver.state(), used)
        self._calls = 0
        #: q -> the first choice point at which q had no sample.
        self._journal: Dict[int, _ChoicePoint] = {}

    def run(self) -> Tuple[VirtualRuntime, List[Sample], bool]:
        """Run (or resume) on the DAG as it is now.

        Returns ``(runtime, full schedule, target decided?)``; the
        runtime has executed exactly the schedule.
        """
        point = self._restart_point()
        if point is not None:
            self._resume(point)
        assert self.runtime is not None
        return self.runtime, self.schedule, self.runtime.decided(self.target)

    def _restart_point(self) -> Optional[_ChoicePoint]:
        if self.runtime is None:
            return self._start
        u = self.restrict_after
        earliest: Optional[_ChoicePoint] = None
        for q, point in self._journal.items():
            pool = self._pools[q]
            if len(pool) <= point.used[q]:
                continue  # nothing new from q
            newest = pool[-1]
            tip = point.driver[0]  # the driver state leads with the tip
            if (u is None or newest.descends_from(u)) and newest.compatible_after(*tip):
                if earliest is None or point.call < earliest.call:
                    earliest = point
        return earliest

    def _replay(self, schedule: Sequence[Sample]) -> VirtualRuntime:
        runtime = VirtualRuntime(self.n, self.core_factory, self.proposals)
        apply_schedule(runtime, schedule)
        self.steps_executed += len(schedule)
        return runtime

    def _resume(self, point: _ChoicePoint) -> None:
        n, pools, target, driver = self.n, self._pools, self.target, self._driver
        driver.restore(point.driver)
        used = list(point.used)
        u = self.restrict_after
        if u is not None:
            for q in range(n):
                used[q] = max(used[q], self.dag.first_descendant(q, u))
        self._calls = point.call
        journal = {q: p for q, p in self._journal.items() if p.call < point.call}
        self._journal = journal

        old = self.schedule
        schedule = old[: point.length]
        self.schedule = schedule
        # ``runtime`` has executed ``old[:executed]``.
        if self.runtime is None:
            runtime, executed = self._replay(schedule), len(schedule)
        else:
            runtime, executed = self.runtime, len(old)

        while len(schedule) < self._end:
            if executed == len(schedule) and runtime.decided(target):
                break
            available = driver.scan(pools, used)
            if len(available) < n:
                snapshot = None
                for q in range(n):
                    if q not in available and q not in journal:
                        if snapshot is None:
                            snapshot = _ChoicePoint(
                                self._calls, len(schedule), driver.state(),
                                list(used),
                            )
                        journal[q] = snapshot
            self._calls += 1
            if not available:
                break  # the path is dry
            sample = driver.pick(available)
            if sample is None:
                continue  # waiting out a laggard's patience
            used[sample.pid] += 1
            i = len(schedule)
            schedule.append(sample)
            if executed > i:
                if old[i] is sample:
                    continue  # the kept runtime took this step already
                runtime, executed = self._replay(schedule[:i]), i
            runtime.step(sample.pid, sample.value)
            self.steps_executed += 1
            executed += 1
        # A recomputed path that repeats the old one ends no earlier: it
        # has every sample the old one had at each of its choices.
        assert executed == len(schedule)
        self.runtime = runtime


def simulate_run(
    n: int,
    core_factory: Callable[[int], ProtocolCore],
    proposals: Sequence[Any],
    dag: SampleDag,
    target: int,
    prefix: Sequence[Sample] = (),
    restrict_after: Optional[Sample] = None,
    max_steps: int = 100_000,
    patience: int = 2,
) -> Tuple[VirtualRuntime, List[Sample], bool]:
    """A one-shot simulated run: a :class:`SimulationAttempt` run once.

    Returns ``(runtime, full schedule, target decided?)``.
    """
    return SimulationAttempt(
        n, core_factory, proposals, dag, target, prefix,
        restrict_after, max_steps, patience,
    ).run()
