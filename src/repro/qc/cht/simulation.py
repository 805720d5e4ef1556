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

    Pool access is pluggable: ``peek(q)`` returns q's next candidate
    sample (skipping permanently-incompatible ones is the caller's
    business via ``advance(q)``).
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

    def choose(self, peek) -> Optional[Sample]:
        """Pick the next path vertex, or None to wait for the DAG.

        ``peek(q)`` must return q's next *tip-compatible* sample or
        None.  A compatible sample from a benched process unbenches it.
        """
        available: Dict[int, Sample] = {}
        for q in range(self.n):
            sample = peek(q)
            if sample is not None:
                available[q] = sample
                if self._benched[q]:
                    self._benched[q] = False
                self._stall[q] = 0

        if not available:
            return None

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


def canonical_extension(
    runtime: VirtualRuntime,
    per_process: Sequence[Sequence[Sample]],
    used: Dict[int, int],
    driver: BalancedPathDriver,
    target: int,
    max_steps: int,
) -> Tuple[List[Sample], bool]:
    """Extend a run along the driver's balanced DAG path until
    ``target`` decides, the driver wants to wait for more samples, or
    ``max_steps`` is reached.

    ``per_process[q]`` is the pool of q's candidate samples in sequence
    order; ``used[q]`` is the index of the next candidate and tracks
    consumption (a caller starts it past the samples that are not
    eligible at all; samples skipped as tip-incompatible are consumed
    for good — once a sample fails to descend from the tip it can never
    rejoin this path).

    Returns ``(steps applied, target decided?)``.
    """
    applied: List[Sample] = []

    def peek(q: int) -> Optional[Sample]:
        pool = per_process[q]
        idx = used.get(q, 0)
        while idx < len(pool):
            sample = pool[idx]
            if sample.compatible_after(*driver.tip):
                used[q] = idx
                return sample
            idx += 1
        used[q] = idx
        return None

    while len(applied) < max_steps and not runtime.decided(target):
        sample = driver.choose(peek)
        if sample is None:
            break
        used[sample.pid] = used.get(sample.pid, 0) + 1
        runtime.step(sample.pid, sample.value)
        applied.append(sample)
    return applied, runtime.decided(target)


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
    """Build a simulated run of A from an initial configuration.

    Replays ``prefix`` (a recorded schedule), then extends along a
    balanced path using the DAG's samples — optionally only those that
    are proper descendants of ``restrict_after`` (line 29's "subgraph
    induced by the descendants of u", the freshness device of the
    Σ-extraction).  The DAG cannot grow during the call, so waiting for
    gossip is pointless here and ``patience`` is kept minimal; callers
    that need fresher samples re-invoke with the grown DAG.

    Returns ``(runtime, full schedule, target decided?)``.
    """
    runtime = VirtualRuntime(n, core_factory, proposals)
    apply_schedule(runtime, prefix)
    schedule = list(prefix)

    driver = BalancedPathDriver(n, patience=patience)
    driver.note_prefix(schedule)

    # Each pool is the DAG's own list of q's samples, entered at the
    # index where the eligible window starts: the descendants of
    # ``restrict_after`` are a suffix (knowledge vectors are monotone
    # along the list), and so are the samples the prefix did not consume
    # (seq ``k`` sits at index ``k - 1``).
    pools = [dag.samples_view(q) for q in range(n)]
    used: Dict[int, int]
    if restrict_after is not None:
        used = {q: dag.first_descendant(q, restrict_after) for q in range(n)}
    else:
        used = dict.fromkeys(range(n), 0)
        for s in prefix:
            used[s.pid] = max(used[s.pid], s.seq)

    decided = False
    while not decided and runtime.steps_taken - len(prefix) < max_steps:
        applied, decided = canonical_extension(
            runtime, pools, used, driver, target, max_steps
        )
        schedule.extend(applied)
        if not applied and not decided:
            # No step was possible.  The pools cannot grow meanwhile, so
            # either the driver is waiting out its laggard patience
            # (retry immediately — the stall counters tick until the
            # laggard is benched) or the path is genuinely dry.
            if not _driver_waiting(driver, pools, used):
                break
    return runtime, schedule, decided


def _driver_waiting(
    driver: BalancedPathDriver,
    pools: Sequence[Sequence[Sample]],
    used: Dict[int, int],
) -> bool:
    """Whether the driver would still make progress on retry (it is
    waiting out patience rather than out of samples)."""
    for q in range(len(pools)):
        idx = used.get(q, 0)
        pool = pools[q]
        while idx < len(pool):
            if pool[idx].compatible_after(*driver.tip):
                return True
            idx += 1
    return False
