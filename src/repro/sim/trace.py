"""Run traces: schedules, decisions, operations, detector samples.

A run of an algorithm using a failure detector is the tuple
``R = <F, H, I, S, T>`` of Section 2.  :class:`RunTrace` is the recorded
counterpart: the failure pattern, the schedule of steps with their
times, the detector samples seen at each step (the observable part of
``H``), and the higher-level records — decisions made by components and
invocation/response events of operations — from which the problem-level
property checkers in :mod:`repro.analysis.properties` draw verdicts.

Two recording modes:

* ``"full"`` (default) retains every :class:`Step` and detector sample —
  what the spec checkers and the export/analysis tooling consume;
* ``"lite"`` keeps only counters, decisions, operations and annotations,
  so horizon-length runs executed in campaign worker processes ship
  kilobytes back to the parent instead of megabytes — and, keeping no
  sample, never reads the detector on its own account: the only reads
  of ``H`` in a lite run are the protocol's.

Both modes maintain an order-sensitive sha256 digest over the schedule
and the decision sequence; two runs with equal :meth:`RunTrace.digest`
took the same steps in the same order with the same message ids —
the determinism witness the campaign engine's tests pin.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.failure_pattern import FailurePattern
from repro.core.history import SampledHistory


@dataclass(frozen=True)
class Step:
    """One atomic step ⟨p, m, d⟩ taken at a given time.

    ``message`` is None for a λ-step (no message received).
    """

    time: int
    pid: int
    message: Optional["DeliveredMessage"]
    detector_value: Any


@dataclass(frozen=True, init=False)
class DeliveredMessage:
    """The message component of a step, as seen by the receiver."""

    msg_id: int
    sender: int
    component: str
    payload: Any
    send_time: int

    def __init__(
        self, msg_id: int, sender: int, component: str, payload: Any, send_time: int
    ) -> None:
        # One per delivery: fill the instance dict directly instead of
        # the frozen dataclass's five ``object.__setattr__`` calls.
        fields = self.__dict__
        fields["msg_id"] = msg_id
        fields["sender"] = sender
        fields["component"] = component
        fields["payload"] = payload
        fields["send_time"] = send_time


@dataclass(frozen=True)
class Decision:
    """A component's irrevocable decision (consensus/QC/NBAC outcome)."""

    time: int
    pid: int
    component: str
    value: Any


@dataclass
class OperationRecord:
    """An operation's invocation/response interval (register workloads).

    ``response_time`` is None while the operation is pending; operations
    that never complete (e.g. a blocked read under an unavailable
    quorum) keep ``response_time = None``, which the linearizability
    checker treats as "may or may not have taken effect".
    """

    op_id: int
    pid: int
    component: str
    kind: str
    args: Tuple[Any, ...]
    invoke_time: int
    response_time: Optional[int] = None
    result: Any = None

    @property
    def pending(self) -> bool:
        return self.response_time is None


def _decision_bytes(decision: Decision) -> bytes:
    return (
        f"d{decision.time}:{decision.pid}:{decision.component}:"
        f"{decision.value!r}"
    ).encode()


class RunTrace:
    """Everything observable about one simulated run."""

    def __init__(self, pattern: FailurePattern, horizon: int, mode: str = "full"):
        if mode not in ("full", "lite"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.pattern = pattern
        self.horizon = horizon
        self.mode = mode
        self.steps: List[Step] = []
        self.decisions: List[Decision] = []
        self.operations: List[OperationRecord] = []
        self.detector_samples = SampledHistory(pattern.n)
        self.messages_sent = 0
        self.messages_delivered = 0
        self.stop_reason: str = "horizon"
        self.final_time: int = 0
        #: Arbitrary per-run annotations set by components/experiments.
        self.annotations: Dict[str, Any] = {}
        self._decided: Dict[Tuple[int, str], Decision] = {}
        self._component_decided: Dict[str, set] = {}
        self._next_op_id = 0
        self._step_total = 0
        self._steps_by_pid = [0] * pattern.n
        self._digest = hashlib.sha256()
        # Step digest bytes are buffered and hashed in batches; sha256
        # over the concatenation equals per-step updates, so digests stay
        # byte-identical while the hot loop skips a hash call per tick.
        self._digest_parts: List[bytes] = []
        #: Optional :class:`~repro.sim.perf.PerfCounters` attached by the
        #: running system; surfaced through campaign summaries.
        self.perf = None

    @property
    def record_full(self) -> bool:
        return self.mode == "full"

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_step(
        self,
        time: int,
        pid: int,
        message: Optional[DeliveredMessage],
        detector: Callable[[], Any],
    ) -> None:
        """Record the step ``pid`` took at ``time`` (``message`` None: a λ-step).

        ``detector`` is the stepping process's zero-argument detector
        provider, not a value: it is called — and a :class:`Step` built —
        only by a trace that retains steps and samples.  Counters and
        digest bytes (``s<time>:<pid>:<msg_id>``) never depend on ``d``,
        so a lite trace records a tick without evaluating ``H`` at all.
        """
        self.final_time = time
        self._step_total += 1
        self._steps_by_pid[pid] += 1
        msg_id = message.msg_id if message is not None else -1
        self._digest_parts.append(b"s%d:%d:%d" % (time, pid, msg_id))
        if len(self._digest_parts) >= 4096:
            self._flush_digest()
        if self.mode == "full":
            detector_value = detector()
            self.steps.append(Step(time, pid, message, detector_value))
            if detector_value is not None:
                self.detector_samples.record(pid, time, detector_value)

    def _flush_digest(self) -> None:
        if self._digest_parts:
            self._digest.update(b"".join(self._digest_parts))
            self._digest_parts.clear()

    def record_decision(self, decision: Decision) -> None:
        key = (decision.pid, decision.component)
        if key in self._decided:
            raise RuntimeError(
                f"process {decision.pid} component {decision.component!r} "
                f"decided twice: {self._decided[key].value!r} then "
                f"{decision.value!r}"
            )
        self._decided[key] = decision
        self._component_decided.setdefault(decision.component, set()).add(
            decision.pid
        )
        self.decisions.append(decision)
        # Flush buffered step bytes first so the decision lands in the
        # digest at the same byte offset as with unbuffered updates.
        self._flush_digest()
        self._digest.update(_decision_bytes(decision))

    def new_operation(
        self, pid: int, component: str, kind: str, args: Tuple[Any, ...], time: int
    ) -> OperationRecord:
        record = OperationRecord(
            op_id=self._next_op_id,
            pid=pid,
            component=component,
            kind=kind,
            args=args,
            invoke_time=time,
        )
        self._next_op_id += 1
        self.operations.append(record)
        return record

    def rollback(self, time: int) -> None:
        """Forget everything recorded at ticks ``>= time``.

        Afterwards the trace is what a run stopped just before tick
        ``time`` would have recorded, :meth:`digest` included: steps,
        detector samples and decisions from ``time`` on are dropped,
        operations invoked from ``time`` on are dropped and those that
        responded from ``time`` on are pending again.  The digest is
        re-accumulated from what is kept — a decision is hashed before
        the step of its own tick, which is the order a live run
        produces (the decision is made inside the step, the step is
        recorded after it).  The message totals are left alone:
        :meth:`System.run` stamps them from the network when it returns.

        Needs the retained steps of a ``"full"`` trace; annotations are
        free-form and cannot be rolled back, so a trace carrying any is
        refused.
        """
        if not self.record_full:
            raise ValueError("rollback needs a full-mode trace (steps retained)")
        if self.annotations:
            raise ValueError("cannot roll back a trace that carries annotations")
        steps = self.steps
        while steps and steps[-1].time >= time:
            steps.pop()
        decisions = self.decisions
        while decisions and decisions[-1].time >= time:
            decisions.pop()
        operations = self.operations
        while operations and operations[-1].invoke_time >= time:
            operations.pop()
        for op in operations:
            if op.response_time is not None and op.response_time >= time:
                op.response_time = None
                op.result = None
        self._next_op_id = len(operations)
        self.detector_samples.drop_from(time)
        self._decided = {(d.pid, d.component): d for d in decisions}
        self._component_decided = {}
        for d in decisions:
            self._component_decided.setdefault(d.component, set()).add(d.pid)
        self._step_total = len(steps)
        self._steps_by_pid = [0] * self.pattern.n
        self._digest = hashlib.sha256()
        parts = self._digest_parts = []
        made = 0
        for step in steps:
            self._steps_by_pid[step.pid] += 1
            while made < len(decisions) and decisions[made].time <= step.time:
                parts.append(_decision_bytes(decisions[made]))
                made += 1
            msg_id = step.message.msg_id if step.message is not None else -1
            parts.append(b"s%d:%d:%d" % (step.time, step.pid, msg_id))
        self.final_time = steps[-1].time if steps else 0
        self.stop_reason = "horizon"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def decision_of(self, pid: int, component: str) -> Optional[Decision]:
        return self._decided.get((pid, component))

    def decisions_of_component(self, component: str) -> List[Decision]:
        return [d for d in self.decisions if d.component == component]

    def decided_pids(self, component: str) -> set[int]:
        return set(self._component_decided.get(component, ()))

    def all_correct_decided(self, component: str) -> bool:
        """Whether every correct process has decided in ``component``."""
        return self.pattern.correct <= self._component_decided.get(
            component, frozenset()
        )

    def step_count(self, pid: Optional[int] = None) -> int:
        # In full mode count the retained list (tests may append to it
        # directly); lite mode has only the counters.
        if self.record_full:
            if pid is None:
                return len(self.steps)
            return sum(1 for s in self.steps if s.pid == pid)
        if pid is None:
            return self._step_total
        return self._steps_by_pid[pid]

    def digest(self) -> str:
        """Order-sensitive hash of the schedule + decision sequence."""
        self._flush_digest()
        return self._digest.hexdigest()

    def decision_latency(self, component: str) -> Optional[int]:
        """Time by which the last correct process decided, or None."""
        decisions = [
            d for d in self.decisions_of_component(component)
            if d.pid in self.pattern.correct
        ]
        if not self.all_correct_decided(component):
            return None
        return max(d.time for d in decisions)

    def completed_operations(self, component: Optional[str] = None) -> List[OperationRecord]:
        return [
            op
            for op in self.operations
            if not op.pending and (component is None or op.component == component)
        ]

    def summary(self) -> Dict[str, Any]:
        """A compact dict for experiment tables."""
        return {
            "steps": self.step_count(),
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "decisions": len(self.decisions),
            "operations": len(self.operations),
            "final_time": self.final_time,
            "stop_reason": self.stop_reason,
            "faulty": sorted(self.pattern.faulty),
        }
