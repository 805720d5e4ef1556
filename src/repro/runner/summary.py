"""Per-run result records shipped from workers back to the parent.

A :class:`RunSummary` is the compact, picklable residue of one run:
cost counters, decision records (values as ``repr`` strings, so sentinel
identity never leaks across process boundaries), per-component decision
latencies and operation counts, the verdict/metric dict produced by the
spec's summarize hook, and a digest of the step schedule.  Everything
except ``wall_clock``/``cached`` is a pure function of the
:class:`~repro.runner.spec.RunSpec`, which :meth:`RunSummary.stable_digest`
makes checkable: serial, pooled and cache-warmed executions of one spec
must agree byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.runner.fingerprint import fingerprint


@dataclass(frozen=True)
class DecisionRecord:
    """One irrevocable decision, with the value flattened to its repr."""

    pid: int
    component: str
    value_repr: str
    time: int


@dataclass
class RunSummary:
    """What one executed :class:`~repro.runner.spec.RunSpec` amounted to."""

    key: str
    tags: Dict[str, Any]
    n: int
    seed: int
    horizon: int
    steps: int
    messages_sent: int
    messages_delivered: int
    stop_reason: str
    final_time: int
    faulty: Tuple[int, ...]
    decisions: Tuple[DecisionRecord, ...]
    decision_latency: Dict[str, Optional[int]]
    operations: Dict[str, Tuple[int, int]]  # component -> (completed, total)
    trace_digest: str
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Hot-path counter snapshot (:mod:`repro.sim.perf`).  Observability
    #: only: excluded from :meth:`stable_digest` because different buffer
    #: engines legitimately count differently while producing identical
    #: traces.
    perf: Dict[str, int] = field(default_factory=dict)
    wall_clock: float = 0.0
    cached: bool = False

    #: Not a field: mirrors :class:`JobFailure` for uniform filtering.
    failed = False

    @classmethod
    def from_run(cls, spec, trace, metrics, wall_clock) -> "RunSummary":
        components = sorted({d.component for d in trace.decisions})
        ops: Dict[str, list] = {}
        for op in trace.operations:
            entry = ops.setdefault(op.component, [0, 0])
            entry[1] += 1
            if not op.pending:
                entry[0] += 1
        return cls(
            key=spec.fingerprint(),
            tags=spec.tag_dict,
            n=spec.n,
            seed=spec.seed,
            horizon=spec.horizon,
            steps=trace.step_count(),
            messages_sent=trace.messages_sent,
            messages_delivered=trace.messages_delivered,
            stop_reason=trace.stop_reason,
            final_time=trace.final_time,
            faulty=tuple(sorted(trace.pattern.faulty)),
            decisions=tuple(
                DecisionRecord(d.pid, d.component, repr(d.value), d.time)
                for d in trace.decisions
            ),
            decision_latency={
                c: trace.decision_latency(c) for c in components
            },
            operations={c: (done, total) for c, (done, total) in ops.items()},
            trace_digest=trace.digest(),
            metrics=metrics,
            perf=(
                trace.perf.as_dict()
                if getattr(trace, "perf", None) is not None
                else {}
            ),
            wall_clock=wall_clock,
        )

    # -- convenience queries -------------------------------------------
    def decided_values(self, component: Optional[str] = None) -> set:
        """The set of decision value reprs (optionally one component's)."""
        return {
            d.value_repr
            for d in self.decisions
            if component is None or d.component == component
        }

    def latency(self, component: str) -> Optional[int]:
        return self.decision_latency.get(component)

    def operations_completed(self, component: str) -> int:
        return self.operations.get(component, (0, 0))[0]

    def operations_total(self) -> int:
        return sum(total for _, total in self.operations.values())

    def stable_digest(self) -> str:
        """Content hash of every run-determined field.

        Excludes ``wall_clock``, ``cached`` and ``perf`` — the only
        fields allowed to differ between serial, pooled, cached and
        differently-engined executions of one spec.
        """
        stable = {
            k: v
            for k, v in self.__dict__.items()
            if k not in ("wall_clock", "cached", "perf")
        }
        return fingerprint(stable, salt="run-summary")


@dataclass
class FnSummary:
    """Result wrapper for a :class:`~repro.runner.spec.FnSpec` cell."""

    key: str
    tags: Dict[str, Any]
    value: Any
    wall_clock: float = 0.0
    cached: bool = False

    failed = False

    def stable_digest(self) -> str:
        return fingerprint(
            {"key": self.key, "tags": self.tags, "value": self.value},
            salt="fn-summary",
        )


@dataclass
class JobFailure:
    """The summary slot for a cell that could not produce a summary.

    ``kind`` distinguishes how the job died:

    * ``"exception"`` — ``execute()`` raised; the error is recorded and
      the campaign carries on.
    * ``"timeout"`` — the job exceeded its per-job wall-clock budget.
    * ``"worker-crash"`` — the job killed its child process (segfault,
      ``os._exit``, OOM-kill) on each of a bounded number of runs; it
      is quarantined so one poisoned spec cannot sink the campaign.

    A failure is never cached: a later run re-attempts the cell.
    ``stable_digest`` covers only the deterministic identity fields —
    tracebacks and attempt counts legitimately differ between runs.
    """

    key: str
    tags: Dict[str, Any]
    kind: str
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    wall_clock: float = 0.0
    cached: bool = False

    failed = True

    def stable_digest(self) -> str:
        return fingerprint(
            {"key": self.key, "kind": self.kind, "error_type": self.error_type},
            salt="job-failure",
        )
