"""Trace export: JSON-serialisable run summaries.

A :class:`~repro.sim.trace.RunTrace` holds live objects (frozensets,
sentinels, arbitrary payloads); :func:`trace_to_dict` renders it into
plain JSON-compatible data — schedule, decisions, operations, detector
samples — for archiving runs, diffing reproductions, or feeding
external analysis.  Values that are not JSON-native are rendered via
``repr`` (the export is a human/diff artifact, not a wire format; the
deterministic simulator re-creates any run from its seed).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.sim.trace import RunTrace


def _render(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_render(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_render(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _render(v) for k, v in value.items()}
    return repr(value)


def trace_to_dict(
    trace: RunTrace,
    include_steps: bool = False,
    include_detector_samples: bool = False,
) -> Dict[str, Any]:
    """Render a run trace as plain data.

    The step-by-step schedule and the per-step detector samples can be
    large; they are opt-in, and only a ``"full"`` trace retains them: a
    ``"lite"`` trace refuses either with a ``ValueError`` rather than
    render an empty list.
    """
    if (include_steps or include_detector_samples) and not trace.record_full:
        raise ValueError(
            "include_steps / include_detector_samples need a full-mode "
            "trace (steps retained)"
        )
    data: Dict[str, Any] = {
        "pattern": {
            "n": trace.pattern.n,
            "crash_times": {
                str(p): t for p, t in trace.pattern.crash_times.items()
            },
        },
        "horizon": trace.horizon,
        "final_time": trace.final_time,
        "stop_reason": trace.stop_reason,
        "messages_sent": trace.messages_sent,
        "messages_delivered": trace.messages_delivered,
        "step_count": trace.step_count(),
        "decisions": [
            {
                "time": d.time,
                "pid": d.pid,
                "component": d.component,
                "value": _render(d.value),
            }
            for d in trace.decisions
        ],
        "operations": [
            {
                "op_id": op.op_id,
                "pid": op.pid,
                "component": op.component,
                "kind": op.kind,
                "args": _render(op.args),
                "invoke_time": op.invoke_time,
                "response_time": op.response_time,
                "result": _render(op.result),
            }
            for op in trace.operations
        ],
    }
    if include_steps:
        data["steps"] = [
            {
                "time": s.time,
                "pid": s.pid,
                "message": (
                    None
                    if s.message is None
                    else {
                        "from": s.message.sender,
                        "component": s.message.component,
                        "payload": _render(s.message.payload),
                        "sent_at": s.message.send_time,
                    }
                ),
                "detector": _render(s.detector_value),
            }
            for s in trace.steps
        ]
    if include_detector_samples:
        data["detector_samples"] = {
            str(pid): [
                {"time": t, "value": _render(v)}
                for t, v in trace.detector_samples.samples_of(pid)
            ]
            for pid in range(trace.pattern.n)
        }
    return data


def trace_to_json(trace: RunTrace, indent: int = 2, **kwargs: Any) -> str:
    """JSON text of :func:`trace_to_dict` (kwargs forwarded)."""
    return json.dumps(trace_to_dict(trace, **kwargs), indent=indent)
