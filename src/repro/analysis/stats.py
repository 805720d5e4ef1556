"""Run statistics and experiment-table helpers.

The paper reports no performance numbers (it is a theory paper), so the
benchmark harness reports the costs that *are* meaningful for the
reproduced algorithms: messages sent/delivered, steps taken, and
decision latency in simulated steps.  :func:`aggregate` turns repeated
seeded runs into the min/mean/max rows the EXPERIMENTS.md tables use.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Sequence

from repro.sim.trace import RunTrace


def run_metrics(trace: RunTrace, component: str) -> Dict[str, Any]:
    """Cost metrics of one run, keyed for table assembly."""
    return {
        "n": trace.pattern.n,
        "faulty": len(trace.pattern.faulty),
        "steps": trace.step_count(),
        "messages_sent": trace.messages_sent,
        "messages_delivered": trace.messages_delivered,
        "decision_latency": trace.decision_latency(component),
        "stop_reason": trace.stop_reason,
    }


def aggregate(rows: Sequence[Mapping[str, Any]], keys: Iterable[str]) -> Dict[str, Dict[str, float]]:
    """min/mean/max per numeric key over a set of run-metric rows.

    Rows with a ``None`` value for a key (e.g. no decision latency when
    a run legitimately lost liveness) are excluded from that key's
    aggregate; the count of included rows is reported alongside.
    """
    out: Dict[str, Dict[str, float]] = {}
    for key in keys:
        values: List[float] = [
            float(row[key]) for row in rows if row.get(key) is not None
        ]
        if not values:
            out[key] = {"count": 0}
            continue
        out[key] = {
            "count": len(values),
            "min": min(values),
            "mean": sum(values) / len(values),
            "max": max(values),
        }
    return out


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """A fixed-width text table (benchmark harness output)."""
    widths = [len(h) for h in headers]
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = [_cell(v) for v in row]
        rendered_rows.append(rendered)
        widths = [max(w, len(c)) for w, c in zip(widths, rendered)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for rendered in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(rendered, widths)))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)
