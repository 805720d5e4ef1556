"""Bench history and the perf-trend regression gate.

Every ``BENCH_*.json`` run can be recorded as a ``bench_history`` row
(full report plus a small extracted metric dict), and a fresh report
can be *checked* against the accumulated history: a tracked metric
landing far below the historical median fails the gate.  CI persists
the store across runs (``actions/cache``), runs the benches, and calls
``python -m repro.store check BENCH_sim --report BENCH_sim.json
--record`` — compare first, then append, so a regressing run never
poisons the baseline it is judged against.

The tolerance is deliberately loose (default: half the median) —
shared CI runners jitter wall-clock-derived numbers by tens of
percent, and the gate exists to catch *large* regressions (an
accidentally-disabled fast path, a quadratic slip), not 5% noise.
Machine-independent counter gates stay inside the benches themselves.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

from repro.store.db import ResultStore

#: Tracked metrics per bench: dotted path into the report → direction.
#: "higher" means bigger is better (a drop regresses).
TRACKED: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "BENCH_sim": (
        ("sparse.indexed_leap.steps_per_second", "higher"),
        ("fanout.indexed.steps_per_second", "higher"),
        ("fanout.indexed_leap.steps_per_second", "higher"),
        ("sparse.speedup_leap_vs_reference", "higher"),
    ),
    "BENCH_explore": (
        # Absolute fingerprint work of the pinned cases under the
        # production mode: a machine-independent node count.
        ("incremental_fp_nodes.ct2", "lower"),
        ("incremental_fp_nodes.nbac2", "lower"),
        ("incremental_fp_nodes.paxos2", "lower"),
        ("incremental_fp_nodes.nbac3", "lower"),
        # Frontier coordination amortization: 1-worker wall over the
        # single-process walk must not creep back up, and 4 workers
        # must keep beating 1 (ratio > 1 when they do).  What sharding
        # costs in fingerprint work is a count: nodes encoded by 4
        # workers over the single walk's.
        ("frontier.overhead_1_vs_single", "lower"),
        ("frontier.wall_1_over_wall_4", "higher"),
        ("frontier.scaling.4.fp_nodes_inflation", "lower"),
    ),
}

#: Fraction of the historical median a "higher" metric may lose (or a
#: "lower" metric may gain) before the gate fails.
DEFAULT_TOLERANCE = 0.5

#: Runs of history required before the gate arms at all.
MIN_HISTORY = 2


def _dig(report: Dict[str, Any], path: str):
    node: Any = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


def extract_metrics(bench: str, report: Dict[str, Any]) -> Dict[str, float]:
    """The tracked scalar metrics present in ``report``."""
    metrics = {}
    for path, _direction in TRACKED.get(bench, ()):
        value = _dig(report, path)
        if value is not None:
            metrics[path] = float(value)
    return metrics


def record(store: ResultStore, bench: str, report: Dict[str, Any]) -> Dict[str, float]:
    """Append one bench run to the history; returns what was tracked."""
    metrics = extract_metrics(bench, report)
    store.record_bench(bench, metrics, report)
    return metrics


def check(
    store: ResultStore,
    bench: str,
    report: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    min_history: int = MIN_HISTORY,
) -> Tuple[bool, List[str]]:
    """Gate ``report`` against stored history.

    Returns ``(ok, lines)`` — ``lines`` narrates every tracked metric
    (or why the gate did not arm).  History shorter than
    ``min_history`` passes vacuously: a fresh store must not fail CI.
    """
    history = store.bench_rows(bench)
    fresh = extract_metrics(bench, report)
    lines: List[str] = []
    ok = True
    if len(history) < min_history:
        lines.append(
            f"{bench}: {len(history)} stored run(s) < {min_history}; "
            f"trend gate not armed"
        )
        return ok, lines
    for path, direction in TRACKED.get(bench, ()):
        value = fresh.get(path)
        series = [
            row["metrics"][path]
            for row in history
            if path in row["metrics"]
        ]
        if value is None or len(series) < min_history:
            continue
        median = statistics.median(series)
        if direction == "higher":
            floor = median * (1.0 - tolerance)
            bad = value < floor
            bound = f"floor {floor:.3g}"
        else:
            ceiling = median * (1.0 + tolerance)
            bad = value > ceiling
            bound = f"ceiling {ceiling:.3g}"
        verdict = "REGRESSION" if bad else "ok"
        lines.append(
            f"{bench} {path}: {value:.3g} vs median {median:.3g} "
            f"over {len(series)} runs ({bound}) — {verdict}"
        )
        ok = ok and not bad
    return ok, lines
