"""Facts in, named metrics out: the pure half of the benchmark.

Nothing here starts a process or imports ``repro``.  The functions take
the fact dicts :mod:`e2e_bench.adapters` prints and turn them into the
metrics ``BENCHMARK.json`` names, summarise repetitions as median and
quartiles, compare two sets against the bounds, check digests against
``expected.json``, and render the report.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from e2e_bench import CHECKOUT, FRONTIER_WORKERS, PACKAGE_DIR

EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 14))
EXPLORER_WORKLOADS = ("exhaust_nbac3", "exhaust_paxos3", "frontier_nbac3")
SERIAL_EXPLORER_WORKLOADS = ("exhaust_nbac3", "exhaust_paxos3")
FRONTIER = "frontier_nbac3"
FRONTIER_BASELINE = "exhaust_nbac3"

Number = Optional[float]


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> Dict[str, Any]:
    with open(os.path.join(PACKAGE_DIR, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- statistics -------------------------------------------------------------

def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles`` n=4) and sample count."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the ``second`` reading is worse (<0: better)."""
    delta = second - first if better == "lower" else first - second
    return delta / abs(first) if first else (0.0 if delta == 0 else float("inf"))


def compare_sets(
    first: Dict[str, float], second: Dict[str, float], specs: Iterable[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """One row per end-to-end metric: relative difference against its bound.

    Two sets of the same commit differ by noise only, so a difference in
    *either* direction beyond the bound fails the repeat check.
    """
    rows = []
    for spec in specs:
        name = spec["name"]
        diff = abs(worsening(first[name], second[name], spec["better"]))
        rows.append(
            {
                "name": name,
                "first": first[name],
                "second": second[name],
                "difference": diff,
                "bound": spec["bound"],
                "ok": diff <= spec["bound"],
            }
        )
    return rows


# -- metrics ----------------------------------------------------------------

def _ratio(numerator: Number, denominator: Number) -> Number:
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def end_to_end(plain: Sequence[Dict[str, Any]], setups: Sequence[float]) -> Dict[str, Dict[str, float]]:
    """Summaries of the user-visible metrics over untraced repetitions.

    ``setups`` holds every set-up sample of the run: the repetitions'
    own plus the set-up-only processes started to steady the median.
    """
    out = {
        name: summarize([facts[name] for facts in plain])
        for name in ("wall_s", "cpu_s")
    }
    out["setup_s"] = summarize(setups)
    return out


def count_metrics(workload: str, facts: Dict[str, Any]) -> Dict[str, Number]:
    """Per-layer counts read off one repetition's returned summaries."""
    stats = facts.get("stats") or {}
    counters = facts.get("counters") or {}
    frontier = facts.get("frontier") or {}
    hits = counters.get("explore_fp_host_hits", 0)
    out: Dict[str, Number] = {
        f"explore.{key}": stats.get(key, 0)
        for key in ("runs", "states", "dedup_hits", "por_pruned", "replay_steps",
                    "fp_nodes", "opaque_tokens")
    }
    out["explore.fp_host_hit_rate"] = _ratio(
        hits, hits + counters.get("explore_fp_host_misses", 0)
    )
    out["explore.runs_per_state"] = _ratio(stats.get("runs", 0), stats.get("states", 0))
    out["frontier.shards"] = stats.get("shards", 0) if workload == FRONTIER else 0
    for key in ("claims", "claim_round_trips", "heartbeats"):
        out[f"frontier.{key}"] = frontier.get(key, 0)
    out["frontier.claims_per_round_trip"] = _ratio(
        frontier.get("claims", 0), frontier.get("claim_round_trips", 0)
    )
    out["frontier.incidents"] = facts.get("incidents", 0)
    is_frontier = workload == FRONTIER
    out["frontier.worker_cpu_s"] = facts["worker_cpu_s"] if is_frontier else 0.0
    out["frontier.coord_cpu_s"] = facts["coord_cpu_s"] if is_frontier else 0.0
    out["frontier.worker_busy_frac"] = (
        _ratio(facts["worker_cpu_s"], FRONTIER_WORKERS * facts["wall_s"])
        if is_frontier else 0.0
    )
    out["store.exchange_pulls"] = frontier.get("exchange_pulls", 0)
    out["store.busy_retries"] = frontier.get("store_busy_retries", 0)
    out["store.db_bytes"] = facts.get("db_bytes", 0)
    out["proc.peak_rss_mb"] = facts["peak_rss_mb"]
    return out


def inflation_metrics(
    workload: str, facts: Dict[str, Any], baseline: Optional[Dict[str, Any]]
) -> Dict[str, Number]:
    """Frontier cost relative to the serial walk of the same roots."""
    if workload != FRONTIER or baseline is None:
        return {"frontier.runs_inflation": 0.0, "frontier.cpu_inflation": 0.0}
    return {
        "frontier.runs_inflation": _ratio(
            facts["stats"]["runs"], baseline["stats"]["runs"]
        ),
        "frontier.cpu_inflation": _ratio(facts["cpu_s"], baseline["cpu_s"]),
    }


class _Rows:
    """Trace rows by record name: zero if never called, None if unpatched."""

    ZERO = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "p50_s": 0.0, "p99_s": 0.0, "max_s": 0.0}

    def __init__(self, trace: Dict[str, Any]) -> None:
        self.rows = trace["rows"]
        self.broken = trace["broken"]

    def get(self, name: str, field: str) -> Number:
        if any(name == b or (b.endswith(".") and name.startswith(b)) for b in self.broken):
            return None
        return self.rows.get(name, self.ZERO)[field]

    def prefix_sum(self, prefix: str, field: str) -> Number:
        if prefix in self.broken:
            return None
        return sum(row[field] for name, row in self.rows.items() if name.startswith(prefix))


def _scale(value: Number, factor: float) -> Number:
    return None if value is None else value * factor


def _minus(total: Number, *parts: Number) -> Number:
    if total is None or any(p is None for p in parts):
        return None
    return total - sum(parts)  # type: ignore[arg-type]


def time_metrics(
    workload: str, traced: Dict[str, Any], untraced_wall_median: float
) -> Dict[str, Number]:
    """Per-layer times and shares read off the traced repetition."""
    rows = _Rows(traced["trace"])
    wall = traced["wall_s"]
    profile = traced.get("profile") or {}
    out: Dict[str, Number] = {}

    def share(value: Number) -> Number:
        return _ratio(value, wall)

    build = rows.get("explore.build", "total_s")
    fingerprint = rows.get("explore.fingerprint", "total_s")
    run_total = rows.get("sim.run", "total_s")
    # The walk's own loop: what is left of the timed call once system
    # builds and System.run (which contains the fingerprints) are taken
    # out.  Only the serial walks run it in the traced process.
    driver = (
        _minus(wall, build, run_total)
        if workload in SERIAL_EXPLORER_WORKLOADS else 0.0
    )
    out["explore.build_s"] = build
    out["explore.build_calls"] = rows.get("explore.build", "calls")
    out["explore.build_share"] = share(build)
    out["explore.fingerprint_s"] = fingerprint
    out["explore.fingerprint_calls"] = rows.get("explore.fingerprint", "calls")
    out["explore.fingerprint_share"] = share(fingerprint)
    out["explore.driver_s"] = driver
    out["explore.driver_share"] = share(driver)

    run_self = rows.get("sim.run", "self_s")
    out["sim.run_s"] = run_self
    out["sim.run_share"] = share(run_self)
    out["sim.run_calls"] = rows.get("sim.run", "calls")
    out["sim.run_p50_us"] = _scale(rows.get("sim.run", "p50_s"), 1e6)
    out["sim.run_p99_us"] = _scale(rows.get("sim.run", "p99_s"), 1e6)
    out["sim.net_s"] = rows.get("sim.net", "total_s")
    out["sim.net_share"] = share(out["sim.net_s"])
    out["sim.net_calls"] = rows.get("sim.net", "calls")
    out["sim.from_spec_s"] = rows.get("sim.from_spec", "total_s")
    ticks = profile.get("ticks", 0)
    out["sim.ticks"] = ticks
    out["sim.us_per_tick"] = _ratio(_scale(run_self, 1e6), ticks)
    out["sim.scanned_per_delivery"] = _ratio(
        profile.get("messages_scanned", 0), profile.get("messages_delivered", 0)
    )
    out["sim.leap_ratio"] = _ratio(profile.get("ticks_leaped", 0), ticks)

    out["core.fd_value_s"] = rows.get("core.fd_value", "total_s")
    out["core.fd_value_calls"] = rows.get("core.fd_value", "calls")
    out["core.fd_cache_hit_rate"] = _ratio(
        profile.get("detector_cache_hits", 0), profile.get("detector_value_calls", 0)
    )

    out["runner.campaign_self_s"] = rows.get("runner.campaign", "self_s")
    out["runner.cells"] = rows.get("runner.cell", "calls")
    out["runner.cell_p50_ms"] = _scale(rows.get("runner.cell", "p50_s"), 1e3)
    out["runner.cell_max_ms"] = _scale(rows.get("runner.cell", "max_s"), 1e3)

    out["qc_cht.simulate_s"] = rows.get("qc_cht.simulate", "total_s")
    out["qc_cht.simulate_calls"] = rows.get("qc_cht.simulate", "calls")
    out["qc_cht.share"] = share(out["qc_cht.simulate_s"])

    for experiment in EXPERIMENT_IDS:
        out[f"experiments.{experiment}_s"] = rows.get(
            f"experiments.{experiment}", "total_s"
        )

    out["store.coord_call_s"] = rows.prefix_sum("store.", "self_s")
    out["store.coord_calls"] = rows.prefix_sum("store.", "calls")

    out["trace.overhead_frac"] = wall / untraced_wall_median - 1.0
    out["trace.points_missing"] = len(traced["trace"]["missing"])
    return out


# -- output checks ----------------------------------------------------------

def check_outputs(
    workload: str,
    seed: int,
    repetitions: Sequence[Dict[str, Any]],
    expected: Dict[str, Any],
    baseline: Optional[Dict[str, Any]] = None,
) -> Tuple[int, List[List[str]]]:
    """(operations attempted, failures) over a workload's repetitions.

    An operation is one root, one experiment, or the table digest; it
    fails on any adapter-reported flaw, on a digest that differs from
    the pinned seed's, and — for the frontier — on a decision-vector
    digest that differs from the serial walk of the same invocation.
    """
    attempted = 0
    failures: List[List[str]] = []
    pinned = expected["digests"].get(workload) if seed == expected["seed"] else None
    reference = baseline["digests"] if workload == FRONTIER and baseline else None
    for index, facts in enumerate(repetitions):
        attempted += facts["attempted"]
        failures.extend([f"rep {index} {op}", why] for op, why in facts["failures"])
        if workload not in EXPLORER_WORKLOADS and pinned is not None:
            attempted += 1  # the table digest is an operation of its own
        for against, label in ((pinned, "pinned"), (reference, "serial walk's")):
            if against is None:
                continue
            if len(against) != len(facts["digests"]):
                failures.append([f"rep {index} digests", f"count differs from {label}"])
                continue
            for slot, (got, want) in enumerate(zip(facts["digests"], against)):
                if got != want:
                    op = f"root {slot}" if workload in EXPLORER_WORKLOADS else "tables"
                    failures.append([f"rep {index} {op}", f"digest differs from {label}"])
    return attempted, failures


def failed_operations(failures: Sequence[Sequence[str]]) -> int:
    return len({op for op, _ in failures})


# -- machine stamp and rendering --------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cores_available() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def machine_stamp() -> Dict[str, Any]:
    """What produced the numbers; printed with and stored beside them.

    ``repro_native_available`` is filled in from the first repetition:
    only a child process imports ``repro``.
    """
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "nproc": cores_available(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "load_average_at_start": load,
        "git_commit": _git_commit(),
        "repro_native_available": None,
        "child_PYTHONHASHSEED": "0",
    }


def comparable(workload: str, nproc: int) -> bool:
    """A 2-worker frontier on one core measures time slicing, not scaling."""
    return workload != FRONTIER or nproc >= FRONTIER_WORKERS


def _cell(value: Number) -> str:
    if value is None:
        return "null"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def render(
    workload: str,
    units: Dict[str, str],
    summaries: Dict[str, Dict[str, Number]],
) -> str:
    """One line per metric: name, unit, median, quartiles, n."""
    width = max([len(name) for name in summaries] + [6])
    lines = [f"[{workload}]", f"  {'metric':<{width}}  {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}"]
    for name, row in summaries.items():
        lines.append(
            f"  {name:<{width}}  {units.get(name, '?'):<8} {_cell(row['median']):>12} "
            f"{_cell(row['q1']):>12} {_cell(row['q3']):>12} {row['n']:>3}"
        )
    return "\n".join(lines)


def single(value: Number) -> Dict[str, Number]:
    """A one-sample summary (the traced pass runs once)."""
    return {"median": value, "q1": value, "q3": value, "n": 1}
