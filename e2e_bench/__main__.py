"""``python3 -m e2e_bench``: run the repo benchmark and print every metric.

    python3 -m e2e_bench                      # all workloads, both passes
    python3 -m e2e_bench --workload exhaust_nbac3 --seed 3 --seconds 25 --trace 0
    python3 -m e2e_bench --repeat-check       # two sets, compared to the bounds

``--workload`` (alias ``--only``) picks one workload; ``--trace 0``
(alias ``--no-trace``) measures the end-to-end metrics only, ``--trace
1`` the per-layer metrics only, neither flag both.  ``--seconds`` sets
how much work a run measures: the repetition counts in
:data:`REFERENCE_REPETITIONS` fill ``run_seconds`` of ``BENCHMARK.json``
on the reference box and scale with it.  The last line of standard
output is one JSON object: for a single workload and a single pass,
exactly ``correct`` / ``attempted`` / ``failed`` / ``metrics``.

Every repetition is a fresh ``python -m e2e_bench.adapters`` process;
repetitions of different workloads are interleaved round-robin.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from e2e_bench import CHECKOUT, OUT_DIR, harness
from e2e_bench.adapters import child_env, run_canaries

#: Repetitions that fill ``run_seconds`` on the reference box (one
#: repetition: ~11.5 s, ~13 s, ~8 s, ~20 s).  A fixed count, not a
#: deadline: a deadline flips between n and n+1 repetitions from run to
#: run, and the median of a changing sample count is not one metric.
REFERENCE_REPETITIONS = {
    "exhaust_nbac3": 2,
    "exhaust_paxos3": 1,
    "frontier_nbac3": 3,
    "sweep_e1_e13": 1,
}
#: Set-up samples per workload and run; repetitions supply some, the
#: rest are set-up-only processes (a fifth of a second each).
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150

Spawn = Callable[[str, int, bool, bool], Dict[str, Any]]


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def spawn(workload: str, seed: int, traced: bool, setup_only: bool) -> Dict[str, Any]:
    """One adapter process; its facts, or BenchError with its stderr."""
    argv = [
        sys.executable, "-m", "e2e_bench.adapters", workload, str(seed),
        "1" if traced else "0", repr(time.time()), "setup" if setup_only else "rep",
    ]
    # Own session: on a timeout the frontier's workers die with it.
    child = subprocess.Popen(
        argv, cwd=CHECKOUT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"{workload}: repetition exceeded {CHILD_TIMEOUT_S}s")
    if child.returncode != 0 or not out.strip():
        raise BenchError(
            f"{workload}: adapter exited {child.returncode}\n{err[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def repetitions_for(workload: str, seconds: float, run_seconds: float) -> int:
    return max(1, round(REFERENCE_REPETITIONS[workload] * seconds / run_seconds))


def measure(
    workloads: List[str],
    seed: int,
    seconds: float,
    timed: bool,
    trace: bool,
    benchmark: Dict[str, Any],
    spawn: Spawn = spawn,
    canaries: Callable[[], Dict[str, Any]] = run_canaries,
) -> Dict[str, Any]:
    """Run the requested passes; everything the report needs, per workload."""
    expected = harness.load_expected()
    plain: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    setups: Dict[str, List[float]] = {w: [] for w in workloads}
    traced: Dict[str, Dict[str, Any]] = {}

    def repetition(workload: str) -> None:
        facts = spawn(workload, seed, False, False)
        plain[workload].append(facts)
        setups[workload].append(facts["setup_s"])

    def sample_setups(workload: str, upto: int) -> None:
        while len(setups[workload]) < upto:
            setups[workload].append(spawn(workload, seed, False, True)["setup_s"])

    # The timed pass, or for a trace-only run the single untraced
    # repetition that trace.overhead_frac and the counts are read from.
    # Set-up-only samples are split before and after it, so one slow
    # second of the host cannot colour them all.
    wanted = {
        w: repetitions_for(w, seconds, benchmark["run_seconds"]) if timed else 1
        for w in workloads
    }
    if timed:
        for workload in workloads:
            sample_setups(workload, (SETUP_SAMPLES - wanted[workload]) // 2)
    for round_index in range(max(wanted.values())):
        for workload in workloads:
            if round_index < wanted[workload]:
                repetition(workload)
    if timed:
        for workload in workloads:
            sample_setups(workload, SETUP_SAMPLES)

    # The serial walk of the frontier's roots: its digests must equal the
    # frontier's, and frontier.*_inflation is relative to it.
    baseline = None
    baseline_is_extra = False
    if harness.FRONTIER in workloads:
        if plain.get(harness.FRONTIER_BASELINE):
            baseline = plain[harness.FRONTIER_BASELINE][0]
        elif trace:
            baseline = spawn(harness.FRONTIER_BASELINE, seed, False, False)
            baseline_is_extra = True
    if trace:
        for workload in workloads:
            traced[workload] = spawn(workload, seed, True, False)
    explorer_ran = any(w in harness.EXPLORER_WORKLOADS for w in workloads)
    canary_facts = canaries() if timed and explorer_ran else None

    result: Dict[str, Any] = {"workloads": {}, "native": None}
    for workload in workloads:
        runs = plain[workload] + ([traced[workload]] if trace else [])
        attempted, failures = harness.check_outputs(
            workload, seed, runs, expected, baseline
        )
        if workload == harness.FRONTIER and baseline_is_extra:
            more, flaws = harness.check_outputs(
                harness.FRONTIER_BASELINE, seed, [baseline], expected
            )
            attempted += more
            failures += flaws
        if canary_facts is not None and workload in harness.EXPLORER_WORKLOADS:
            attempted += canary_facts["attempted"]
            failures += canary_facts["failures"]
        counts = harness.count_metrics(workload, plain[workload][0])
        entry: Dict[str, Any] = {
            "attempted": attempted,
            "failures": failures,
            "failed": harness.failed_operations(failures),
            "counts": counts,
            "comparable": harness.comparable(workload, harness.cores_available()),
            "end_to_end": {},
            "per_layer": {},
        }
        if timed:
            entry["end_to_end"] = harness.end_to_end(plain[workload], setups[workload])
        if trace:
            walls = [facts["wall_s"] for facts in plain[workload]]
            layered = {
                **counts,
                **harness.inflation_metrics(workload, plain[workload][0], baseline),
                **harness.time_metrics(
                    workload, traced[workload], harness.summarize(walls)["median"]
                ),
            }
            entry["per_layer"] = {
                name: harness.single(value) for name, value in layered.items()
            }
        result["workloads"][workload] = entry
        result["native"] = runs[0].get("native")
    return result


def report(result: Dict[str, Any], benchmark: Dict[str, Any], stamp: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    print("machine: " + json.dumps(stamp, sort_keys=True))
    for workload, entry in result["workloads"].items():
        if not entry["comparable"]:
            print(f"[{workload}] comparable: false (cores available: {stamp['nproc']})")
        print(harness.render(workload, units, {**entry["end_to_end"], **entry["per_layer"]}))
        share = entry["failed"] / entry["attempted"]
        print(f"  ops_failed_share = {entry['failed']}/{entry['attempted']} = {share:g}")
        for op, why in entry["failures"]:
            print(f"  FAILED {op}: {why}")


def contract_line(entry: Dict[str, Any], benchmark: Dict[str, Any], kind: str) -> Dict[str, Any]:
    """The result object of the benchmark contract for one workload and pass."""
    return {
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            spec["name"]: {"value": entry[kind][spec["name"]]["median"], "unit": spec["unit"]}
            for spec in benchmark[kind]
        },
    }


def repeat_check(first: Dict[str, Any], second: Dict[str, Any], benchmark: Dict[str, Any]) -> bool:
    """Print both sets' medians beside the bounds; True when all agree."""
    agreed = True
    for workload, entry in first["workloads"].items():
        other = second["workloads"][workload]
        medians = [
            {name: row["median"] for name, row in e["end_to_end"].items()}
            for e in (entry, other)
        ]
        print(f"[{workload}] repeat check")
        for row in harness.compare_sets(medians[0], medians[1], benchmark["end_to_end"]):
            verdict = "ok" if row["ok"] else "EXCEEDS BOUND"
            print(
                f"  {row['name']:<12} {row['first']:>10.4f} {row['second']:>10.4f} "
                f"diff {row['difference']:.2%}  bound {row['bound']:.0%}  {verdict}"
            )
            agreed &= row["ok"]
        if workload in harness.SERIAL_EXPLORER_WORKLOADS:
            ratios = [e["counts"]["explore.runs_per_state"] for e in (entry, other)]
            same = ratios[0] == ratios[1]
            print(f"  explore.runs_per_state {ratios[0]!r} vs {ratios[1]!r}  "
                  f"{'identical' if same else 'DIFFERS'}")
            agreed &= same
    return agreed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m e2e_bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--only", choices=sorted(REFERENCE_REPETITIONS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--no-trace", dest="trace", action="store_const", const=0)
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(CHECKOUT, "src", "repro")):
        print("e2e_bench: src/repro not found beside e2e_bench/; nothing to measure",
              file=sys.stderr)
        return 2
    benchmark = harness.load_benchmark()
    workloads = [args.workload] if args.workload else [w["name"] for w in benchmark["workloads"]]
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    timed, trace = args.trace != 1, args.trace != 0
    if args.repeat_check and not timed:
        parser.error("--repeat-check compares end-to-end metrics; drop --trace 1")

    stamp = harness.machine_stamp()
    try:
        result = measure(workloads, args.seed, seconds, timed, trace, benchmark)
        stamp["repro_native_available"] = result["native"]
        report(result, benchmark, stamp)
        agreed = True
        if args.repeat_check:
            second = measure(workloads, args.seed, seconds, True, False, benchmark)
            agreed = repeat_check(result, second, benchmark)
            result["repeat"] = second
    except BenchError as exc:
        print(f"e2e_bench: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.json"), "w", encoding="utf-8") as fh:
        json.dump({"machine": stamp, "seed": args.seed, "seconds": seconds, **result}, fh, indent=1)
        fh.write("\n")

    entries = [result["workloads"][w] for w in workloads]
    if args.repeat_check:
        entries += [result["repeat"]["workloads"][w] for w in workloads]
    if len(workloads) == 1 and args.trace is not None:
        line = contract_line(entries[0], benchmark, "end_to_end" if timed else "per_layer")
    else:
        line = {
            "correct": all(e["failed"] == 0 for e in entries),
            "attempted": sum(e["attempted"] for e in entries),
            "failed": sum(e["failed"] for e in entries),
            "metrics": {
                w: {
                    name: row["median"]
                    for name, row in {**e["end_to_end"], **e["per_layer"]}.items()
                }
                for w, e in result["workloads"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] and agreed else 1


if __name__ == "__main__":
    raise SystemExit(main())
