"""Benchmarks of the explorer's hot path: fingerprints and reductions.

Four pinned cases spanning the target families are each exhausted
under both fingerprint modes — ``naive`` (the byte encoder without
caching, the fingerprint-work baseline) and ``incremental`` (caching
plus cross-run replay-digest reuse) — and under ``incremental`` with
the pid-symmetry reduction where the target admits it.

The machine-independent gates — what the CI explore-smoke job checks —
always hold:

* every mode agrees on decision vectors, violation count and
  completeness (the modes change *cost*, never the search);
* ``naive`` and plain ``incremental`` walk identical trees (same run
  count — they compute identical digests byte-for-byte, which the
  equivalence suite pins separately);
* the incremental engine does less fingerprint work than naive
  (``explore_fp_nodes``, an encoder node count — machine-independent).
  Neither mode re-fingerprints a prefix since the search rewinds; the
  absolute ``incremental`` count per case is what ``repro.store check``
  trends;
* on the n=3 cases the incremental engine encodes fewer hosts than it
  computes fingerprints (``host_misses < fingerprint_calls``): its host
  cache is keyed on each process's own step history, so a local state
  is encoded once per root, not once per path;
* ``naive`` serves no step (``steps_served == 0``: it is the oracle
  that executes every tick) and ``incremental`` executes fewer than
  it does (``steps_executed``): a step the root has taken before is
  served from the transition table.  ``hosts_rebuilt`` rides along.

Run without pytest via ``python benchmarks/bench_explorer.py`` to write
``BENCH_explore.json``.

The **frontier** section runs a deeper case (nbac n=3 depth=6)
through the crash-tolerant dynamic frontier
(:mod:`repro.explore.frontierd`) in its adaptive batched-claim default
at 1/2/4 workers and once more at 4 workers under a kill rate of
0.3 — every run must reproduce the serial walk exactly; the report
records, per worker count, wall clock, the coordination counters and
the fingerprint work (``fp_nodes``, ``host_hit_rate``, and
``fp_nodes_inflation`` against the single walk, gated on every machine
— it is a count — at half of what cold shards used to cost), plus the
recovery overhead and a stamp of the machine that produced the
numbers.  ``python
benchmarks/bench_explorer.py --frontier-only`` writes just that
section — what the CI chaos-smoke job runs and trend-gates.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.explore.cases import ExploreCase, ExploreOptions
from repro.explore.engine import explore_case
from repro.explore.symmetry import SYMMETRY_SAFE_TARGETS, admissible_perms

#: The pinned cases.  ct exercises deep detector-driven branching,
#: nbac n=2/n=3 are the frontier the overhaul targets, paxos brings a
#: consensus stack with richer per-host state.
CASES = (
    ExploreCase(target="ct", n=2, depth=7),
    ExploreCase(target="nbac", n=2, depth=6, seed=1),
    ExploreCase(target="paxos", n=2, depth=8),
    ExploreCase(target="nbac", n=3, depth=5),
)

#: Why targets outside SYMMETRY_SAFE_TARGETS cannot run the
#: ``incremental_symmetry`` mode — recorded per case in the report so
#: the missing mode reads as a documented soundness gate, not a hole
#: in the matrix (see :mod:`repro.explore.symmetry`).
SYMMETRY_GATED = {
    "ct": (
        "rotating coordinator (round mod n) is not pid-equivariant: "
        "relabeling processes changes who coordinates each round"
    ),
    "register": (
        "workload writes are tagged (pid, seq), baking pids into "
        "register values; the fingerprint engine's int guard cannot "
        "relabel payload internals"
    ),
}


def _explore(case, fingerprint_mode, symmetry=None):
    started = time.perf_counter()
    result = explore_case(
        case, ExploreOptions(fingerprint_mode=fingerprint_mode, symmetry=symmetry)
    )
    elapsed = time.perf_counter() - started
    return {
        "elapsed_seconds": round(elapsed, 3),
        "runs": result.runs,
        "states": result.states,
        "dedup_hits": result.dedup_hits,
        "violations": len(result.violations),
        "complete": result.complete,
        "fp_nodes": result.counters.explore_fp_nodes,
        # Hosts encoded, and fingerprints computed (each looks every
        # host up once: a hit, or a miss that encodes it).
        "host_misses": result.counters.explore_fp_host_misses,
        "fingerprint_calls": (
            result.counters.explore_fp_host_hits
            + result.counters.explore_fp_host_misses
        ) // case.n,
        "replay_steps": result.counters.explore_replay_steps,
        # Fresh ticks that ran protocol code / were served from the
        # transition table, and host objects brought to a state.
        "hosts_rebuilt": result.counters.explore_hosts_rebuilt,
        "steps_executed": result.counters.explore_steps_executed,
        "steps_served": result.counters.explore_steps_served,
        "opaque_tokens": result.counters.explore_opaque_tokens,
        "_vectors": result.decision_vectors,
    }


def run_case_bench(case) -> dict:
    modes = {
        "naive": _explore(case, "naive"),
        "incremental": _explore(case, "incremental"),
    }
    if case.target in SYMMETRY_SAFE_TARGETS:
        modes["incremental_symmetry"] = _explore(
            case, "incremental", symmetry="auto"
        )
        symmetry = {
            "mode_run": True,
            "group_order": len(admissible_perms(case)),
        }
    else:
        symmetry = {
            "mode_run": False,
            "gated_reason": SYMMETRY_GATED.get(
                case.target,
                "target carries pid-derived values; reduction unsound",
            ),
        }

    # The search must be mode-invariant (symmetry may merge runs but
    # must preserve the observable outcomes).
    base = modes["naive"]
    for name, mode in modes.items():
        assert mode["_vectors"] == base["_vectors"], (case, name)
        assert mode["violations"] == base["violations"], (case, name)
        assert mode["complete"] and base["complete"], (case, name)
    assert modes["naive"]["runs"] == modes["incremental"]["runs"], case

    assert modes["incremental"]["fp_nodes"] < modes["naive"]["fp_nodes"], case
    # ``naive`` is the oracle that executes every tick; the transition
    # table must have saved the production mode some of them.
    assert modes["naive"]["steps_served"] == 0, case
    assert (
        modes["incremental"]["steps_executed"] < modes["naive"]["steps_executed"]
    ), case
    assert (
        modes["incremental"]["steps_executed"] + modes["incremental"]["steps_served"]
        == modes["naive"]["steps_executed"]
    ), case
    if case.n >= 3:
        # The host cache is keyed on the process's own step history and
        # survives rewinds: with three processes most local states
        # recur, so fewer than one host in n is encoded per fingerprint
        # (``naive`` encodes all n).
        incremental = modes["incremental"]
        assert incremental["host_misses"] < incremental["fingerprint_calls"], (
            case, incremental,
        )
    for mode in modes.values():
        del mode["_vectors"]
    return {
        "case": case.describe(),
        "symmetry": symmetry,
        "modes": modes,
    }


#: The frontier scaling case — one depth deeper than the pinned n=3
#: case, so the tree is large enough (thousands of runs) for
#: coordination amortization to be measurable rather than noise.
FRONTIER_CASE = ExploreCase(target="nbac", n=3, depth=6)

#: Ceiling on 1-worker wall over the single-process walk — the price
#: of running the exact same tree through the store-backed queue.
#: Batched claims brought this from 1.87x down to ~1.2x.
MAX_FRONTIER_OVERHEAD = 1.3

#: Ceiling on a frontier run's fingerprint nodes over the single
#: walk's, per worker: ``1 + 0.375 * workers``.  A worker keeps one warm
#: fingerprint engine per root, so what is left is the local states
#: several workers each meet (every worker encodes its own copy) and
#: the re-walked shard prefixes: on this one-root case 1.0 at 1 worker
#: (it never splits), 1.39-1.49 at 2, 1.7-1.95 at 4, where shards that
#: each start cold read 3.5 and 4.9.  The ceiling (1.75 / 2.5) sits
#: halfway, clear of the scheduling noise on either side.
MAX_FP_NODES_INFLATION_PER_WORKER = 0.375


def machine_stamp() -> dict:
    """What produced the wall clocks (the counts need no stamp)."""
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": model,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }


def run_frontier_bench(case=FRONTIER_CASE) -> dict:
    """Scale the dynamic frontier over worker counts, then hurt it.

    Three clean runs (1/2/4 workers) measure scaling of the
    crash-tolerant batched-claim frontier in its adaptive-sharding
    default; a fourth runs 4 workers under the seeded
    :class:`~repro.chaos.workers.WorkerKiller` to price recovery.
    Every run must reproduce the serial walk's decision vectors,
    violations and completeness — scaling and kills change wall clock,
    never the search.

    Per worker count the report records the coordination counters
    (claims, claim round trips, heartbeats, exchange pulls) and the
    fingerprint work: ``fp_nodes``, ``host_hit_rate`` and
    ``fp_nodes_inflation = fp_nodes / the single walk's``.  Three
    machine-independent gates always hold: claims ≥ round trips
    (batching amortizes), 1-worker claims fit in a handful of round
    trips, and ``fp_nodes_inflation`` ≤ ``1 + 0.375 × workers`` (shards
    of a root share their worker's warm fingerprint engine; see
    :data:`MAX_FP_NODES_INFLATION_PER_WORKER`).
    The wall-clock gates —
    1-worker overhead ≤ 1.3x single, 4-worker wall < 1-worker wall —
    are asserted only under ``BENCH_EXPLORE_STRICT=1`` *and* enough
    cores to make them physical (time-shared single-core runners
    cannot beat a serial walk with 4 processes); the
    ``repro.store check`` trend gate carries them across CI runs via
    ``frontier.overhead_1_vs_single`` and ``frontier.wall_1_over_wall_4``.
    """
    from repro.explore.frontierd import explore_case_dynamic

    started = time.perf_counter()
    single = explore_case(case)
    single_s = time.perf_counter() - started

    def gate(result, name):
        assert result.decision_vectors == single.decision_vectors, name
        assert len(result.violations) == len(single.violations), name
        assert result.complete, name

    scaling = {}
    for workers in (1, 2, 4):
        result = explore_case_dynamic(case, workers=workers, lease_ttl=5.0)
        gate(result, f"workers={workers}")
        block = result.frontier
        counters = result.counters
        encodes = counters.explore_fp_host_hits + counters.explore_fp_host_misses
        scaling[str(workers)] = {
            "wall_clock": block["wall_clock"],
            "runs": result.runs,
            "recoveries": block["recoveries"],
            "claims": block["claims"],
            "claim_round_trips": block["claim_round_trips"],
            "heartbeats": block["heartbeats"],
            "exchange_pulls": block["exchange_pulls"],
            "fp_nodes": counters.explore_fp_nodes,
            "host_hit_rate": round(counters.explore_fp_host_hits / encodes, 3),
            "fp_nodes_inflation": round(
                counters.explore_fp_nodes / single.counters.explore_fp_nodes, 3
            ),
        }

    # Machine-independent: batching must move at least one item per
    # round trip everywhere, and a lone worker must drain the whole
    # queue in a handful of claims (it takes the entire tree as one
    # batch, plus whatever it re-split while briefly under budget).
    for workers, row in scaling.items():
        assert row["claims"] >= row["claim_round_trips"], (workers, row)
        assert row["fp_nodes_inflation"] <= (
            1 + MAX_FP_NODES_INFLATION_PER_WORKER * int(workers)
        ), (workers, row)
    assert scaling["1"]["claim_round_trips"] <= 4, scaling["1"]

    overhead_1 = scaling["1"]["wall_clock"] / single_s if single_s else None
    wall_ratio = (
        scaling["1"]["wall_clock"] / scaling["4"]["wall_clock"]
        if scaling["4"]["wall_clock"]
        else None
    )
    cores = os.cpu_count() or 1
    if os.environ.get("BENCH_EXPLORE_STRICT") and cores >= 2:
        assert overhead_1 is not None and overhead_1 <= MAX_FRONTIER_OVERHEAD, (
            overhead_1,
            scaling,
        )
        assert wall_ratio is not None and wall_ratio > 1.0, (
            wall_ratio,
            scaling,
        )

    chaos = explore_case_dynamic(
        case,
        workers=4,
        lease_ttl=1.5,
        chaos_kill_rate=0.3,
        chaos_seed=7,
    )
    gate(chaos, "chaos")
    chaos_block = chaos.frontier
    clean_wall = scaling["4"]["wall_clock"]
    return {
        "case": case.describe(),
        "machine": machine_stamp(),
        "single_elapsed_seconds": round(single_s, 3),
        "single_fp_nodes": single.counters.explore_fp_nodes,
        "overhead_1_vs_single": (
            round(overhead_1, 3) if overhead_1 is not None else None
        ),
        "wall_1_over_wall_4": (
            round(wall_ratio, 3) if wall_ratio is not None else None
        ),
        "scaling": scaling,
        "recovery": {
            "kill_rate": 0.3,
            "wall_clock": chaos_block["wall_clock"],
            "kills": chaos_block["kills"],
            "recoveries": chaos_block["recoveries"],
            "respawns": chaos_block["respawns"],
            "claims": chaos_block["claims"],
            "claim_round_trips": chaos_block["claim_round_trips"],
            "overhead_vs_clean": round(
                chaos_block["wall_clock"] / clean_wall, 2
            ) if clean_wall else None,
        },
    }


def run_benchmark(
    report_path: str = "BENCH_explore.json", frontier_only: bool = False
) -> dict:
    if frontier_only:
        report = {"frontier": run_frontier_bench()}
    else:
        cases = [run_case_bench(case) for case in CASES]
        report = {
            # Stamps the ``cases`` rows and the scalars derived from
            # them; ``frontier`` (which can be re-recorded alone)
            # carries its own.
            "machine": machine_stamp(),
            # Keyed by target and size so ``repro.store check`` can
            # trend each case's absolute fingerprint work by name.
            "incremental_fp_nodes": {
                f"{case.target}{case.n}": row["modes"]["incremental"]["fp_nodes"]
                for case, row in zip(CASES, cases)
            },
            "cases": cases,
            "frontier": run_frontier_bench(),
        }
    Path(report_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_explorer_bench_small():
    """The pytest-visible slice: the two cheap cases, counter gates only."""
    for case in CASES[:2]:
        run_case_bench(case)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--frontier-only",
        action="store_true",
        help="run (and write) only the frontier scaling section",
    )
    parser.add_argument(
        "--report",
        default="BENCH_explore.json",
        help="report path (default: BENCH_explore.json)",
    )
    args = parser.parse_args()
    print(
        json.dumps(
            run_benchmark(args.report, frontier_only=args.frontier_only),
            indent=2,
        )
    )
