"""Benchmarks of the explorer's hot path: fingerprints and reductions.

Four pinned cases spanning the target families are each exhausted
under every fingerprint mode — ``naive`` (the byte encoder without
caching, the fingerprint-work baseline), ``incremental`` (caching plus
cross-run replay-digest reuse), ``native`` (the compiled encoder
riding the same caches, when ``repro._native`` is built — digests are
byte-identical to incremental, so its row adds only wall clock and the
``native_calls``/``native_bytes`` counters), and ``incremental`` with
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
  that executes every tick) and every other mode executes fewer than
  it does (``steps_executed``): a step the root has taken before is
  served from the transition table.  ``hosts_rebuilt`` rides along.

The native-over-incremental whole-search speedup is recorded per case
and trended — it is Amdahl-limited by the sim replay loop (on paxos the
encoder is only a few percent of the wall), so the hard CI gate lives in the
**encoder** section instead: the ported unit-encoding pipeline run in
isolation, where ≥1.5x is physical on any machine, asserted under
``BENCH_NATIVE_STRICT=1`` (the CI native perf leg, which also insists
the extension actually built).  Run without pytest via
``python benchmarks/bench_explorer.py`` to write ``BENCH_explore.json``.

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

from repro import _native
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

#: Conservative CI gate for the compiled unit-encoding pipeline over
#: the pure one, measured in isolation (the ``encoder`` section).  The
#: whole-search native-vs-incremental ratio is Amdahl-limited by sim
#: replay — it is reported per case and trended, never hard-gated.
MIN_NATIVE_ENCODE_SPEEDUP = 1.5

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
        "native_calls": result.counters.explore_native_calls,
        "native_bytes": result.counters.native_encode_bytes,
        "_vectors": result.decision_vectors,
        "_elapsed_raw": elapsed,
    }


def run_case_bench(case) -> dict:
    modes = {
        "naive": _explore(case, "naive"),
        "incremental": _explore(case, "incremental"),
    }
    if _native.available():
        modes["native"] = _explore(case, "native")
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
    native_speedup = None
    if "native" in modes:
        # The native mode rides the identical caches: same tree walk,
        # same counted fingerprint work — only the encoding is compiled.
        assert modes["native"]["runs"] == modes["incremental"]["runs"], case
        assert (
            modes["native"]["states"] == modes["incremental"]["states"]
        ), case
        assert (
            modes["native"]["dedup_hits"] == modes["incremental"]["dedup_hits"]
        ), case
        assert modes["native"]["native_calls"] > 0, case
        assert modes["incremental"]["native_calls"] == 0, case
        native_speedup = round(
            modes["incremental"]["_elapsed_raw"]
            / modes["native"]["_elapsed_raw"],
            2,
        )
    for mode in modes.values():
        del mode["_vectors"], mode["_elapsed_raw"]
    return {
        "case": case.describe(),
        "wall_speedup_native_vs_incremental": native_speedup,
        "symmetry": symmetry,
        "modes": modes,
    }


#: One pass over this corpus ≈ the unit mix of a real fingerprint:
#: buffered-message pairs, decisions, operation records — the shapes
#: the compiled builders (`enc_pair`/`enc_decision`/`enc_operation`)
#: cross the C boundary once for.
ENCODER_CORPUS = {
    "pairs": [
        ("nbac", ("vote", 1, True)),
        ("paxos", {"ballot": (3, 2), "accepted": [(1, "v")], "phase": "p2a"}),
        ("detector", frozenset({0, 1, 2})),
        ("register", ("write", (2, 7), "value-string")),
        ("qc", [None, True, -17, 2**70, "quorum"]),
    ],
    "decisions": [
        ("nbac", "commit", False),
        ("consensus", ("decided", 1), True),
    ],
    "operations": [
        ("register", "read", (), 41, 57, ("ok", "v3")),
        ("register", "write", ((1, 4), "x"), 90, None, None),
    ],
}
ENCODER_ROUNDS = 4_000


def run_encoder_bench() -> dict:
    """The ported unit-encoding pipeline, isolated from sim replay.

    Runs the exact per-unit protocol both ways — pure Python
    (`FingerprintEngine._unit`: save accumulators, encode, freeze the
    ambiguity set, restore) against the compiled single-crossing
    builders — asserting byte-identical output, then measures the wall
    ratio.  Encoder-bound by construction, so the ≥1.5x CI gate is
    physical here regardless of how replay-heavy the search cases are.
    """
    from repro.explore.state import _Encoder

    native_cls = _native.encoder_class()
    assert native_cls is not None, _native.status()
    pure_enc, native_enc = _Encoder(3), native_cls(3)

    def pure_pass():
        units = []
        for a, b in ENCODER_CORPUS["pairs"]:
            saved_ambig, saved_opaque = pure_enc.ambig, pure_enc.opaque
            pure_enc.ambig, pure_enc.opaque = set(), False
            data = pure_enc.enc(a) + pure_enc.enc(b)
            units.append((data, frozenset(pure_enc.ambig), pure_enc.opaque))
            pure_enc.ambig, pure_enc.opaque = saved_ambig, saved_opaque
        for component, value, postcrash in ENCODER_CORPUS["decisions"]:
            saved_ambig, saved_opaque = pure_enc.ambig, pure_enc.opaque
            pure_enc.ambig, pure_enc.opaque = set(), False
            data = (
                pure_enc.enc(component)
                + pure_enc.enc(value)
                + (b"T;" if postcrash else b"F;")
            )
            units.append((data, frozenset(pure_enc.ambig), pure_enc.opaque))
            pure_enc.ambig, pure_enc.opaque = saved_ambig, saved_opaque
        for component, kind, args, invoke, response, result in ENCODER_CORPUS[
            "operations"
        ]:
            saved_ambig, saved_opaque = pure_enc.ambig, pure_enc.opaque
            pure_enc.ambig, pure_enc.opaque = set(), False
            data = (
                pure_enc.enc(component)
                + pure_enc.enc(kind)
                + pure_enc.enc(args)
                + b"@%d;" % invoke
                + (b"@%d;" % response if response is not None else b"N;")
                + pure_enc.enc(result)
            )
            units.append((data, frozenset(pure_enc.ambig), pure_enc.opaque))
            pure_enc.ambig, pure_enc.opaque = saved_ambig, saved_opaque
        return units

    def native_pass():
        units = []
        for a, b in ENCODER_CORPUS["pairs"]:
            units.append(native_enc.enc_pair(a, b))
        for component, value, postcrash in ENCODER_CORPUS["decisions"]:
            units.append(native_enc.enc_decision(component, value, postcrash))
        for component, kind, args, invoke, response, result in ENCODER_CORPUS[
            "operations"
        ]:
            units.append(
                native_enc.enc_operation(
                    component, kind, args, invoke, response, result
                )
            )
        return units

    # Differential check first: same bytes, same accumulator verdicts.
    for (data_p, ambig_p, opaque_p), (data_n, mask_n, opaque_n) in zip(
        pure_pass(), native_pass()
    ):
        assert data_p == data_n, (data_p, data_n)
        assert ambig_p == {b for b in range(3) if mask_n >> b & 1}
        assert opaque_p == opaque_n

    started = time.perf_counter()
    for _ in range(ENCODER_ROUNDS):
        pure_pass()
    pure_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(ENCODER_ROUNDS):
        native_pass()
    native_elapsed = time.perf_counter() - started
    speedup = pure_elapsed / native_elapsed
    report = {
        "machine": machine_stamp(),
        "rounds": ENCODER_ROUNDS,
        "units_per_round": sum(len(v) for v in ENCODER_CORPUS.values()),
        "pure_seconds": round(pure_elapsed, 3),
        "native_seconds": round(native_elapsed, 3),
        "speedup_native_vs_pure": round(speedup, 2),
        "native_bytes": native_enc.bytes_encoded,
    }
    if os.environ.get("BENCH_NATIVE_STRICT"):
        assert speedup >= MIN_NATIVE_ENCODE_SPEEDUP, report
    return report


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
        "repro_native_available": _native.available(),
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
        native_speedups = [
            c["wall_speedup_native_vs_incremental"]
            for c in cases
            if c["wall_speedup_native_vs_incremental"] is not None
        ]
        report = {
            # Stamps the ``cases`` rows and the scalars derived from
            # them; ``encoder`` and ``frontier`` (which can be
            # re-recorded alone) carry their own.
            "machine": machine_stamp(),
            "native": _native.status(),
            # Keyed by target and size so ``repro.store check`` can
            # trend each case's absolute fingerprint work by name.
            "incremental_fp_nodes": {
                f"{case.target}{case.n}": row["modes"]["incremental"]["fp_nodes"]
                for case, row in zip(CASES, cases)
            },
            "min_native_wall_speedup": (
                min(native_speedups) if native_speedups else None
            ),
            "cases": cases,
            "encoder": (
                run_encoder_bench() if _native.available() else None
            ),
            "frontier": run_frontier_bench(),
        }
        if os.environ.get("BENCH_NATIVE_STRICT"):
            # run_encoder_bench already asserted the ≥1.5x gate; here
            # we insist the extension really built (a silent compile
            # failure on the CI native leg must fail the build) and
            # that the whole-search ratio at least moved the needle.
            assert report["native"]["available"], report["native"]
            assert report["encoder"] is not None
            assert report["min_native_wall_speedup"] is not None, report
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
