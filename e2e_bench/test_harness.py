"""The benchmark's own checks: ``pytest e2e_bench -q`` from the repo root.

Outside tier-1's ``testpaths`` on purpose — none of these import
``repro`` or start a repetition; the dry run feeds canned facts through
the real measuring and reporting code.
"""

from __future__ import annotations

import json
import re
import sys
import types

import pytest

from e2e_bench import harness
from e2e_bench.__main__ import contract_line, measure, repetitions_for
from e2e_bench.tracing import AGGREGATE, SAMPLE_WINDOW, SPAN, Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- span self-time arithmetic ----------------------------------------------

def test_self_time_is_span_minus_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(2.0)

    leaf = tracer.span("leaf", leaf)

    def middle():
        clock.advance(1.0)
        leaf()
        leaf()

    middle = tracer.span("middle", middle)

    def outer():
        clock.advance(0.5)
        middle()
        clock.advance(0.25)

    tracer.span("outer", outer)()
    rows = tracer.summary()
    assert rows["outer"]["total_s"] == pytest.approx(5.75)
    assert rows["outer"]["self_s"] == pytest.approx(0.75)
    assert rows["middle"]["self_s"] == pytest.approx(1.0)
    assert rows["leaf"] == pytest.approx(
        {"calls": 2, "total_s": 4.0, "self_s": 4.0, "p50_s": 2.0, "p99_s": 2.0, "max_s": 2.0}
    )
    # Grandchildren are charged to their parent, not to the root.
    assert sum(row["self_s"] for row in rows.values()) == pytest.approx(5.75)
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1]


def test_reentrant_spans_are_not_counted_twice():
    clock = FakeClock()
    tracer = Tracer(clock)

    def recurse(depth):
        clock.advance(1.0)
        if depth:
            recurse(depth - 1)

    recurse = tracer.span("store.put", recurse)
    recurse(2)
    row = tracer.summary()["store.put"]
    assert row["calls"] == 3
    assert row["total_s"] == pytest.approx(3.0 + 2.0 + 1.0)  # inclusive, overlapping
    assert row["self_s"] == pytest.approx(3.0)  # what actually elapsed


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span("boom", boom)()
    tracer.span("after", lambda: clock.advance(1.0))()
    assert tracer.summary()["boom"]["total_s"] == pytest.approx(1.0)
    assert tracer.spans[1][3] == -1  # the stack was unwound


def test_aggregate_counts_every_call_and_scales_sampled_seconds():
    clock = FakeClock()
    tracer = Tracer(clock)

    def value(nested=False):
        clock.advance(1.0)
        if nested:
            value()  # re-entrant: 2 calls, 2 s, timed once from outside

    value = tracer.aggregate("core.fd_value", value)
    calls = 0
    for _ in range(3 * SAMPLE_WINDOW):
        value(nested=True)
        calls += 2
    row = tracer.summary()["core.fd_value"]
    assert row["calls"] == calls
    # Only the first window was timed, yet the estimate covers all calls.
    assert tracer.aggregates["core.fd_value"][1] < calls
    assert row["total_s"] == pytest.approx(clock.now, rel=0.01)


# -- patching ---------------------------------------------------------------

@pytest.fixture
def fake_layer(monkeypatch):
    module = types.ModuleType("e2e_bench_fake_layer")

    class Engine:
        def step(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return (cls.__name__, x)

    module.Engine = Engine
    module.helper = lambda x: x * 2
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_patch_wraps_functions_methods_and_classmethods(fake_layer):
    tracer = Tracer()
    assert tracer.patch(fake_layer.__name__, "helper", "fake.helper", SPAN)
    assert tracer.patch(fake_layer.__name__, "Engine.step", "fake.step", AGGREGATE)
    assert tracer.patch(fake_layer.__name__, "Engine.build", "fake.build", SPAN)
    assert fake_layer.helper(4) == 8
    assert fake_layer.Engine().step(1) == 2
    assert fake_layer.Engine.build(3) == ("Engine", 3)
    rows = tracer.summary()
    assert rows["fake.helper"]["calls"] == rows["fake.build"]["calls"] == 1
    assert rows["fake.step"]["calls"] == 1
    tracer.uninstall()
    fake_layer.helper(4)
    assert tracer.summary()["fake.helper"]["calls"] == 1  # restored
    assert isinstance(vars(fake_layer.Engine)["build"], classmethod)


def test_missing_patch_point_degrades_to_null_metrics(fake_layer):
    tracer = Tracer()
    assert not tracer.patch(fake_layer.__name__, "Engine.gone", "sim.run", SPAN)
    assert not tracer.patch("e2e_bench_no_such_module", "f", "store.", SPAN)
    assert tracer.missing == [
        "e2e_bench_fake_layer.Engine.gone", "e2e_bench_no_such_module.f",
    ]
    traced = {
        "wall_s": 10.0,
        "trace": {"rows": tracer.summary(), "missing": tracer.missing,
                  "broken": tracer.broken},
    }
    metrics = harness.time_metrics("exhaust_nbac3", traced, 9.0)
    assert metrics["trace.points_missing"] == 2
    for name in ("sim.run_s", "sim.run_share", "sim.run_p99_us", "sim.us_per_tick",
                 "explore.driver_s", "store.coord_call_s", "store.coord_calls"):
        assert metrics[name] is None, name
    assert metrics["explore.build_s"] == 0.0  # resolved elsewhere, never called
    assert metrics["trace.overhead_frac"] == pytest.approx(10.0 / 9.0 - 1.0)


# -- statistics and bounds --------------------------------------------------

def test_summarize_reports_median_quartiles_and_n():
    assert harness.summarize([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "n": 1}
    row = harness.summarize([1.0, 2.0, 3.0, 4.0, 100.0])
    assert (row["median"], row["n"]) == (3.0, 5)
    assert (row["q1"], row["q3"]) == (1.5, 52.0)  # statistics.quantiles, n=4


def test_worsening_is_direction_aware():
    assert harness.worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert harness.worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert harness.worsening(0.0, 0.0, "lower") == 0.0


def test_compare_sets_flags_only_differences_beyond_the_bound():
    specs = [
        {"name": "wall_s", "better": "lower", "bound": 0.1},
        {"name": "cpu_s", "better": "lower", "bound": 0.1},
    ]
    rows = harness.compare_sets(
        {"wall_s": 10.0, "cpu_s": 10.0}, {"wall_s": 10.9, "cpu_s": 8.5}, specs
    )
    assert [row["ok"] for row in rows] == [True, False]  # a 15% "gain" is noise too
    assert rows[1]["difference"] == pytest.approx(0.15)


def test_repetition_counts_scale_with_seconds():
    assert repetitions_for("frontier_nbac3", 25, 25) == 3
    assert repetitions_for("frontier_nbac3", 50, 25) == 6
    assert repetitions_for("sweep_e1_e13", 1, 25) == 1


# -- output checks ----------------------------------------------------------

def test_check_outputs_counts_operations_not_messages():
    expected = {"seed": 0, "digests": {"exhaust_nbac3": ["a", "b"], "sweep_e1_e13": ["t"]}}
    good = {"attempted": 2, "failures": [], "digests": ["a", "b"]}
    bad = {"attempted": 2, "failures": [["root 1", "incomplete"]], "digests": ["a", "x"]}
    attempted, failures = harness.check_outputs("exhaust_nbac3", 0, [good, bad], expected)
    assert attempted == 4
    assert harness.failed_operations(failures) == 1  # both flaws hit rep 1 root 1
    # Another seed: digests are not pinned, verdicts still are.
    attempted, failures = harness.check_outputs("exhaust_nbac3", 5, [bad], expected)
    assert (attempted, len(failures)) == (2, 1)
    # The table digest is an operation of its own.
    sweep = {"attempted": 13, "failures": [], "digests": ["other"]}
    attempted, failures = harness.check_outputs("sweep_e1_e13", 0, [sweep], expected)
    assert (attempted, harness.failed_operations(failures)) == (14, 1)
    # The frontier must reproduce the serial walk's digests at any seed.
    frontier = {"attempted": 2, "failures": [], "digests": ["a", "z"]}
    _, failures = harness.check_outputs("frontier_nbac3", 7, [frontier], expected, baseline=good)
    assert failures == [["rep 0 root 1", "digest differs from serial walk's"]]


def test_frontier_is_not_comparable_on_one_core():
    assert not harness.comparable("frontier_nbac3", 1)
    assert harness.comparable("frontier_nbac3", 2)
    assert harness.comparable("exhaust_nbac3", 1)


# -- schema: BENCHMARK.json against a dry run -------------------------------

def canned_facts(workload, seed, traced, setup_only):
    """What an adapter process would print, without running anything."""
    facts = {"workload": workload, "seed": seed, "traced": traced, "native": False,
             "setup_s": 0.25}
    if setup_only:
        return facts
    facts.update(wall_s=10.0, cpu_s=9.5, coord_cpu_s=0.5, worker_cpu_s=9.0,
                 peak_rss_mb=30.0, attempted=4, failures=[], incidents=0)
    if workload == "sweep_e1_e13":
        facts["digests"] = ["tables"]
        facts["attempted"] = 13
        if traced:
            facts["profile"] = {"ticks": 100, "ticks_leaped": 10, "messages_scanned": 12,
                                "messages_delivered": 10, "detector_value_calls": 8,
                                "detector_cache_hits": 2}
    else:
        facts["digests"] = ["r0", "r1", "r2", "r3"]
        facts["stats"] = {"runs": 40, "states": 8, "shards": 3}
        facts["counters"] = {"explore_fp_host_hits": 1, "explore_fp_host_misses": 3}
        if workload == "frontier_nbac3":
            facts["frontier"] = {"claims": 20, "claim_round_trips": 4, "heartbeats": 2,
                                 "exchange_pulls": 5, "store_busy_retries": 0}
            facts["db_bytes"] = 4096
    if traced:
        facts["wall_s"] = 11.0
        row = {"calls": 2, "total_s": 1.0, "self_s": 0.5, "p50_s": 0.4, "p99_s": 0.6, "max_s": 0.6}
        facts["trace"] = {"rows": {"sim.run": row, "store.flush": row, "experiments.E5": row},
                          "missing": [], "broken": []}
    return facts


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_names_are_valid_and_emitted_by_a_dry_run():
    benchmark = harness.load_benchmark()
    assert sorted(benchmark) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert benchmark["paths"] == ["e2e_bench"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    named = workloads + [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    assert len(set(named)) == len(named)
    assert all(NAME.match(name) for name in named)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in benchmark["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in benchmark["end_to_end"] if m["name"] == "setup_s"
    ).items()

    spawned = []

    def spawn(workload, seed, traced, setup_only):
        spawned.append((workload, traced, setup_only))
        return canned_facts(workload, seed, traced, setup_only)

    canaries = lambda: {"attempted": 5, "failures": []}  # noqa: E731
    result = measure(workloads, 3, benchmark["run_seconds"], True, True, benchmark,
                     spawn=spawn, canaries=canaries)
    # Round-robin: the first repetitions visit every workload in turn.
    timed = [w for w, traced, setup_only in spawned if not (traced or setup_only)]
    assert timed[:4] == workloads
    assert spawned[0][2] and spawned[-1][1]  # set-up first, traced pass last
    for workload in workloads:
        entry = result["workloads"][workload]
        assert sorted(entry["end_to_end"]) == sorted(m["name"] for m in benchmark["end_to_end"])
        assert sorted(entry["per_layer"]) == sorted(m["name"] for m in benchmark["per_layer"])
        assert entry["end_to_end"]["setup_s"]["n"] == 11
        assert entry["failed"] == 0
        for kind in ("end_to_end", "per_layer"):
            line = contract_line(entry, benchmark, kind)
            assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
            json.dumps(line)
    frontier = result["workloads"]["frontier_nbac3"]["per_layer"]
    assert frontier["frontier.runs_inflation"]["median"] == 1.0
    assert frontier["frontier.claims_per_round_trip"]["median"] == 5.0
    assert frontier["trace.overhead_frac"]["median"] == pytest.approx(0.1)


def test_trace_only_frontier_run_brings_its_own_serial_baseline():
    benchmark = harness.load_benchmark()
    spawned = []

    def spawn(workload, seed, traced, setup_only):
        spawned.append((workload, traced))
        return canned_facts(workload, seed, traced, setup_only)

    result = measure(["frontier_nbac3"], 1, 25, False, True, benchmark,
                     spawn=spawn, canaries=lambda: pytest.fail("untimed pass"))
    assert spawned == [("frontier_nbac3", False), ("exhaust_nbac3", False),
                       ("frontier_nbac3", True)]
    entry = result["workloads"]["frontier_nbac3"]
    assert entry["end_to_end"] == {}
    assert entry["attempted"] == 12  # plain + traced + the baseline's roots
