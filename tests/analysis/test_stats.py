"""Unit tests for run statistics and table helpers."""

import pytest

from repro.analysis.stats import aggregate, format_table, run_metrics
from repro.core.failure_pattern import FailurePattern
from repro.sim.system import System
from repro.sim.trace import Decision, RunTrace
from tests.runner.helpers import consensus_spec


class TestRunMetrics:
    def test_shape(self):
        trace = RunTrace(FailurePattern(3, {2: 5}), horizon=100)
        trace.messages_sent = 7
        trace.record_decision(Decision(10, 0, "c", "v"))
        trace.record_decision(Decision(12, 1, "c", "v"))
        metrics = run_metrics(trace, "c")
        assert metrics["n"] == 3
        assert metrics["faulty"] == 1
        assert metrics["messages_sent"] == 7
        assert metrics["decision_latency"] == 12

    def test_latency_none_when_undecided(self):
        trace = RunTrace(FailurePattern.crash_free(2), horizon=100)
        assert run_metrics(trace, "c")["decision_latency"] is None

    @pytest.mark.parametrize("mode", ["full", "lite"])
    def test_steps_are_the_run_steps_in_every_trace_mode(self, mode):
        spec = consensus_spec(trace_mode=mode)
        system = System.from_spec(spec)
        trace = system.run(stop_when=spec.resolve_stop())
        assert trace.mode == mode
        metrics = run_metrics(trace, "consensus")
        assert metrics["steps"] == trace.step_count() > 0
        # Every run spec defaults to a lite trace; it counts the same
        # steps a full one retains.
        full = System.from_spec(consensus_spec(trace_mode="full"))
        assert metrics["steps"] == full.run(
            stop_when=spec.resolve_stop()
        ).step_count()


class TestAggregate:
    def test_min_mean_max(self):
        rows = [{"x": 1}, {"x": 2}, {"x": 6}]
        agg = aggregate(rows, ["x"])
        assert agg["x"]["min"] == 1
        assert agg["x"]["max"] == 6
        assert agg["x"]["mean"] == 3
        assert agg["x"]["count"] == 3

    def test_none_values_excluded(self):
        rows = [{"x": 1}, {"x": None}, {"x": 3}]
        agg = aggregate(rows, ["x"])
        assert agg["x"]["count"] == 2
        assert agg["x"]["mean"] == 2

    def test_all_none(self):
        agg = aggregate([{"x": None}], ["x"])
        assert agg["x"] == {"count": 0}


class TestFormatTable:
    def test_renders_aligned(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "long-name" in lines[3]
        assert "2.5" in lines[3]

    def test_floats_formatted(self):
        text = format_table(["v"], [[1.23456]])
        assert "1.2" in text
