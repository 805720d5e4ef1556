"""Direct unit tests for the process runtime (contexts, hooks, hosts)."""

import pytest

from repro.core.failure_pattern import FailurePattern
from repro.sim.network import ConstantDelay, Network
from repro.sim.process import Component, ProcessContext, ProcessHost
from repro.sim.tasklets import WaitSteps
from repro.sim.trace import RunTrace

import random


def make_runtime(n=2, pid=0):
    trace = RunTrace(FailurePattern.crash_free(n), horizon=1_000)
    network = Network(n, random.Random(0), delay_model=ConstantDelay(1))
    ctx = ProcessContext(pid, n, network, trace)
    return ctx, network, trace


class Probe(Component):
    name = "probe"

    def __init__(self):
        super().__init__()
        self.started = 0
        self.messages = []
        self.steps = 0

    def on_start(self):
        self.started += 1

    def on_message(self, sender, payload, meta):
        self.messages.append((sender, payload))

    def on_step(self):
        self.steps += 1


class TestProcessContext:
    def test_send_routes_through_network(self):
        ctx, network, _ = make_runtime()
        ctx.now = 5
        ctx.send(1, "comp", "hello")
        assert network.pending_count(1) == 1

    def test_broadcast_excluding_self(self):
        ctx, network, _ = make_runtime(n=3)
        ctx.broadcast("comp", "x", include_self=False)
        assert network.pending_count(0) == 0
        assert network.pending_count(1) == 1
        assert network.pending_count(2) == 1

    def test_operation_records_lifecycle(self):
        ctx, _, trace = make_runtime()
        ctx.now = 3
        record = ctx.new_operation("comp", "read", ("r",))
        assert record.pending
        ctx.now = 9
        ctx.complete_operation(record, 42)
        assert not record.pending
        assert record.response_time == 9 and record.result == 42
        with pytest.raises(RuntimeError):
            ctx.complete_operation(record, 43)

    def test_decide_records_and_duplicates_raise(self):
        ctx, _, trace = make_runtime()
        ctx.now = 7
        ctx.decide("comp", "v")
        assert trace.decision_of(0, "comp").value == "v"
        with pytest.raises(RuntimeError):
            ctx.decide("comp", "w")

    def test_annotation_history_is_shared(self):
        ctx, _, trace = make_runtime()
        h1 = ctx.annotation_history("k")
        h2 = ctx.annotation_history("k")
        assert h1 is h2
        assert trace.annotations["k"] is h1

    def test_outgoing_hooks_see_messages(self):
        ctx, _, _ = make_runtime()
        seen = []
        ctx.add_outgoing_hook(lambda msg: seen.append(msg.payload))
        ctx.send(1, "comp", "tagged")
        assert seen == ["tagged"]


class TestProcessHost:
    def test_start_runs_once_before_first_step(self):
        ctx, _, _ = make_runtime()
        probe = Probe()
        host = ProcessHost(0, ctx, [probe])
        host.take_step(1, None)
        host.take_step(2, None)
        assert probe.started == 1
        assert probe.steps == 2

    def test_message_dispatch_by_component_name(self):
        ctx, network, _ = make_runtime()
        probe = Probe()
        host = ProcessHost(0, ctx, [probe])
        network.send(1, 0, "probe", "payload", now=0)
        msg = network.pick_for(0, 5)
        host.take_step(5, msg)
        assert probe.messages == [(1, "payload")]

    def test_unknown_component_raises(self):
        ctx, network, _ = make_runtime()
        host = ProcessHost(0, ctx, [Probe()])
        network.send(1, 0, "ghost", "x", now=0)
        msg = network.pick_for(0, 5)
        with pytest.raises(RuntimeError):
            host.take_step(5, msg)

    def test_duplicate_component_names_rejected(self):
        ctx, _, _ = make_runtime()
        with pytest.raises(ValueError):
            ProcessHost(0, ctx, [Probe(), Probe()])

    def test_tasklets_spawned_in_on_start_run(self):
        ctx, _, _ = make_runtime()

        class Spawner(Component):
            name = "spawner"

            def __init__(self):
                super().__init__()
                self.log = []

            def on_start(self):
                self.spawn(self._task())

            def _task(self):
                self.log.append("a")
                yield WaitSteps(1)
                self.log.append("b")

        spawner = Spawner()
        host = ProcessHost(0, ctx, [spawner])
        host.take_step(1, None)
        assert spawner.log == ["a"]
        host.take_step(2, None)
        assert spawner.log == ["a", "b"]


class TestRunTrace:
    def test_decision_latency_requires_all_correct(self):
        trace = RunTrace(FailurePattern.crash_free(2), horizon=100)
        from repro.sim.trace import Decision

        trace.record_decision(Decision(10, 0, "c", "v"))
        assert trace.decision_latency("c") is None
        trace.record_decision(Decision(20, 1, "c", "v"))
        assert trace.decision_latency("c") == 20

    def test_summary_shape(self):
        trace = RunTrace(FailurePattern(3, {1: 5}), horizon=100)
        summary = trace.summary()
        assert summary["faulty"] == [1]
        assert summary["steps"] == 0

    def test_step_count_by_pid(self):
        trace = RunTrace(FailurePattern.crash_free(2), horizon=100)
        trace.record_step(1, 0, None, lambda: None)
        trace.record_step(2, 1, None, lambda: None)
        trace.record_step(3, 0, None, lambda: None)
        assert trace.step_count() == 3
        assert trace.step_count(0) == 2
