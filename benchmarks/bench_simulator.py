"""Micro-benchmarks of the simulation substrate itself.

These put numbers on the machinery every experiment rides on: raw
step throughput, network send/deliver cost, tasklet scheduling, the
linearizability checker, and oracle history generation.
"""

import random

import pytest

from repro.core.detectors import PsiOracle, SigmaOracle, omega_sigma_oracle
from repro.core.failure_pattern import FailurePattern
from repro.registers.linearizability import check_linearizable
from repro.sim.network import ConstantDelay, Network
from repro.sim.perf import PerfCounters
from repro.sim.process import Component
from repro.sim.system import SystemBuilder
from repro.sim.tasklets import TaskletDriver, WaitSteps
from repro.sim.trace import OperationRecord


class ChatterBox(Component):
    """Each process pings a random peer every step (worst-case load)."""

    name = "chatter"

    def __init__(self):
        super().__init__()
        self._rng = random.Random(0)

    def on_step(self):
        self.send(self._rng.randrange(self.n), "ping")

    def on_message(self, sender, payload, meta):
        pass


def test_step_throughput(benchmark):
    """Steps/second with one message sent and one delivered per step."""

    def run():
        return (
            SystemBuilder(n=5, seed=0, horizon=20_000)
            .component("chatter", lambda pid: ChatterBox())
            .build()
            .run()
        )

    trace = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(trace.steps) == 20_000


def test_network_send_deliver(benchmark):
    net = Network(4, random.Random(0), delay_model=ConstantDelay(1))

    def churn():
        for i in range(1_000):
            net.send(0, i % 4, "c", i, now=i)
        delivered = 0
        for t in range(1_001, 3_000):
            for dest in range(4):
                if net.pick_for(dest, t):
                    delivered += 1
        return delivered

    assert benchmark(churn) == 1_000


def test_tasklet_driver(benchmark):
    def spin():
        driver = TaskletDriver()

        def task():
            for _ in range(100):
                yield WaitSteps(1)

        for _ in range(50):
            driver.spawn(task())
        for _ in range(120):
            driver.advance()
        return driver.active_count

    assert benchmark(spin) == 0


def test_linearizability_checker(benchmark):
    """A 60-operation, 3-client concurrent history."""
    rng = random.Random(7)
    ops = []
    current = {}
    t = 0
    for i in range(60):
        t += rng.randint(1, 3)
        reg = rng.choice(["x", "y", "z"])
        pid = i % 3
        if rng.random() < 0.5:
            value = (pid, i)
            rec = OperationRecord(i, pid, "reg", "write", (reg, value), t)
            current[reg] = value
        else:
            rec = OperationRecord(i, pid, "reg", "read", (reg,), t)
            rec.result = current.get(reg)
        rec.response_time = t + rng.randint(1, 4)
        ops.append(rec)
    verdict = benchmark(check_linearizable, ops)
    assert verdict.ok


@pytest.mark.parametrize(
    "oracle",
    [SigmaOracle(), PsiOracle(), omega_sigma_oracle()],
    ids=["Sigma", "Psi", "OmegaSigma"],
)
def test_oracle_history_generation(benchmark, oracle):
    """Every tick of every process, in time order — what a run reads.

    (Sampling every 7th tick lands one read in each constant segment
    and so measures the oracle's draws alone, never the history.)
    """
    pattern = FailurePattern(4, {3: 100})
    perf = PerfCounters()

    def build_and_sample():
        history = oracle.build_history(pattern, 2_000, random.Random(1))
        history.perf = perf
        return [history.value(p, t) for t in range(2_000) for p in range(4)]

    values = benchmark(build_and_sample)
    assert len(values) == 4 * 2_000
    # Reads that had to ask the oracle: one per segment, not one per tick.
    evaluations = perf.detector_value_calls - perf.detector_cache_hits
    assert evaluations < perf.detector_value_calls / 2

