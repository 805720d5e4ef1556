"""The sim-layer primitives the explorer's rewind is built from.

``System.run(start=k)`` resumes a halted run, ``Network.restore`` puts
the buffers back to an earlier moment, ``RunTrace.rollback`` forgets the
ticks from ``k`` on, and ``ProcessHost.replay`` brings a rebuilt host
back by re-feeding it its own steps against a muted context.  Each is
checked against the uninterrupted run it claims to be equivalent to.
"""

import random

import pytest

from repro.explore.state import _Encoder
from repro.sim.network import (
    Network,
    OldestFirstDelivery,
    RandomDelivery,
    ReferenceNetwork,
    UniformDelay,
)
from repro.sim.process import Component
from repro.sim.scheduler import RoundRobinScheduler, Scheduler
from repro.sim.system import SystemBuilder
from repro.sim.tasklets import WaitUntil


class Chatter(Component):
    """Pings around, runs one operation through a tasklet, decides."""

    name = "chat"

    def __init__(self):
        super().__init__()
        self.heard = []

    def on_start(self):
        self.broadcast(("hi", self.pid), include_self=False)
        self.spawn(self._operate())

    def _operate(self):
        record = self.ctx.new_operation(self.name, "gather", (self.pid,))
        yield WaitUntil(lambda: len(self.heard) >= 2)
        self.ctx.complete_operation(record, tuple(self.heard[:2]))
        self.decide(len(self.heard))

    def on_message(self, sender, payload, meta):
        self.heard.append((sender, payload, self.detector()))
        if payload[0] == "hi":
            self.send(sender, ("re", self.pid))


class HaltOnce(Scheduler):
    """Round-robin, except that tick ``at`` is refused the first time."""

    def __init__(self, at):
        self.inner = RoundRobinScheduler()
        self.at = at

    def pick(self, alive, now, rng):
        if now == self.at:
            self.at = None
            return None
        return self.inner.pick(alive, now, rng)


def _system(scheduler, horizon=40):
    system = (
        SystemBuilder(n=3, seed=5, horizon=horizon)
        .scheduler(scheduler)
        .component("chat", lambda pid: Chatter())
        .build()
    )
    # A detector that changes over time, read once per step: the d of
    # ⟨p, m, d⟩ (what the trace records and a replay pins).
    for host in system.hosts:
        host.ctx._detector_provider = lambda ctx=host.ctx: ctx.now // 7
    return system


class TestResume:
    @pytest.mark.parametrize("halt", [1, 2, 9, 40])
    def test_run_from_the_halted_tick_equals_the_uninterrupted_run(self, halt):
        whole = _system(RoundRobinScheduler()).run()
        system = _system(HaltOnce(halt))
        first = system.run()
        assert first.stop_reason == "scheduler-halt" and system.now == halt
        resumed = system.run(start=halt)
        assert resumed.digest() == whole.digest()
        assert resumed.steps == whole.steps
        assert resumed.decisions == whole.decisions
        assert resumed.operations == whole.operations
        assert (resumed.stop_reason, resumed.final_time) == (
            whole.stop_reason, whole.final_time
        )
        assert resumed.messages_sent == whole.messages_sent


class TestRollback:
    @pytest.mark.parametrize("time", [1, 2, 5, 9, 23])
    def test_rollback_equals_the_run_halted_there(self, time):
        rolled = _system(RoundRobinScheduler()).run()
        halted = _system(HaltOnce(time)).run()
        rolled.rollback(time)
        assert rolled.digest() == halted.digest()
        assert rolled.steps == halted.steps
        assert rolled.decisions == halted.decisions
        assert rolled.operations == halted.operations
        assert rolled._next_op_id == halted._next_op_id
        assert rolled._decided == halted._decided
        assert rolled._component_decided == halted._component_decided
        assert rolled.detector_samples._samples == halted.detector_samples._samples
        assert rolled.step_count() == halted.step_count()
        assert rolled._steps_by_pid == halted._steps_by_pid

    def test_lite_and_annotated_traces_are_refused(self):
        lite = (
            SystemBuilder(n=2, horizon=5)
            .trace_mode("lite")
            .component("chat", lambda pid: Chatter())
            .build()
            .run()
        )
        with pytest.raises(ValueError, match="full-mode"):
            lite.rollback(2)
        full = _system(RoundRobinScheduler(), horizon=5).run()
        full.annotations["k"] = object()
        with pytest.raises(ValueError, match="annotations"):
            full.rollback(2)


ENGINES = [Network, ReferenceNetwork]


def _drive(network, script, start, picks, journal=None, states=None):
    """Run ``script`` (per tick: sends, then one pick) from ``start``."""
    for tick in range(start, len(script) + 1):
        if states is not None:
            states[tick] = network._rng.getstate()
        sends, dest = script[tick - 1]
        for sender, to, payload in sends:
            msg = network.send(sender, to, "c", payload, tick)
            if journal is not None:
                journal["sent"].append(msg)
        got = network.pick_for(dest, tick)
        picks.append((tick, None if got is None else got.msg_id))
        if journal is not None:
            journal["delivered"].append(got)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", [OldestFirstDelivery, RandomDelivery])
@pytest.mark.parametrize("back_to", [1, 7, 30, 59])
def test_restore_round_trip(engine, policy, back_to):
    n, ticks = 3, 60
    rng = random.Random(11)
    script = [
        (
            [
                (rng.randrange(n), rng.randrange(n), ("m", t, i))
                for i in range(rng.randrange(3))
            ],
            rng.randrange(n),
        )
        for t in range(1, ticks + 1)
    ]
    network = engine(
        n, random.Random(3), delay_model=UniformDelay(1, 6),
        delivery_policy=policy(),
    )
    journal = {"sent": [], "delivered": []}
    picks, states = [], {}
    _drive(network, script, 1, picks, journal, states)
    final = (network._next_msg_id, network.sent_count, network.delivered_count)

    sent = [m for m in journal["sent"] if m.send_time < back_to]
    gone = {
        m.msg_id for m in journal["delivered"][: back_to - 1] if m is not None
    }
    network.restore(
        [m for m in sent if m.msg_id not in gone], len(sent), len(sent), len(gone)
    )
    assert network.pending_count() == len(sent) - len(gone)
    network._rng.setstate(states[back_to])
    again = []
    _drive(network, script, back_to, again)
    assert again == picks[back_to - 1:]
    assert final == (
        network._next_msg_id, network.sent_count, network.delivered_count
    )


class TestLocalReplay:
    def _run(self):
        system = _system(RoundRobinScheduler(), horizon=30)
        delivered = {}
        pick_for = system.network.pick_for

        def journaling_pick(dest, now):
            message = pick_for(dest, now)
            delivered[now] = message
            return message

        system.network.pick_for = journaling_pick
        system.run()
        return system, delivered

    @pytest.mark.parametrize("pid", [0, 1, 2])
    def test_refed_host_equals_the_original(self, pid):
        system, delivered = self._run()
        trace = system.trace
        original = system.hosts[pid]
        before = (
            system.network.sent_count,
            list(trace.decisions),
            list(trace.operations),
            trace.digest(),
        )
        own_ops = [op for op in trace.operations if op.pid == pid]
        completed = [(op.response_time, op.result) for op in own_ops]

        host = system.rebuild_host(pid)
        assert host is not original and system.hosts[pid] is original
        assert host.steps_taken == 0
        host.replay(
            [
                (step.time, delivered[step.time], step.detector_value)
                for step in trace.steps
                if step.pid == pid
            ],
            own_ops,
        )
        # Muted: nothing was sent, decided or opened a second time ...
        assert before == (
            system.network.sent_count,
            list(trace.decisions),
            list(trace.operations),
            trace.digest(),
        )
        # ... the records are the same objects, completed as before ...
        assert [op for op in trace.operations if op.pid == pid] == own_ops
        assert all(a is b for a, b in zip(
            (op for op in trace.operations if op.pid == pid), own_ops
        ))
        assert completed == [(op.response_time, op.result) for op in own_ops]
        # ... and the new host is in the old one's state, tasklets included.
        assert host.steps_taken == original.steps_taken
        assert host.ctx._replayed_ops is None

        def state(h):
            return _Encoder(3).enc(
                (h._started, h.components, [
                    (t.started, t.done, t.wait, t.gen)
                    for t in h._driver._tasklets
                ])
            )

        assert state(host) == state(original)

    def test_replay_that_diverges_is_reported(self):
        system, delivered = self._run()
        trace = system.trace
        host = system.rebuild_host(0)
        foreign = [op for op in trace.operations if op.pid == 1]
        with pytest.raises(RuntimeError, match="diverged"):
            host.replay(
                [
                    (step.time + 100, delivered[step.time], step.detector_value)
                    for step in trace.steps
                    if step.pid == 0
                ],
                foreign,
            )
        assert host.ctx._replayed_ops is None
