"""The rewound system is the system a from-scratch replay builds.

The search keeps one live ``System`` and rewinds it between paths
(``repro.explore.engine._LiveSystem``): network, trace and controller
go back from the journal, the processes that stepped since are rebuilt
and re-fed their own steps.  Whether that is *exact* is checked here
against the one thing that cannot be wrong by construction — whole-path
stateless replay, :func:`run_controlled`, which builds a new system and
executes every tick from 1.  After **every** run of an exploration the
live system is compared with the replayed one: trace digest, steps,
decisions, operations, detector samples, per-host step counts, in-flight
message ids, network counters, the controller's log / ``por_pruned`` /
script cursors, and the naive-mode fingerprint of the whole state.
And at **every** fingerprint of the search itself, each host's unit —
which the engine may have cached many paths ago under the process's
step history — is compared with a fresh encoding of the host.

Since the processes became memoized automata a step of the live system
may have been *served* from the transition table instead of executed,
and ``system.hosts`` holds stand-ins that bring a host object to the
process's state only when something looks.  The comparisons are the
same — everything a served step emits lands in the trace, the network
and the journal, and reading ``steps_taken`` or encoding a host looks —
plus two that ask the table directly: after every run each process's
lineage, spelt out as the chain of step keys it interns, is the one a
fresh engine derives from the scratch replay's own steps, and every
component reached through a stand-in encodes like the replayed host's.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.targets import TARGETS
from repro.explore import (
    CLOCK_FREE_TARGETS,
    ExploreCase,
    ExploreOptions,
    explore_case,
    run_controlled,
)
from repro.explore import engine as engine_mod
from repro.explore.cases import resolve_parts
from repro.explore.state import FingerprintEngine, StepEffects, _Encoder
from repro.sim.process import Component
from repro.sim.system import network_implementation
from tests.explore.helpers import NETWORKS, toy_target


def _naive_fingerprint(system, controller, case):
    engine = FingerprintEngine(case.n, "naive")
    engine.begin_run(system)
    scripts = controller.scripts
    return engine.fingerprint(
        system.now,
        True,
        min((t for _, t in case.crashes), default=None),
        None,
        (),
        False,
        False,
        tuple(scripts.cursors) if scripts is not None else None,
    )


def _observe(system, controller, case):
    """Everything two systems on the same path must agree on."""
    trace = system.trace
    network = system.network
    return {
        "digest": trace.digest(),
        "steps": list(trace.steps),
        "decisions": list(trace.decisions),
        "decided": (dict(trace._decided), dict(trace._component_decided)),
        "operations": list(trace.operations),
        "next_op_id": trace._next_op_id,
        "samples": trace.detector_samples._samples,
        "step_counts": (trace._step_total, trace._steps_by_pid),
        "stop": (trace.stop_reason, trace.final_time, system.now),
        "messages": (trace.messages_sent, trace.messages_delivered),
        "hosts": [(h.steps_taken, h._started) for h in system.hosts],
        "in_flight": [
            sorted(m.msg_id for m in network.in_flight(dest))
            for dest in range(case.n)
        ],
        "network": (
            network._next_msg_id, network.sent_count, network.delivered_count
        ),
        "log": list(controller.log),
        "por_pruned": controller.por_pruned,
        "ticks": [
            (t.log_len, t.por_pruned, t.sent, t.cursors, t.pid,
             t.delivered.msg_id if t.delivered is not None else None)
            for t in controller.ticks
        ],
        "sent": [m.msg_id for m in controller.sent],
        "cursors": (
            list(controller.scripts.cursors)
            if controller.scripts is not None else None
        ),
        "fingerprint": _naive_fingerprint(system, controller, case),
    }


def _histories(engine):
    """Each process's current lineage, spelt out: the step keys (minus
    the parent id, which is what the chain replaces) from the root on.
    A poisoned lineage names nothing."""
    spelt = []
    for pid, lineage in enumerate(engine._lineages[-1]):
        keys = {value: key for key, value in engine._lineage_ids[pid].items()}
        chain = []
        while lineage > 0:
            key = keys[lineage]
            chain.append(key[1:])
            lineage = key[0]
        spelt.append("poisoned" if lineage < 0 else chain[::-1])
    return spelt


def _derived_histories(system, controller, mode, clock_free):
    """The same, derived by a fresh engine from the steps a finished
    scratch replay actually took (keyed without the tick when the
    target is pinned clock-free)."""
    engine = FingerprintEngine(system.n, mode, clock_free=clock_free)
    operations = system.trace.operations
    for step, tick in zip(system.trace.steps, controller.ticks):
        pid = tick.pid
        inputs = engine.step_inputs(
            pid, step.time, step.detector_value, tick.delivered
        )
        if inputs is None:
            lineage = engine.poisoned_step()
        else:
            opened = [
                op for op in operations
                if op.pid == pid and op.invoke_time == step.time
            ]
            lineage = engine.learn_step(
                pid,
                inputs,
                tick.delivered,
                opened[0].op_id if opened else 0,
                bool(system.hosts[pid].ctx._incoming_hooks),
                StepEffects(
                    (), (), tuple((o.component, o.kind, o.args) for o in opened), ()
                ),
            )
        engine.advance(pid, lineage)
    return _histories(engine)


@contextmanager
def rewind_oracle():
    """Check every run of every ``explore_case`` inside the block.

    Yields a dict counting the runs checked, the rewinds among them,
    the detector-cursor advances on their paths and the host units
    compared with a fresh encoding, and holding the last live system.
    """
    real_run = engine_mod._LiveSystem.run
    seen = {"runs": 0, "rewinds": 0, "detector_choices": 0, "host_units": 0}

    def checked_run(live, prefix):
        rewinds = live.result.counters.explore_rewinds
        trace = real_run(live, prefix)
        system, controller, case = live.system, live.controller, live.case
        taken = tuple(point.chosen for point in controller.log)
        # A dedup / choice-limit halt stops at the hook of ``system.now``;
        # the replay has no dedup, so it is told where to stop.
        halted = trace.stop_reason == "scheduler-halt"
        halt_at = system.now if halted else None
        fresh_system, fresh_controller = run_controlled(
            case,
            taken,
            por=live.por,
            tick_hook=lambda now: now != halt_at,
        )
        got = _observe(system, controller, case)
        want = _observe(fresh_system, fresh_controller, case)
        for key in want:
            assert got[key] == want[key], (
                f"rewound system differs from scratch replay in {key!r} "
                f"on path {taken} of {case.describe()}: "
                f"{got[key]!r} != {want[key]!r}"
            )
        assert _histories(live.fp_engine) == _derived_histories(
            fresh_system, fresh_controller, live.fp_engine.mode,
            case.target in CLOCK_FREE_TARGETS,
        ), f"lineages name another history on path {taken} of {case.describe()}"
        enc = _Encoder(case.n).enc
        for host, fresh_host in zip(system.hosts, fresh_system.hosts):
            for name, component in fresh_host.components.items():
                assert enc(host.component(name)) == enc(component), (
                    f"component {name!r} of process {host.pid} differs from "
                    f"scratch replay on path {taken} of {case.describe()}"
                )
        seen["runs"] += 1
        seen["detector_choices"] += sum(
            point.kind == "detector" and point.chosen > 0
            for point in controller.log
        )
        seen["rewinds"] += live.result.counters.explore_rewinds - rewinds
        seen["system"] = system
        return trace

    real_units = FingerprintEngine._host_units

    def checked_units(engine):
        """Every host unit a fingerprint uses — served from the lineage
        cache or not — is the encoding of the host as it is now."""
        units = real_units(engine)
        for host, unit in zip(engine._system.hosts, units):
            fresh = engine._encode_host(host)
            assert unit == fresh, (
                f"cached unit of host {host.pid} differs from a fresh "
                f"encoding at t={engine._system.now}: {unit!r} != {fresh!r}"
            )
        seen["host_units"] += len(units)
        return units

    with mock.patch.object(engine_mod._LiveSystem, "run", checked_run), \
            mock.patch.object(FingerprintEngine, "_host_units", checked_units):
        yield seen


SCRIPTED = ExploreCase(
    target="redcommit",
    n=2,
    depth=6,
    seed=1,
    crashes=((0, 3),),
    assignment=(
        (
            "script",
            ("pf", ("bot",), "green"),
            ("pf", ("fsv", "red"), "red"),
        ),
    )
    * 2,
)

DEPTH = {"register": 6, "ct": 6, "paxos": 6}


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("crashes", [(), ((1, 3),)], ids=["nocrash", "crash"])
def test_every_target_rewinds_exactly(target, crashes):
    case = ExploreCase(
        target=target, n=2, depth=DEPTH.get(target, 5), seed=1, crashes=crashes
    )
    with rewind_oracle() as seen:
        result = explore_case(case)
    assert seen["runs"] == result.runs > 1
    assert seen["rewinds"] == result.runs - 1
    assert result.counters.explore_hosts_rebuilt >= seen["rewinds"]
    assert seen["host_units"] >= result.states * case.n


@pytest.mark.parametrize("engine", list(NETWORKS))
@pytest.mark.parametrize("symmetry", [None, "auto"], ids=["plain", "symmetry"])
def test_engines_and_symmetry(engine, symmetry):
    # The scratch replays run inside the block too: both sides of every
    # comparison are on the same network class.
    for case in (
        ExploreCase(target="nbac", n=3, depth=4),
        ExploreCase(target="register", n=2, depth=6, crashes=((0, 2),)),
        SCRIPTED,
    ):
        with network_implementation(NETWORKS[engine]), rewind_oracle() as seen:
            result = explore_case(case, ExploreOptions(symmetry=symmetry))
            assert type(seen["system"].network) is NETWORKS[engine]
        assert seen["runs"] == result.runs
        assert seen["rewinds"] == result.runs - 1


def test_scripted_root_switches_are_rewound():
    """Detector cursors are journaled per tick: runs whose ``detector``
    choices advance them at different ticks rewind across the advance."""
    with rewind_oracle() as seen:
        result = explore_case(SCRIPTED, ExploreOptions(por=False, dedup=False))
    assert result.complete and seen["runs"] == result.runs
    assert seen["detector_choices"] > 0


@pytest.mark.parametrize("por", [True, False])
@pytest.mark.parametrize("dedup", [True, False])
def test_reductions_off(por, dedup):
    case = ExploreCase(target="paxos", n=2, depth=5)
    with rewind_oracle() as seen:
        result = explore_case(case, ExploreOptions(por=por, dedup=dedup))
    assert seen["runs"] == result.runs


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    target=st.sampled_from(["nbac", "paxos", "qc", "register", "ct"]),
    depth=st.integers(3, 5),
    seed=st.integers(0, 3),
    crash=st.one_of(st.none(), st.tuples(st.integers(0, 1), st.integers(1, 4))),
    choice_limit=st.one_of(st.none(), st.integers(2, 7)),
    split_at=st.integers(2, 5),
    data=st.data(),
)
def test_rewind_matches_scratch_replay(
    target, depth, seed, crash, choice_limit, split_at, data
):
    """Random cases, random shard roots as ``initial_stack`` (several
    roots in one walk: rewinds to tick 1, roots that share a prefix and
    roots that share nothing), random ``choice_limit``."""
    case = ExploreCase(
        target=target,
        n=2,
        depth=depth,
        seed=seed,
        crashes=(crash,) if crash is not None else (),
    )
    roots = []
    explore_case(case, choice_limit=split_at, shard_roots=roots)
    stack = None
    if roots:
        stack = data.draw(
            st.lists(st.sampled_from(roots), max_size=4, unique=True)
        ) or None
    with rewind_oracle() as seen:
        result = explore_case(
            case, initial_stack=stack, choice_limit=choice_limit
        )
    assert seen["runs"] == result.runs


# -- the oracle must notice a component that breaks the replay contract ----

class PayloadMutator(Component):
    """Scribbles on the payload it receives — which a rebuilt host is
    then re-fed, scribble included."""

    name = "mut"

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_start(self):
        self.broadcast(["hello"], include_self=False)

    def on_message(self, sender, payload, meta):
        payload.append(self.pid)  # the bug: a delivered payload is shared
        self.seen.append(tuple(payload))
        if len(self.seen) < 3:
            self.send(sender, ["re"])


def mutator_factory():
    return lambda pid: PayloadMutator()


class SentPayloadMutator(Component):
    """Scribbles on a payload it *sent* one step earlier — which sits
    in the step's effects record and in every message served from it."""

    name = "mut"

    def __init__(self):
        super().__init__()
        self.out = ["hello"]
        self.steps = 0
        self.seen = []

    def on_start(self):
        self.broadcast(self.out, include_self=False)

    def on_step(self):
        self.steps += 1
        if self.steps == 2:
            self.out.append("late")  # the bug: an emitted payload is shared

    def on_message(self, sender, payload, meta):
        self.seen.append(tuple(payload))


def sent_mutator_factory():
    return lambda pid: SentPayloadMutator()


def _assert_oracle_flags(monkeypatch, factory):
    case = toy_target(monkeypatch, "mut", factory)(n=2, depth=5)
    try:
        with pytest.raises(
            AssertionError,
            match="differs from (scratch replay|a fresh encoding)"
            "|lineages name another history",
        ):
            with rewind_oracle():
                explore_case(case)
    finally:
        resolve_parts.cache_clear()


def test_oracle_flags_in_place_payload_mutation(monkeypatch):
    _assert_oracle_flags(monkeypatch, mutator_factory)


def test_oracle_flags_mutation_of_a_sent_payload(monkeypatch):
    _assert_oracle_flags(monkeypatch, sent_mutator_factory)
