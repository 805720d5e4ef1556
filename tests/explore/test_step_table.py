"""Processes as memoized automata: the served step against the executed one.

The explorer names every local state by its lineage and keeps, per
lineage, what the step that reached it emitted
(:class:`repro.explore.state.StepEffects`).  A step whose key is on
record is *served* — its effects are emitted from outside and no host
object runs — and a host object is brought to the process's state only
when something needs it there (``repro.explore.engine._Process``).
That is invisible only if the key names everything the step's outputs
depend on and a stale object can never be looked at.  The whole-search
differentials live in ``test_fingerprint_equivalence.py`` (``naive``
serves nothing) and ``test_rewind_oracle.py``; this module holds the
cases built to break a weaker design: operation ids issued run-wide, a
stop predicate that reads component state every tick, a detector value
that cannot be named, a table that outlives the system it was learnt
on — and a table that lies, which must not get a verdict out.
"""

import collections
from dataclasses import astuple
from unittest import mock

import pytest

from repro.explore import (
    ExploreCase,
    ExploreOptions,
    enumerate_roots,
    explore_case,
)
from repro.explore import engine as engine_mod
from repro.explore.engine import FingerprintSession
from repro.explore.state import FingerprintEngine, StepEffects
from repro.registers.linearizability import check_linearizable
from repro.sim.process import Component
from tests.explore.helpers import prefixes, toy_target, violation_set

MODES = ["naive", "incremental"]


def walk(case, mode="incremental", options=(), **kwargs):
    """One exploration; returns ``(result, digest log, leaf log)`` — the
    leaf log holds, per run, the path taken (choices and their ticks)
    and everything its trace recorded."""
    digests, leaves = [], []
    real_run = engine_mod._LiveSystem.run

    def recording_run(live, prefix):
        trace = real_run(live, prefix)
        log = live.controller.log
        leaves.append(
            (
                tuple(point.chosen for point in log),
                tuple(point.time for point in log),
                (trace.stop_reason, trace.final_time, trace.digest()),
                [astuple(decision) for decision in trace.decisions],
                [astuple(op) for op in trace.operations],
                trace._next_op_id,
                live.case.target != "register"
                or check_linearizable(trace.operations).ok,
            )
        )
        return trace

    with mock.patch.object(engine_mod._LiveSystem, "run", recording_run):
        result = explore_case(
            case,
            ExploreOptions(fingerprint_mode=mode, **dict(options)),
            digest_log=digests,
            **kwargs,
        )
    return result, digests, leaves


def assert_modes_agree(case):
    """Every mode walks like ``naive``, which executes every step: same
    keys in hook order, same traces leaf by leaf."""
    want = walk(case, "naive")
    assert want[1] and want[2]
    assert want[0].counters.explore_steps_served == 0
    for mode in MODES[1:]:
        got = walk(case, mode)
        assert got[0].counters.explore_steps_served > 0
        assert got[1] == want[1]
        assert got[2] == want[2]
    return want[0]


# -- operation ids are issued run-wide ---------------------------------------

class Recorder(Component):
    """Opens an operation in its first step; every message it receives
    answers the open one (with the id in the result) and opens the next
    — one step that completes and opens.  The ids are the trace's, so
    the same local step is handed other ids on paths where the other
    processes opened more, or fewer, before it."""

    name = "rec"

    def __init__(self):
        super().__init__()
        self.record = None
        self.closed = []

    def on_start(self):
        self.record = self.ctx.new_operation(self.name, "first", (self.pid,))
        self.broadcast("ping", include_self=False)

    def on_message(self, sender, payload, meta):
        record = self.record
        self.ctx.complete_operation(record, (sender, record.op_id))
        self.closed.append(record.op_id)
        self.record = self.ctx.new_operation(self.name, "next", (sender,))


def recorder_factory():
    return lambda pid: Recorder()


def test_a_step_is_served_only_under_the_ids_it_was_executed_with(monkeypatch):
    make = toy_target(monkeypatch, "rec", recorder_factory)
    case = make(n=3, depth=5)
    assert_modes_agree(case)

    session = FingerprintSession()
    result = explore_case(case, session=session)
    assert result.counters.explore_steps_served > 0
    engine = session.engine
    # The same inputs were executed once per id vector they met ...
    variants = collections.defaultdict(dict)
    for pid in range(case.n):
        for key, lineage in engine._lineage_ids[pid].items():
            if len(key) > 5:  # all but a started Recorder's λ-steps open one
                variants[pid, key[:5]][key[6]] = lineage
    assert any(len(by_ids) > 1 for by_ids in variants.values())
    # ... and the table answers for exactly those.
    for (pid, inputs), by_ids in variants.items():
        for ids, lineage in by_ids.items():
            assert engine.known_step(pid, inputs, None, ids[0]) == lineage
        unseen = max(ids[0] for ids in by_ids) + 1
        assert engine.known_step(pid, inputs, None, unseen) is None


def test_a_step_that_changes_shape_is_refused():
    """The ids a step opens are derived before it runs from how many
    it opened last time; a step that opens another number under the
    same inputs has no derivable name, and the table says so."""
    engine = FingerprintEngine(2)
    inputs = engine.step_inputs(0, 1, None, None)
    one = StepEffects((), (), (("rec", "first", ()),), ())
    assert engine.learn_step(0, inputs, None, 0, False, one) == 1
    assert engine.learn_step(0, inputs, None, 0, False, one) == 1
    assert engine.learn_step(0, inputs, None, 5, False, one) == 2
    with pytest.raises(RuntimeError, match="must not depend on the ids"):
        engine.learn_step(0, inputs, None, 0, False, one._replace(opened=()))


@pytest.mark.parametrize(
    "case",
    [
        ExploreCase(target="register", n=2, depth=6),
        ExploreCase(target="register", n=3, depth=5),
        ExploreCase(target="register", n=2, depth=6, crashes=((1, 4),)),
    ],
    ids=["n2", "n3", "n2-crash"],
)
def test_register_exhausts_like_naive(case):
    """Digest log, operation records and linearizability verdict of
    every run — ``register`` is the target whose steps open and answer
    operations and whose stop predicate looks at every host."""
    result = assert_modes_agree(case)
    assert result.complete and not result.violations


# -- a stop predicate reads component state every tick -----------------------

class Finisher(Component):
    """``done`` once it has received anything — which the trace shows
    too, so whoever reads ``done`` can be checked."""

    name = "fin"

    def __init__(self):
        super().__init__()
        self.done = False

    def on_start(self):
        self.broadcast("go", include_self=False)

    def on_message(self, sender, payload, meta):
        self.done = True


def finisher_factory():
    return lambda pid: Finisher()


def all_done(system):
    """``workload_quiescent`` in miniature, checking what it is shown."""
    finished = True
    for pid in range(system.n):
        done = system.component_at(pid, "fin").done
        received = any(
            step.pid == pid and step.message is not None
            for step in system.trace.steps
        )
        assert done == received, (
            f"t={system.now}: process {pid} shows done={done} after "
            f"{'a' if received else 'no'} delivery"
        )
        finished = finished and done
    return finished


def all_done_spec():
    return all_done


def test_a_stop_predicate_never_sees_a_stale_component(monkeypatch):
    make = toy_target(monkeypatch, "fin", finisher_factory, all_done_spec)
    case = make(n=3, depth=5)
    result = explore_case(case)
    assert result.complete
    assert result.counters.explore_steps_served > 0
    assert result.counters.explore_hosts_rebuilt > 0
    assert_modes_agree(case)

    # The case has teeth: hand out whatever object is there, as it
    # is, and the predicate is shown a ``done`` from another path.
    def whatever_is_there(process, name):
        host = process._host
        return getattr(host if host is not None else process._materialized(), name)

    monkeypatch.setattr(engine_mod._Process, "__getattr__", whatever_is_there)
    with pytest.raises(AssertionError, match="shows done="):
        explore_case(case)


# -- a step that cannot be named ---------------------------------------------

class Pinger(Component):
    name = "ping"

    def __init__(self):
        super().__init__()
        self.got = 0

    def on_start(self):
        self.broadcast("ping", include_self=False)

    def on_message(self, sender, payload, meta):
        self.got += 1


def pinger_factory():
    return lambda pid: Pinger()


def test_an_opaque_detector_value_is_executed_every_time(monkeypatch):
    """``d`` is a ``deque``: no ``__dict__``, no ``__slots__``, so its
    encoding hides what it holds and no step that read it has a name."""
    monkeypatch.setattr(
        "repro.explore.cases.decode_value", lambda encoded: collections.deque(encoded)
    )
    make = toy_target(monkeypatch, "ping", pinger_factory)
    case = make(n=2, depth=5)
    plain, plain_log, plain_leaves = walk(case)
    naive, naive_log, naive_leaves = walk(case, "naive")
    assert plain_log == naive_log and plain_leaves == naive_leaves
    counters = plain.counters
    assert counters.explore_steps_served == 0
    assert counters.explore_fp_lineages == 0
    assert counters.explore_steps_executed == naive.counters.explore_steps_executed > 0


# -- the table outlives the system it was learnt on --------------------------

def test_a_warm_table_serves_a_new_system_until_its_first_unseen_step():
    case = ExploreCase(target="paxos", n=3, depth=5)
    roots = prefixes(case, 4)
    root = roots[len(roots) // 2]

    cold, cold_log, cold_leaves = walk(case, initial_stack=[root])
    assert cold.counters.explore_steps_served < cold.counters.explore_steps_executed

    # Everything seen: the same walk again, on a new system, runs no
    # protocol code at all and needs no host object.
    session = FingerprintSession()
    walk(case, initial_stack=[root], session=session)
    warm, warm_log, warm_leaves = walk(case, initial_stack=[root], session=session)
    assert (warm_log, warm_leaves) == (cold_log, cold_leaves)
    assert warm.counters.explore_steps_executed == 0
    assert warm.counters.explore_hosts_rebuilt == 0
    assert warm.counters.explore_steps_served == (
        cold.counters.explore_steps_executed + cold.counters.explore_steps_served
    )

    # One path seen: a new system on a sibling path is served every
    # tick before the one where the two paths part.
    seen, sibling = next(
        (a, b) for a in roots for b in roots if a[:3] == b[:3] and a != b
    )
    session = FingerprintSession()
    walk(case, initial_stack=[seen], max_runs=1, session=session)
    first, _, (leaf,) = walk(
        case, initial_stack=[sibling], max_runs=1, session=session
    )
    _, times, (_, total_ticks, _), *_ = leaf
    shared_ticks = times[3] - 1
    counters = first.counters
    assert counters.explore_steps_served >= shared_ticks > 0
    assert counters.explore_steps_executed == total_ticks - counters.explore_steps_served


def test_naive_serves_nothing():
    case = ExploreCase(target="nbac", n=3, depth=5)
    naive = explore_case(case, ExploreOptions(fingerprint_mode="naive"))
    plain = explore_case(case)
    assert naive.counters.explore_steps_served == 0
    assert naive.counters.explore_fp_lineages == 0
    assert naive.counters.explore_steps_executed == (
        plain.counters.explore_steps_executed + plain.counters.explore_steps_served
    )
    assert plain.counters.explore_steps_executed == plain.counters.explore_fp_lineages
    assert plain.counters.explore_steps_executed < plain.counters.explore_steps_served


# -- a table that lies must not get a verdict out ----------------------------

def _hastycommit(seed):
    (root,) = [r for r in enumerate_roots("hastycommit", 2) if r.seed == seed]
    return root


def test_a_violation_reached_through_served_steps_is_the_executed_one():
    """The seeded bug, found cold (its steps executed) and again on the
    warm table (its steps served, then confirmed by whole-path replay)."""
    root = _hastycommit(seed=1)
    cold = explore_case(root)
    assert cold.violations
    session = FingerprintSession()
    explore_case(root, session=session)
    confirmed = []
    real_confirm = engine_mod._confirm_violation

    def counting_confirm(*args):
        confirmed.append(args)
        return real_confirm(*args)

    with mock.patch.object(engine_mod, "_confirm_violation", counting_confirm):
        warm = explore_case(root, session=session)
    assert warm.counters.explore_steps_executed == 0
    assert len(confirmed) == len(warm.violations) == len(cold.violations)
    assert violation_set(warm) == violation_set(cold)
    assert [v.choices for v in warm.violations] == [v.choices for v in cold.violations]


def test_a_corrupted_effects_record_raises_instead_of_convicting():
    """All-Yes votes: every decision is Commit and the target is clean.
    One process's recorded decisions are then rewritten to Abort — the
    served walk sees Agreement broken, executes the path, finds it is
    not, and refuses to go on."""
    root = _hastycommit(seed=0)
    session = FingerprintSession()
    clean = explore_case(root, session=session)
    assert clean.complete and not clean.violations
    assert any(vector for vector in clean.decision_vectors)

    effects = session.engine._effects[1]
    corrupted = 0
    for index, record in enumerate(effects):
        if record.decisions:
            effects[index] = record._replace(
                decisions=tuple((comp, "Abort") for comp, _ in record.decisions)
            )
            corrupted += 1
    assert corrupted

    with pytest.raises(RuntimeError, match="served from the transition table") as info:
        explore_case(root, session=session)
    message = str(info.value)
    assert root.describe() in message and "agreement" in message
    assert "'Abort'" in message and "() with decisions" in message


def test_an_object_holding_a_dropped_record_is_not_current(monkeypatch):
    """Two paths on which process 2 opens its first operation under the
    same key — third tick, no message, third id of the run.  On the
    first its step is executed: the host object holds the record.  The
    rewind drops the record, the second path's step is served and the
    trace opens an equal one — and there the object sits, at the
    process's lineage, holding a record nobody will ever read.  Its
    next step answers the operation: it must not run on that object."""
    make = toy_target(monkeypatch, "rec", recorder_factory)
    case = make(n=3, depth=4)
    # sched, [deliv] per tick; λ is the last delivery option.
    # Whole paths: no sibling is pushed between the two.
    first = (0, 1, 1, 2, 2, 0, 0)  # 0, 1 (λ), 2 (λ) start; 0 receives
    second = (1, 0, 1, 2, 2, 2, 0)  # 1, 0 (λ), 2 (λ) start; 2 receives
    logs = {}
    for mode in MODES:
        result, _, leaves = walk(
            case,
            mode,
            {"por": False, "dedup": False},
            initial_stack=[second, first],  # popped from the end
        )
        assert result.runs == 2
        if mode != "naive":
            assert result.counters.explore_steps_served == 1
        logs[mode] = leaves
    answered = logs["naive"][1][4][2]  # second run, operations, the third
    assert answered[1] == 2 and answered[6] == 4  # pid, response_time
    for mode in MODES[1:]:
        assert logs[mode] == logs["naive"]
