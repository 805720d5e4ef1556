"""The host cache is keyed on each process's own step history.

``FingerprintEngine`` caches a host's encoding under the *lineage* of
its process — an interned id of the ``(time, message, d)`` steps the
process has taken, ``time`` left out for the targets pinned clock-free
— and keeps it across rewinds, so a local state is encoded once per
root.  That is only invisible if the key names everything a step can
read.  The whole-search check (digest logs equal
to the cache-free ``naive`` engine's) lives in
``test_fingerprint_equivalence.py`` and the per-fingerprint
cached-vs-fresh check in ``test_rewind_oracle.py``; this module holds
the cases built to break a weaker key, the guards, the counters, and
the engine that outlives a walk: a frontier worker's warm session over
the shards of one root, and the opaque states that several engines
feeding one visited set must keep out of it.
"""

import collections

import pytest

from repro.explore import (
    CLOCK_FREE_TARGETS,
    ExploreCase,
    ExploreOptions,
    enumerate_roots,
    explore_case,
    merge_summaries,
    run_controlled,
)
from repro.explore import engine as engine_mod
from repro.explore.cases import resolve_parts
from repro.explore.engine import FingerprintSession
from repro.explore.frontier import result_to_dict
from repro.explore.state import _POISONED, OPAQUE_MARK, FingerprintEngine
from repro.sim.perf import PerfCounters
from repro.sim.process import Component
from repro.store import ResultStore
from repro.store.exchange import FingerprintExchange
from tests.explore.helpers import split_roots, toy_target
from tests.explore.test_clock_independence import clock_readers

MODES = ["naive", "incremental"]


def digest_logs(case):
    logs = {}
    for mode in MODES:
        logs[mode] = []
        explore_case(
            case, ExploreOptions(fingerprint_mode=mode), digest_log=logs[mode]
        )
    assert logs["naive"], "no digests collected — dedup never ran"
    return logs


def logs_equal(case):
    logs = digest_logs(case)
    return logs["incremental"] == logs["naive"]


# -- (a) time is part of a step that reads the clock -------------------------

class Clock(Component):
    """Stores the tick at which each message arrived.  The same ⟨m, d⟩
    history (one ``tick`` from the peer, nothing else) is lived through
    at every tick from 2 on, depending on how long the peer idles
    first, and leaves a different state each time."""

    name = "clock"

    def __init__(self):
        super().__init__()
        self.stamps = []

    def on_start(self):
        self.broadcast("tick", include_self=False)

    def on_message(self, sender, payload, meta):
        self.stamps.append(self.now)


def clock_factory():
    return lambda pid: Clock()


def test_same_messages_at_other_ticks_are_other_states(monkeypatch):
    case = toy_target(monkeypatch, "clock", clock_factory)(n=2, depth=5)
    try:
        logs = digest_logs(case)
        for mode in MODES[1:]:
            assert logs[mode] == logs["naive"]

        # The case has teeth: a key without the tick serves a stale
        # encoding (and a stale step), and the digest log shows it.
        real = FingerprintEngine.step_inputs
        monkeypatch.setattr(
            FingerprintEngine,
            "step_inputs",
            lambda self, pid, time, *rest: real(self, pid, 0, *rest),
        )
        timeless = []
        explore_case(case, digest_log=timeless)
        assert timeless != logs["naive"]
    finally:
        resolve_parts.cache_clear()


# The pin that lets a target's step key leave the tick out is
# load-bearing: the clock-independence oracle convicts the readers, and
# pinning one anyway serves stale steps that the digest log shows.

def test_the_clock_oracle_convicts_the_clock_toy(monkeypatch):
    case = toy_target(monkeypatch, "clock", clock_factory)(n=2, depth=5)
    try:
        found = clock_readers(case)
    finally:
        resolve_parts.cache_clear()
    assert found is not None, "Clock.stamps holds the tick, unconvicted"
    assert "Clock.stamps" in found, found


@pytest.mark.parametrize(
    "make, reader",
    [
        pytest.param(
            lambda mp: toy_target(mp, "clock", clock_factory)(n=2, depth=5),
            "Clock.stamps",
            id="clock",
        ),
        pytest.param(
            lambda mp: ExploreCase(target="register", n=2, depth=5),
            "the operation record's invoke_time",
            id="register",
        ),
    ],
)
def test_pinning_a_clock_reader_breaks_the_digest_log(monkeypatch, make, reader):
    case = make(monkeypatch)
    try:
        assert logs_equal(case), f"{reader}: the digest logs differ unpinned"
        monkeypatch.setattr(
            engine_mod, "CLOCK_FREE_TARGETS", CLOCK_FREE_TARGETS | {case.target}
        )
        assert not logs_equal(case), (
            f"{reader} reads the clock, yet its target keyed without the "
            f"tick walks like the naive engine"
        )
    finally:
        resolve_parts.cache_clear()


# -- the guards --------------------------------------------------------------

class Tagger(Component):
    """``ParticipantTracker``-style middleware in miniature: tags what
    its process sends with how many messages the process has received
    (``meta``), and counts the tags it is handed."""

    name = "tag"

    def __init__(self):
        super().__init__()
        self.received = 0
        self.tag_total = 0

    def on_start(self):
        self.ctx.add_outgoing_hook(self._tag)
        self.broadcast("hello", include_self=False)

    def _tag(self, msg):
        if self.received:
            msg.meta["seen"] = self.received

    def on_message(self, sender, payload, meta):
        self.received += 1
        self.tag_total += meta.get("seen", 0)
        if self.received < 3:
            self.send(sender, "hello")


def tagger_factory():
    return lambda pid: Tagger()


def whole_state_key(system, mode):
    engine = FingerprintEngine(system.n, mode)
    engine.begin_run(system)
    return engine.fingerprint(system.now + 1, False, None, None, (), False, False)


def test_meta_is_message_state(monkeypatch):
    """Two buffered messages that differ only in ``meta`` are different
    messages — ``on_message`` and the incoming hooks are handed it —
    and must not merge; an empty ``meta`` adds nothing to the bytes."""
    case = ExploreCase(target="nbac", n=2, depth=4)
    system, _ = run_controlled(case)
    message = next(
        m for dest in range(case.n) for m in system.network.in_flight(dest)
    )
    assert not message.meta
    (plain,) = {whole_state_key(system, mode) for mode in MODES}
    message.meta["write-contexts"] = {(0, 1): frozenset({0})}
    (tagged,) = {whole_state_key(system, mode) for mode in MODES}
    assert tagged != plain

    # And on a whole search whose messages carry tags.
    tag_case = toy_target(monkeypatch, "tag", tagger_factory)(n=2, depth=6)
    try:
        logs = digest_logs(tag_case)
        for mode in MODES[1:]:
            assert logs[mode] == logs["naive"]
    finally:
        resolve_parts.cache_clear()


class Hooked(Component):
    """An incoming hook is handed the ``DeliveredMessage`` — ``msg_id``
    and ``send_time`` included — and this one keeps them."""

    name = "hooked"

    def __init__(self):
        super().__init__()
        self.ids = []

    def on_start(self):
        self.ctx.add_incoming_hook(
            lambda delivered, meta: self.ids.append(
                (delivered.msg_id, delivered.send_time)
            )
        )
        self.broadcast("a", include_self=False)
        self.broadcast("a", include_self=False)


def hooked_factory():
    return lambda pid: Hooked()


def test_incoming_hooks_put_message_ids_in_the_key(monkeypatch):
    """Two equal payloads from one sender: which of them arrives is
    invisible to ``on_message`` but not to an incoming hook."""
    make = toy_target(monkeypatch, "hooked", hooked_factory)
    try:
        logs = digest_logs(make(n=3, depth=5))
        for mode in MODES[1:]:
            assert logs[mode] == logs["naive"]
    finally:
        resolve_parts.cache_clear()


class OpaqueSender(Component):
    """Sends a payload the encoder cannot decompose."""

    name = "opq"

    def __init__(self):
        super().__init__()
        self.got = 0

    def on_start(self):
        self.broadcast(object(), include_self=False)

    def on_message(self, sender, payload, meta):
        self.got += 1


def opaque_factory():
    return lambda pid: OpaqueSender()


def test_opaque_step_poisons_the_lineage(monkeypatch):
    make = toy_target(monkeypatch, "opq", opaque_factory)
    try:
        case = make(n=2, depth=4)
        results = {}
        logs = {}
        for mode in MODES:
            logs[mode] = []
            results[mode] = explore_case(
                case, ExploreOptions(fingerprint_mode=mode), digest_log=logs[mode]
            )
        for mode in MODES[1:]:
            assert logs[mode] == logs["naive"]
            assert (
                results[mode].counters.explore_opaque_tokens
                == results["naive"].counters.explore_opaque_tokens
                > 0
            )

        # Once a process has received the unnameable message its host
        # is encoded at every fingerprint, never served from the cache
        # (a poisoned lineage is negative and equal to no other).
        session = FingerprintSession()
        explore_case(  # one path: 1 starts, 0 receives
            case, initial_stack=[(1,)], max_runs=1, session=session
        )
        engine = session.engine
        assert any(tick.delivered is not None for tick in engine._journal.ticks)
        poisoned = [lineage for lineage in engine._lineages[-1] if lineage < 0]
        assert poisoned and min(poisoned) <= _POISONED
        assert len(set(poisoned)) == len(poisoned)
        for _ in range(2):
            before = engine.counters.explore_fp_host_misses
            engine.fingerprint(case.depth + 1, False, None, None, (), False, False)
            assert engine.counters.explore_fp_host_misses - before == len(poisoned)
    finally:
        resolve_parts.cache_clear()


class Hoarder(Component):
    """Keeps what it is sent in a ``deque`` — no ``__dict__``, no
    ``__slots__``, so the encoder writes ``?deque;`` whatever it holds
    — and one step after the last arrival decides on the order."""

    name = "hoard"

    def __init__(self):
        super().__init__()
        self.box = collections.deque()
        self.stage = 0

    def on_start(self):
        if self.pid:
            self.send(0, self.pid)

    def on_message(self, sender, payload, meta):
        self.box.append(payload)

    def on_step(self):
        if len(self.box) == self.n - 1 and self.stage < 2:
            if self.stage == 1:
                self.decide(tuple(self.box))
            self.stage += 1


def hoarder_factory():
    return lambda pid: Hoarder()


def test_opaque_states_stay_out_of_a_visited_set_shards_share(
    monkeypatch, tmp_path
):
    """Two shards, one engine each, one visited set — a worker's batch.
    After both arrivals process 0 holds ``[1, 2]`` in one shard and
    ``[2, 1]`` in the other, at the same tick, and the encoder cannot
    tell: keyed into the shared set, the second shard halts on the
    first one's footprint and its decision is never seen."""
    make = toy_target(monkeypatch, "hoard", hoarder_factory)
    store = ResultStore(tmp_path)
    try:
        case = make(n=3, depth=5)
        serial = explore_case(case)
        assert len(serial.decision_vectors) == 3  # none, (1, 2), (2, 1)
        assert serial.dedup_hits == 0
        assert serial.states == serial.counters.explore_opaque_tokens > 0

        first, second = (1, 0, 0, 2), (1, 2, 0, 0)
        _, roots = split_roots(case, choice_limit=4)
        assert first in roots and second in roots
        alone = [
            explore_case(case, initial_stack=[root]).decision_vectors
            for root in (first, second)
        ]
        assert alone[0] != alone[1]

        exchange = FingerprintExchange(store, "hoard-scope")
        log = []
        shared = [
            explore_case(
                case, initial_stack=[root], exchange=exchange, digest_log=log
            )
            for root in (first, second)
        ]
        assert [r.decision_vectors for r in shared] == alone
        assert [r.dedup_hits for r in shared] == [0, 0]
        assert all(r.states > 0 for r in shared)  # still counted
        assert log and all(key[0] == OPAQUE_MARK for key in log)
        # ...and nothing to look up, here or in another worker.
        assert exchange.visited == {} and exchange.take_pending() == []
    finally:
        store.close()
        resolve_parts.cache_clear()


def test_engine_without_a_journal_always_encodes():
    """No journal, no step histories: the fallback is to encode, never
    to answer from an entry of unknown provenance."""
    case = ExploreCase(target="qc", n=2, depth=6)
    system, _ = run_controlled(case)
    counters = PerfCounters()
    engine = FingerprintEngine(case.n, counters=counters)
    engine.begin_run(system)
    first = engine.fingerprint(3, False, None, None, (), False, False)
    system.hosts[0].components["qc"].scribble = "changed behind its back"
    second = engine.fingerprint(3, False, None, None, (), False, False)
    assert first != second
    assert counters.explore_fp_host_hits == 0
    assert counters.explore_fp_host_misses == 2 * case.n
    assert not any(engine._host_cache)


def test_engine_refuses_steps_it_was_not_told_about():
    """Lineages are advanced at the step itself.  An engine handed the
    journal of ticks nobody named to it has stale lineages, and says so
    instead of answering from the cache under them."""
    case = ExploreCase(target="qc", n=2, depth=6)
    system, controller = run_controlled(case)
    assert controller.ticks
    engine = FingerprintEngine(case.n)
    engine.begin_run(system, controller)
    with pytest.raises(RuntimeError, match="0 journaled"):
        engine.fingerprint(3, False, None, None, (), False, False)


# -- counters ----------------------------------------------------------------

def test_local_states_are_encoded_once_per_root():
    """``nbac n=3 depth 6``, the benchmark's ``exhaust_nbac3`` roots:
    the search is the one it always was, and a host is encoded once per
    distinct ⟨m, d⟩ history — nbac is clock-free, so the tick is not in
    its key (7 344 encodes when the cache was keyed on the position on
    the current path, 2 140 while the key held the tick).  A lineage is
    named at the step that reaches it, so the leaf states are named
    though never encoded (2 128 lineages when they were interned at
    fingerprint time), and each named step was executed exactly once
    (5 168 with the tick in the key)."""
    totals = PerfCounters()
    runs = states = dedup_hits = por_pruned = 0
    for root in enumerate_roots("nbac", 3, depth=6, seeds=(0, 1)):
        result = explore_case(root)
        assert result.complete and not result.violations
        totals.merge(result.counters)
        runs += result.runs
        states += result.states
        dedup_hits += result.dedup_hits
        por_pruned += result.por_pruned
    assert (runs, states, dedup_hits, por_pruned) == (20968, 4228, 1564, 72820)
    assert totals.explore_fp_host_misses <= 812
    assert totals.explore_fp_lineages == totals.explore_steps_executed == 1532
    assert totals.explore_steps_served == 26736 - 1532
    # 1 596 brought back to a state a rewind had left (3 616 with the
    # tick in the key), and the first object of each of the 4 roots'
    # 3 processes.
    assert totals.explore_hosts_rebuilt == 1596 + 12
    assert totals.explore_fp_message_hits > totals.explore_fp_message_misses > 0
    assert totals.explore_opaque_tokens == 0


def test_new_counters_survive_a_shard_merge():
    case = ExploreCase(target="nbac", n=2, depth=5)
    summary = result_to_dict(explore_case(case))
    one = summary["counters"]
    assert one["explore_fp_lineages"] > 0 and one["explore_fp_message_misses"] > 0
    merged = merge_summaries(summary, [summary])["counters"]
    for name in (
        "explore_fp_lineages",
        "explore_fp_message_hits",
        "explore_fp_message_misses",
    ):
        assert merged[name] == 2 * one[name]


# -- one engine for every shard of a root ------------------------------------

PAXOS_SCRIPT = (("script", ("os", 0, (0, 1, 2)), ("os", 1, (0, 1, 2))),) * 3


@pytest.mark.parametrize(
    "case, options",
    [
        pytest.param(ExploreCase(target="nbac", n=3, depth=5), {}, id="nbac3"),
        pytest.param(
            ExploreCase(target="nbac", n=3, depth=5),
            {"symmetry": True},
            id="nbac3-symmetry",
        ),
        pytest.param(ExploreCase(target="paxos", n=3, depth=5), {}, id="paxos3"),
        pytest.param(
            ExploreCase(target="paxos", n=3, depth=5),
            {"symmetry": "auto"},
            id="paxos3-symmetry",
        ),
        pytest.param(
            ExploreCase(target="paxos", n=3, depth=5, assignment=PAXOS_SCRIPT),
            {},
            id="paxos3-script",
        ),
    ],
)
def test_warm_session_is_invisible_but_for_the_misses(case, options, tmp_path):
    """The shards of a root walked the way a frontier worker walks a
    batch — one shared visited set — once with a fresh engine per shard
    and once on one session: the same keys in the same order, the same
    search, fewer host encodes."""
    options = ExploreOptions(**options)
    _, roots = split_roots(case, 3, options)
    assert len(roots) > 2
    store = ResultStore(tmp_path)

    def walk(session, scope):
        exchange = FingerprintExchange(store, scope)
        log, misses, counts = [], 0, []
        for root in roots:
            result = explore_case(
                case,
                options,
                initial_stack=[root],
                exchange=exchange,
                digest_log=log,
                session=session,
            )
            misses += result.counters.explore_fp_host_misses
            counts.append(
                (result.runs, result.states, result.dedup_hits,
                 result.por_pruned, sorted(result.decision_vectors))
            )
        return log, misses, counts

    try:
        cold_log, cold_misses, cold_counts = walk(None, "cold")
        warm_log, warm_misses, warm_counts = walk(FingerprintSession(), "warm")
    finally:
        store.close()
    assert "\n".join(warm_log) == "\n".join(cold_log) != ""
    assert warm_counts == cold_counts
    assert 0 < warm_misses < cold_misses


def test_session_refuses_another_root():
    case = ExploreCase(target="nbac", n=3, depth=4)  # a group of two
    session = FingerprintSession()
    explore_case(case, session=session)
    engine = session.engine
    explore_case(case, session=session, initial_stack=[(1,)])
    assert session.engine is engine
    for other, options in (
        (case.with_(seed=1), {}),
        (case.with_(depth=5), {}),
        (case, {"fingerprint_mode": "naive"}),
        (case, {"symmetry": True}),
    ):
        with pytest.raises(ValueError, match="another root"):
            explore_case(other, ExploreOptions(**options), session=session)
