"""The host cache is keyed on each process's own step history.

``FingerprintEngine`` caches a host's encoding under the *lineage* of
its process — an interned id of the ``(time, message, d)`` steps the
process has taken — and keeps it across rewinds, so a local state is
encoded once per root.  That is only invisible if the key names
everything a step can read.  The whole-search check (digest logs equal
to the cache-free ``naive`` engine's) lives in
``test_fingerprint_equivalence.py`` and the per-fingerprint
cached-vs-fresh check in ``test_rewind_oracle.py``; this module holds
the cases built to break a weaker key, the guards, and the counters.
"""

from repro import _native
from repro.chaos.targets import TARGETS, Target
from repro.explore import (
    ExploreCase,
    enumerate_roots,
    explore_case,
    run_controlled,
)
from repro.explore.cases import resolve_parts
from repro.explore.frontier import result_to_dict
from repro.explore.shard import merge_summaries
from repro.explore.state import _POISONED, FingerprintEngine
from repro.runner import call
from repro.sim.perf import PerfCounters
from repro.sim.process import Component

MODES = ["naive", "incremental"] + (["native"] if _native.available() else [])


def never(system):
    return False


def no_metrics(system, trace):
    return {}


def never_spec():
    return never


def no_metrics_spec():
    return no_metrics


def toy_target(monkeypatch, name, factory):
    """Register a one-component target for the duration of a test."""

    def build(n, seed, horizon, knobs):
        return dict(
            components=[(name, call(factory))],
            stop=call(never_spec),
            summarize=call(no_metrics_spec),
        )

    monkeypatch.setitem(TARGETS, name, Target(name, build, safety_clauses=()))
    resolve_parts.cache_clear()
    return lambda **fields: ExploreCase(
        target=name, assignment=(("sigma", (0, 1)),) * fields["n"], **fields
    )


def digest_logs(case, **options):
    logs = {}
    for mode in MODES:
        logs[mode] = []
        explore_case(
            case, fingerprint_mode=mode, digest_log=logs[mode], **options
        )
    assert logs["naive"], "no digests collected — dedup never ran"
    return logs


# -- (a) time is part of a step ---------------------------------------------

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
        # encoding, and the digest log shows it.
        real = FingerprintEngine._next_lineage
        monkeypatch.setattr(
            FingerprintEngine,
            "_next_lineage",
            lambda self, parent, time, *rest: real(self, parent, 0, *rest),
        )
        timeless = []
        explore_case(case, digest_log=timeless)
        assert timeless != logs["naive"]
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
                case, fingerprint_mode=mode, digest_log=logs[mode]
            )
        for mode in MODES[1:]:
            assert logs[mode] == logs["naive"]
            assert (
                results[mode].counters.explore_opaque_tokens
                == results["naive"].counters.explore_opaque_tokens
                > 0
            )

        # Once a process has received the unnameable message its host
        # is encoded at every fingerprint, never served from the cache.
        system, controller = run_controlled(case, (1,))  # 1 starts, 0 receives
        assert any(tick.delivered is not None for tick in controller.ticks)
        engine = FingerprintEngine(case.n, "incremental", counters=PerfCounters())
        engine.begin_run(system, controller)
        engine.fingerprint(system.now + 1, False, None, None, (), False, False)
        assert _POISONED in engine._lineages[-1]
        before = engine.counters.explore_fp_host_misses
        engine.fingerprint(system.now + 1, False, None, None, (), False, False)
        poisoned = engine._lineages[-1].count(_POISONED)
        assert engine.counters.explore_fp_host_misses - before == poisoned
    finally:
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


# -- counters ----------------------------------------------------------------

def test_local_states_are_encoded_once_per_root():
    """``nbac n=3 depth 6``, the benchmark's ``exhaust_nbac3`` roots:
    the search is the one it always was, and a host is encoded once per
    distinct local history (7 344 encodes when the cache was keyed on
    the position on the current path)."""
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
    assert totals.explore_fp_host_misses <= 2140
    assert totals.explore_fp_lineages <= totals.explore_fp_host_misses
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
