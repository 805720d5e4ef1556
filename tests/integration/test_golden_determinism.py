"""Golden determinism: the indexed engine vs the seed engine, end to end.

Each of the five clean experiment-family targets (register / paxos / ct
/ qc / nbac) is run on :class:`ReferenceNetwork` (the seed's flat-list
buffers, kept verbatim) and on the indexed :class:`Network` — and,
where the adversary is fair, once more with the quiescence time-leap —
asserting *byte-identical* step sequences, digests, message counters
and property verdicts.  This is the acceptance gate for the hot-path
overhaul: any divergence here means the optimization changed semantics,
not just speed.
"""

import pytest

from repro.chaos.knobs import ChaosKnobs
from repro.chaos.targets import CLEAN_TARGETS, FuzzCase, build_spec
from repro.sim.network import (
    HoldingDelivery,
    Network,
    ReferenceNetwork,
)
from repro.sim.system import System, network_implementation

HORIZON = 5_000

#: (label, knobs) — the adversary configurations every family is
#: golden-checked under.  Duplication exercises duplicate_after's
#: re-enqueue path on both engines; reorder exercises the generic
#: (non-fast-path, unfair) choose path.
KNOB_GRID = [
    ("clean", ChaosKnobs()),
    ("dup", ChaosKnobs(dup_probability=0.3, dup_max_delay=9)),
    ("reorder", ChaosKnobs(reorder=True)),
]


def _case(target, seed, knobs):
    crashes = ((2, HORIZON // 3),) if seed % 2 else ()
    return FuzzCase(
        target=target, n=3, seed=seed, horizon=HORIZON,
        knobs=knobs, crashes=crashes,
    )


def _execute(spec, impl, time_leap=False):
    spec = spec.with_(trace_mode="full", time_leap=time_leap)
    with network_implementation(impl):
        system = System.from_spec(spec)
    trace = system.run(stop_when=spec.resolve_stop(), grace=spec.grace)
    metrics = spec.summarize.resolve()(system, trace)
    return system, trace, metrics


def _assert_golden(ref, got):
    system_a, trace_a, metrics_a = ref
    system_b, trace_b, metrics_b = got
    assert trace_a.digest() == trace_b.digest()
    assert trace_a.steps == trace_b.steps
    assert trace_a.decisions == trace_b.decisions
    assert trace_a.stop_reason == trace_b.stop_reason
    assert trace_a.final_time == trace_b.final_time
    assert trace_a.messages_sent == trace_b.messages_sent
    assert trace_a.messages_delivered == trace_b.messages_delivered
    assert system_a.network.sent_count == system_b.network.sent_count
    assert system_a.network.delivered_count == system_b.network.delivered_count
    assert (
        system_a.network.duplicated_count == system_b.network.duplicated_count
    )
    assert metrics_a == metrics_b


@pytest.mark.parametrize("target", CLEAN_TARGETS)
@pytest.mark.parametrize(
    "label,knobs", KNOB_GRID, ids=[k[0] for k in KNOB_GRID]
)
class TestIndexedMatchesSeed:
    def test_engines_agree(self, target, label, knobs):
        for seed in (1, 2):
            spec = build_spec(_case(target, seed, knobs))
            ref = _execute(spec, ReferenceNetwork)
            got = _execute(spec, Network)
            _assert_golden(ref, got)
            if knobs.fair:
                leaped = _execute(spec, Network, time_leap=True)
                _assert_golden(ref, leaped)


def test_summaries_stable_digest_across_engines():
    """The campaign-level witness: RunSummary.stable_digest (which spans
    decisions, latencies, verdict metrics and the trace digest, and
    excludes perf) is equal across engines and leap settings."""
    spec = build_spec(_case("paxos", 1, ChaosKnobs()))
    with network_implementation(ReferenceNetwork):
        ref = spec.execute()
    with network_implementation(Network):
        idx = spec.execute()
    leap = spec.with_(time_leap=True).execute()
    assert ref.stable_digest() == idx.stable_digest()
    # time_leap is part of the spec fingerprint (cache key) but not of
    # run-determined content: neutralise the key before comparing.
    leap.key = idx.key
    assert idx.stable_digest() == leap.stable_digest()


def test_holding_delivery_golden():
    """The FLP-style unfair policy (choose may return None, withheld
    messages stay buffered) behaves identically on both engines."""
    from repro.runner import call, run_spec
    from repro.sim.network import UniformDelay

    spec = run_spec(
        n=3, seed=5, horizon=2_000,
        delay_model=UniformDelay(1, 6),
        delivery_policy=call(_make_holding),
        components=[("chat", call(_chatter_factory))],
        trace_mode="full",
    )
    with network_implementation(ReferenceNetwork):
        ref_sys = System.from_spec(spec)
    ref = ref_sys.run()
    with network_implementation(Network):
        idx_sys = System.from_spec(spec)
    idx = idx_sys.run()
    assert ref.digest() == idx.digest()
    assert ref.steps == idx.steps
    assert ref_sys.network.pending_count() == idx_sys.network.pending_count()
    assert ref_sys.network.pending_count() > 0  # some messages truly held


def _make_holding():
    return HoldingDelivery(lambda m, now: m.payload % 2 == 0)


def _chatter_factory():
    from repro.sim.process import Component

    class Chatter(Component):
        name = "chat"

        def on_start(self):
            self.broadcast(self.pid, include_self=False)

        def on_message(self, sender, payload, meta):
            if payload < 40:
                self.send(sender, payload + 2 + (payload % 2))

    return lambda pid: Chatter()
