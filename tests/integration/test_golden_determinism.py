"""Golden determinism: the indexed engine vs the seed engine, end to end.

Each of the five clean experiment-family targets (register / paxos / ct
/ qc / nbac) is run on :class:`ReferenceNetwork` (the seed's flat-list
buffers, kept verbatim) and on the indexed :class:`Network`, asserting
*byte-identical* step sequences, digests, message counters and
property verdicts.  This is the acceptance gate for the hot-path
overhaul: any divergence here means the optimization changed semantics,
not just speed.
"""

from dataclasses import replace

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


def _execute(spec, impl):
    spec = spec.with_(trace_mode="full")
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


def test_summaries_stable_digest_across_engines():
    """The campaign-level witness: RunSummary.stable_digest (which spans
    decisions, latencies, verdict metrics and the trace digest, and
    excludes perf) is equal across engines."""
    spec = build_spec(_case("paxos", 1, ChaosKnobs()))
    with network_implementation(ReferenceNetwork):
        ref = spec.execute()
    with network_implementation(Network):
        idx = spec.execute()
    assert ref.stable_digest() == idx.stable_digest()


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


#: What each clean target does at seed 1 under each knob setting, as
#: literals: ``(trace digest, RunSummary.stable_digest(), final_time,
#: messages sent, messages delivered)``.  The engine comparison above
#: runs one commit's code twice and cannot see a change that moves both
#: engines alike — a reordered rng draw, a tasklet resumed one pass
#: later, a skipped ``on_step``.  These pin the run loop, the process
#: step, the tasklet driver and every random draw across commits.  The
#: stable digest is taken with the spec's cache key blanked, so these
#: pin what the run determined; the key's own cross-interpreter pin is
#: ``tests/runner/test_fingerprint.py``.
GOLDEN_SEED = 1
GOLDEN = {
    ("paxos", "clean"): (
        "ea1b55de6a179ed154dcea7e023a4cbd08c0b82b1f983841bf33cbb10432d1a5",
        "d03ecc9df2048bb0a47eb5f9c6d5b15a5e8e7fa67d462c9c73331318dc13d7bb",
        50, 24, 21,
    ),
    ("paxos", "dup"): (
        "438e23e40c85c720f34e42f06f1b1c8e44ec3a87fc6f9dab12367767ff8119e9",
        "f18da88a5395056df6b8519b9156a86ef4004719041961f34429ae52b050214e",
        99, 51, 58,
    ),
    ("paxos", "reorder"): (
        "dfbce43dff938e13507b896fc162e3d1b7edb790de28f8cdc829e1a38f84c1d2",
        "e97887cf89a96b7867efb2e8b3a19fdb38f8b9aba2c5e1fdc031c513981700b0",
        38, 19, 15,
    ),
    ("ct", "clean"): (
        "7f3d29b758416e7c81beaac52afdc5bdcd301c7362559601969c25021e585950",
        "76158832bf79deacfa666b36ca7c5e5b449dea031121340e6cb3c25f11810ffe",
        268, 187, 173,
    ),
    ("ct", "dup"): (
        "3ce9098ec08b9d12911ac34f527d1daeb51820087604b0d02722296277891730",
        "31c3bb3ae72afcae8f5e55a6f55dd38beb063624571100d31604d0fff853d3b9",
        1761, 1164, 1529,
    ),
    ("ct", "reorder"): (
        "e6e16597e785dc88a4108b4fd5d32f0371b245eefd8189047ae5a57bb438d61c",
        "df6f9530871d44345a5bf214b41b8e545f968a4a2f4c1075931c28e3ced44a9e",
        385, 286, 276,
    ),
    ("qc", "clean"): (
        "30910de1f63a3d48034d75e2efa24a7ae20c2827645972e92c0340288c2b44e7",
        "7a8bf7553a01a115ead8f55a3f432c41f8d104c3bfd1edc509d25d18bcf692f9",
        1696, 0, 0,
    ),
    ("qc", "dup"): (
        "30910de1f63a3d48034d75e2efa24a7ae20c2827645972e92c0340288c2b44e7",
        "7a8bf7553a01a115ead8f55a3f432c41f8d104c3bfd1edc509d25d18bcf692f9",
        1696, 0, 0,
    ),
    ("qc", "reorder"): (
        "30910de1f63a3d48034d75e2efa24a7ae20c2827645972e92c0340288c2b44e7",
        "3e25beba35980afd0d48f1fb09f9e36a2c9b58fec3191453ca283f5dea34663f",
        1696, 0, 0,
    ),
    ("nbac", "clean"): (
        "197688c5dd754114e5f169ff8230d6d8011e63afebc33b7daefaa3d74d0c710f",
        "d29e6aef486454168910fd7d3394b13d59b30ae629c9e839cb2e06f585b7b026",
        73, 26, 24,
    ),
    ("nbac", "dup"): (
        "f7cccca5291b7c75259d037da787c2573d5bdff7a875dc3d1081122c602e5219",
        "b1f6b4806f91844545b767986d369db211f6e301a08ada1b2bd6bc2c530dca27",
        64, 27, 29,
    ),
    ("nbac", "reorder"): (
        "2c4ceef2dd75438f7ed76ee1c2f99f2602d9516f5a24b64452cc1edfd6d76fee",
        "c7c2b4584387fd4fd2f60c362044e6c4237c9e40998755ec5f78723cf69686fa",
        73, 26, 24,
    ),
    ("register", "clean"): (
        "bf7cc24253da1db4660c343f5daa69f63902a0929e0951c79652659259024fd7",
        "f405cf59d541af669619b9e845e99fdd47c123f88218971b54da47c7bf49cf34",
        164, 108, 107,
    ),
    ("register", "dup"): (
        "a39a44d0c719a8b49bebf8b4ea72b054520264f4dadf65536778ace57a1713e6",
        "c7d543091c5238f9a3fe737a8d4bfcfd4de3db3d6555f7bfcc0394afce03b9c9",
        208, 124, 175,
    ),
    ("register", "reorder"): (
        "befbcd1eb90405ff77a58f50d49258470da593798f9742161deb62d34f27e6da",
        "18ad3b28a85483f5f64e16a127e75ec11147b9d10e517c2725e5e720b64b2879",
        149, 101, 99,
    ),
}


@pytest.mark.parametrize("target", CLEAN_TARGETS)
@pytest.mark.parametrize(
    "label,knobs", KNOB_GRID, ids=[k[0] for k in KNOB_GRID]
)
def test_runs_match_committed_goldens(target, label, knobs):
    summary = build_spec(_case(target, GOLDEN_SEED, knobs)).execute()
    got = (
        summary.trace_digest,
        replace(summary, key="").stable_digest(),
        summary.final_time,
        summary.messages_sent,
        summary.messages_delivered,
    )
    assert got == GOLDEN[(target, label)]
