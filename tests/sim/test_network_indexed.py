"""Equivalence of the indexed buffer engine with the reference engine.

The indexed :class:`Network` must be observably identical to
:class:`ReferenceNetwork` — same ready lists in the same order, same
pick sequences, same rng consumption, same duplicate re-enqueues — for
every delivery policy, because the golden determinism suite and every
seeded experiment depend on it.  These tests drive both engines through
identical operation sequences and compare everything observable.
"""

import random

import pytest

from repro.chaos.adversaries import DuplicatingDelivery, NewestFirstDelivery
from repro.sim.network import (
    ConstantDelay,
    HoldingDelivery,
    Network,
    OldestFirstDelivery,
    RandomDelivery,
    ReferenceNetwork,
    UniformDelay,
)


def _pair(policy_factory, delay_factory=lambda: UniformDelay(1, 10), n=4):
    """Two engines with identical rng seeds, policies and delays."""
    indexed = Network(
        n, random.Random(42), delay_model=delay_factory(),
        delivery_policy=policy_factory(),
    )
    reference = ReferenceNetwork(
        n, random.Random(42), delay_model=delay_factory(),
        delivery_policy=policy_factory(),
    )
    return indexed, reference


def _drive_identically(indexed, reference, seed, ticks=400):
    """Random sends/picks, mirrored into both engines; compare picks."""
    script = random.Random(seed)
    n = indexed.n
    for t in range(1, ticks):
        for _ in range(script.randrange(3)):
            sender = script.randrange(n)
            dest = script.randrange(n)
            payload = ("m", t, script.randrange(1000))
            a = indexed.send(sender, dest, "c", payload, t)
            b = reference.send(sender, dest, "c", payload, t)
            assert (a.msg_id, a.ready_at) == (b.msg_id, b.ready_at)
        dest = script.randrange(n)
        got_a = indexed.pick_for(dest, t)
        got_b = reference.pick_for(dest, t)
        if got_a is None or got_b is None:
            assert got_a is None and got_b is None, f"diverged at t={t}"
        else:
            assert got_a.msg_id == got_b.msg_id, f"diverged at t={t}"
    assert indexed.sent_count == reference.sent_count
    assert indexed.delivered_count == reference.delivered_count
    assert indexed.duplicated_count == reference.duplicated_count
    assert indexed.pending_count() == reference.pending_count()


POLICIES = [
    ("oldest-first", OldestFirstDelivery),
    ("random", RandomDelivery),
    ("newest-first", NewestFirstDelivery),
    ("dup-oldest", lambda: DuplicatingDelivery(probability=0.4, max_delay=6)),
    (
        "dup-newest",
        lambda: DuplicatingDelivery(
            inner=NewestFirstDelivery(), probability=0.4, max_delay=6
        ),
    ),
    (
        "holding",
        lambda: HoldingDelivery(lambda m, now: m.payload[2] % 3 == 0),
    ),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("name,factory", POLICIES, ids=[p[0] for p in POLICIES])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_pick_sequences_identical(self, name, factory, seed):
        indexed, reference = _pair(factory)
        _drive_identically(indexed, reference, seed)

    def test_ready_lists_identical_and_insertion_ordered(self):
        indexed, reference = _pair(OldestFirstDelivery)
        script = random.Random(3)
        for t in range(1, 120):
            for _ in range(script.randrange(4)):
                sender = script.randrange(4)
                indexed.send(sender, 0, "c", t, t)
                reference.send(sender, 0, "c", t, t)
            got_a = [m.msg_id for m in indexed.ready_for(0, t)]
            got_b = [m.msg_id for m in reference.ready_for(0, t)]
            assert got_a == got_b
            # Per-destination insertion order == ascending msg_id: the
            # invariant arbitrary DeliveryPolicy.choose bodies observe.
            assert got_a == sorted(got_a)
            if got_a and script.random() < 0.5:
                indexed.pick_for(0, t)
                reference.pick_for(0, t)

    def test_next_ready_time_identical(self):
        indexed, reference = _pair(OldestFirstDelivery)
        script = random.Random(9)
        for t in range(1, 200):
            if script.random() < 0.3:
                dest = script.randrange(4)
                indexed.send(0, dest, "c", t, t)
                reference.send(0, dest, "c", t, t)
            dests = [d for d in range(4) if script.random() < 0.7]
            assert indexed.next_ready_time(dests, t) == reference.next_ready_time(
                dests, t
            ), f"at t={t} dests={dests}"
            if script.random() < 0.4:
                d = script.randrange(4)
                a, b = indexed.pick_for(d, t), reference.pick_for(d, t)
                assert (a and a.msg_id) == (b and b.msg_id)

    def test_in_flight_identical_across_sends_picks_duplicates_and_restore(self):
        indexed, reference = _pair(
            lambda: DuplicatingDelivery(probability=0.4, max_delay=6)
        )
        engines = (indexed, reference)
        script = random.Random(5)

        def in_flight_ids():
            ids_a, ids_b = (
                [sorted(m.msg_id for m in net.in_flight(d)) for d in range(4)]
                for net in engines
            )
            assert ids_a == ids_b
            assert [len(ids) for ids in ids_a] == [
                indexed.pending_count(d) for d in range(4)
            ]
            return ids_a

        def drive(ticks):
            for t in ticks:
                for _ in range(script.randrange(3)):
                    sender, dest = script.randrange(4), script.randrange(4)
                    for net in engines:
                        net.send(sender, dest, "c", ("m", t), t)
                dest = script.randrange(4)
                a, b = (net.pick_for(dest, t) for net in engines)
                assert (a and a.msg_id) == (b and b.msg_id)
                # ready_for promotes on the indexed engine: the set in
                # flight must not depend on who looked at it.
                assert [m.msg_id for m in indexed.ready_for(dest, t)] == [
                    m.msg_id for m in reference.ready_for(dest, t)
                ]
                assert indexed.next_ready_time(range(4), t) == (
                    reference.next_ready_time(range(4), t)
                )
                in_flight_ids()

        drive(range(1, 80))
        assert indexed.duplicated_count > 0
        snapshot = in_flight_ids()
        saved = [
            (
                sorted(
                    (m for d in range(4) for m in net.in_flight(d)),
                    key=lambda m: m.msg_id,
                ),
                net._next_msg_id, net.sent_count, net.delivered_count,
            )
            for net in engines
        ]
        drive(range(80, 120))
        assert in_flight_ids() != snapshot
        for net, (messages, next_id, sent, delivered) in zip(engines, saved):
            net.restore(messages, next_id, sent, delivered)
        assert in_flight_ids() == snapshot
        drive(range(80, 160))


class TestIndexedFastPath:
    def test_oldest_first_uses_fast_path(self):
        net = Network(2, random.Random(0), delay_model=ConstantDelay(1))
        for t in range(1, 20):
            net.send(0, 1, "c", t, t)
        delivered = []
        while True:
            msg = net.pick_for(1, 50)
            if msg is None:
                break
            delivered.append(msg.msg_id)
        assert delivered == sorted(delivered)
        assert net.perf.fast_path_picks == len(delivered)
        # The fast path never materializes ready lists: one scan per pick.
        assert net.perf.messages_scanned == len(delivered)

    def test_generic_policy_skips_fast_path(self):
        net = Network(
            2,
            random.Random(0),
            delay_model=ConstantDelay(1),
            delivery_policy=NewestFirstDelivery(),
        )
        for t in range(1, 10):
            net.send(0, 1, "c", t, t)
        assert net.pick_for(1, 50) is not None
        assert net.perf.fast_path_picks == 0

    def test_oldest_first_flag_wiring(self):
        assert OldestFirstDelivery.oldest_first_selection
        assert not RandomDelivery.oldest_first_selection
        assert not NewestFirstDelivery.oldest_first_selection
        assert DuplicatingDelivery().oldest_first_selection
        assert not DuplicatingDelivery(
            inner=NewestFirstDelivery()
        ).oldest_first_selection

    def test_scanned_per_delivery_amortized(self):
        """High-fanout regime: the indexed engine's scans per delivery
        stay O(1) while the reference rescans the whole pending list."""
        indexed, reference = _pair(OldestFirstDelivery, n=2)
        for t in range(1, 400):
            indexed.send(0, 1, "c", t, t)
            reference.send(0, 1, "c", t, t)
        for t in range(400, 500):
            assert indexed.pick_for(1, t).msg_id == reference.pick_for(1, t).msg_id
        assert indexed.perf.scanned_per_delivery() < 2.0
        assert reference.perf.scanned_per_delivery() > 100.0
