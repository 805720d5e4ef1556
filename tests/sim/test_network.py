"""Unit tests for the network layer: delays, policies, reliability."""

import random

import pytest

from repro.sim.network import (
    ConstantDelay,
    HoldingDelivery,
    Network,
    OldestFirstDelivery,
    RandomDelivery,
    SpikeDelay,
    UniformDelay,
)


@pytest.fixture
def net():
    return Network(3, random.Random(0), delay_model=ConstantDelay(1))


class TestDelayModels:
    def test_constant(self):
        m = ConstantDelay(5)
        assert m.sample(random.Random(0), 0, 1) == 5

    def test_constant_rejects_zero(self):
        with pytest.raises(ValueError):
            ConstantDelay(0)

    def test_uniform_within_bounds(self):
        m = UniformDelay(2, 9)
        rng = random.Random(1)
        for _ in range(100):
            assert 2 <= m.sample(rng, 0, 1) <= 9

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformDelay(5, 2)
        with pytest.raises(ValueError):
            UniformDelay(0, 2)

    def test_spike_produces_both_regimes(self):
        m = SpikeDelay(base_hi=3, spike_hi=100, spike_probability=0.5)
        rng = random.Random(2)
        draws = [m.sample(rng, 0, 1) for _ in range(200)]
        assert any(d <= 3 for d in draws)
        assert any(d > 3 for d in draws)


class TestNetworkBuffer:
    def test_message_not_ready_before_delay(self):
        net = Network(2, random.Random(0), delay_model=ConstantDelay(5))
        net.send(0, 1, "c", "hello", now=10)
        assert net.pick_for(1, 12) is None
        msg = net.pick_for(1, 15)
        assert msg is not None and msg.payload == "hello"

    def test_delivery_removes_message(self, net):
        net.send(0, 1, "c", "x", now=0)
        assert net.pick_for(1, 5) is not None
        assert net.pick_for(1, 6) is None

    def test_counts(self, net):
        net.send(0, 1, "c", "x", now=0)
        net.send(0, 2, "c", "y", now=0)
        assert net.sent_count == 2
        net.pick_for(1, 5)
        assert net.delivered_count == 1
        assert net.pending_count() == 1
        assert net.pending_count(2) == 1

    def test_rejects_unknown_destination(self, net):
        with pytest.raises(ValueError):
            net.send(0, 7, "c", "x", now=0)


class TestDeliveryPolicies:
    def _ready(self, net, dest, now):
        return net.ready_for(dest, now)

    def test_oldest_first_orders_by_send_time(self):
        net = Network(
            2,
            random.Random(0),
            delay_model=ConstantDelay(1),
            delivery_policy=OldestFirstDelivery(),
        )
        net.send(0, 1, "c", "second", now=5)
        net.send(0, 1, "c", "first", now=1)
        assert net.pick_for(1, 10).payload == "first"
        assert net.pick_for(1, 10).payload == "second"

    def test_random_delivery_is_exhaustive(self):
        net = Network(
            2,
            random.Random(3),
            delay_model=ConstantDelay(1),
            delivery_policy=RandomDelivery(),
        )
        for i in range(10):
            net.send(0, 1, "c", i, now=0)
        got = {net.pick_for(1, 100).payload for _ in range(10)}
        assert got == set(range(10))

    def test_holding_delivery_withholds(self):
        policy = HoldingDelivery(lambda m, now: m.payload == "held")
        net = Network(
            2,
            random.Random(0),
            delay_model=ConstantDelay(1),
            delivery_policy=policy,
        )
        net.send(0, 1, "c", "held", now=0)
        net.send(0, 1, "c", "free", now=0)
        assert net.pick_for(1, 10).payload == "free"
        assert net.pick_for(1, 10) is None  # only the held one remains

    def test_every_sent_message_eventually_delivered_oldest_first(self):
        """Reliability: with the fair policy, draining the buffer
        delivers everything."""
        rng = random.Random(9)
        net = Network(3, rng, delay_model=UniformDelay(1, 10))
        sent = []
        for i in range(50):
            dest = rng.randrange(3)
            net.send(0, dest, "c", i, now=i)
            sent.append(i)
        got = []
        for t in range(60, 400):
            for dest in range(3):
                msg = net.pick_for(dest, t)
                if msg:
                    got.append(msg.payload)
        assert sorted(got) == sent
