"""Adversary mechanics: selection order, duplication bounds, bursts,
and the knob -> component factories."""

import random

from repro.chaos.adversaries import (
    BurstDelay,
    DuplicatingDelivery,
    NewestFirstDelivery,
    make_delay,
    make_delivery,
    make_scheduler,
)
from repro.chaos.knobs import ChaosKnobs
from repro.sim.network import Message, OldestFirstDelivery, UniformDelay
from repro.sim.partition import TransientPartition
from repro.sim.scheduler import RandomScheduler, WindowedStarvationScheduler


def msg(msg_id, send_time, meta=None):
    return Message(
        msg_id=msg_id,
        sender=0,
        dest=1,
        component="c",
        payload=None,
        send_time=send_time,
        ready_at=send_time + 1,
        meta=meta if meta is not None else {},
    )


class TestNewestFirst:
    def test_picks_youngest_and_is_unfair(self):
        policy = NewestFirstDelivery()
        ready = [msg(1, 10), msg(2, 50), msg(3, 20)]
        chosen = policy.choose(ready, now=60, rng=random.Random(0))
        assert chosen.msg_id == 2
        # Under sustained traffic the oldest message waits forever.
        ready = [msg(1, 0)]
        for t in range(1, 50):
            ready.append(msg(t + 1, t))
            chosen = policy.choose(ready, now=t, rng=random.Random(0))
            assert chosen.msg_id != 1
            ready.remove(chosen)

    def test_ties_break_by_msg_id(self):
        policy = NewestFirstDelivery()
        ready = [msg(4, 50), msg(9, 50)]
        assert policy.choose(ready, 60, random.Random(0)).msg_id == 9


class TestDuplicatingDelivery:
    def test_selection_delegates_to_inner(self):
        policy = DuplicatingDelivery(inner=NewestFirstDelivery(), probability=1.0)
        ready = [msg(1, 10), msg(2, 50)]
        assert policy.choose(ready, 60, random.Random(0)).msg_id == 2

    def test_fairness_inherited_from_default_inner(self):
        policy = DuplicatingDelivery(probability=0.5)
        assert isinstance(policy.inner, OldestFirstDelivery)
        assert policy.oldest_first_selection
        ready = [msg(2, 50), msg(1, 10)]
        assert policy.choose(ready, 60, random.Random(0)).msg_id == 1

    def test_duplicates_with_probability_one(self):
        policy = DuplicatingDelivery(probability=1.0, max_delay=7)
        m = msg(1, 10)
        delay = policy.duplicate_after(m, now=20, rng=random.Random(3))
        assert delay is not None and 1 <= delay <= 7
        # the hook stamps the depth counter the network copies onward
        assert m.meta["dup_depth"] == 1

    def test_never_duplicates_with_probability_zero_rng_untouched(self):
        policy = DuplicatingDelivery(probability=0.0)
        assert policy.duplicate_after(msg(1, 10), 20, random.Random(3)) is None

    def test_depth_bound_stops_generations(self):
        policy = DuplicatingDelivery(probability=1.0, max_depth=2)
        m = msg(1, 10, meta={"dup_depth": 2})
        assert policy.duplicate_after(m, 20, random.Random(3)) is None
        assert m.meta["dup_depth"] == 2  # untouched once the bound is hit

    def test_deterministic_under_seeded_rng(self):
        delays = []
        for _ in range(2):
            policy = DuplicatingDelivery(probability=0.5, max_delay=12)
            rng = random.Random(42)
            delays.append(
                [policy.duplicate_after(msg(i, i), i, rng) for i in range(50)]
            )
        assert delays[0] == delays[1]
        assert any(d is not None for d in delays[0])
        assert any(d is None for d in delays[0])


class TestBurstDelay:
    def test_burst_slots_get_extra_delay(self):
        rng_a, rng_b = random.Random(5), random.Random(5)
        burst = BurstDelay(period=4, burst_len=2, extra=100, lo=1, hi=1)
        plain = UniformDelay(1, 1)
        samples = [burst.sample(rng_a, 0, 1) for _ in range(8)]
        base = [plain.sample(rng_b, 0, 1) for _ in range(8)]
        extras = [s - b for s, b in zip(samples, base)]
        assert extras == [100, 100, 0, 0, 100, 100, 0, 0]

    def test_delays_stay_finite_and_positive(self):
        burst = BurstDelay(period=3, burst_len=3, extra=50, lo=2, hi=9)
        rng = random.Random(0)
        for _ in range(30):
            assert 2 <= burst.sample(rng, 0, 1) <= 59


class TestFactories:
    def test_default_knobs_build_the_vanilla_stack(self):
        k = ChaosKnobs()
        assert isinstance(make_delivery(k), OldestFirstDelivery)
        assert isinstance(make_delay(k), UniformDelay)
        assert isinstance(make_scheduler(k), RandomScheduler)

    def test_each_dial_switches_its_component(self):
        assert isinstance(
            make_delivery(ChaosKnobs(reorder=True)), NewestFirstDelivery
        )
        assert isinstance(
            make_delay(ChaosKnobs(burst_period=10, burst_len=2, burst_extra=5)),
            BurstDelay,
        )
        assert isinstance(
            make_scheduler(ChaosKnobs(starve_windows=((0, 10, (0,)),))),
            WindowedStarvationScheduler,
        )

    def test_partition_takes_over_selection(self):
        k = ChaosKnobs(
            partition_start=10,
            partition_end=90,
            partition_groups=((0, 1), (2, 3)),
            reorder=True,  # shadowed by the active partition window
        )
        assert isinstance(make_delivery(k), TransientPartition)

    def test_duplication_wraps_the_selector(self):
        k = ChaosKnobs(
            dup_probability=0.4,
            partition_start=10,
            partition_end=90,
            partition_groups=((0,), (1,)),
        )
        policy = make_delivery(k)
        assert isinstance(policy, DuplicatingDelivery)
        assert isinstance(policy.inner, TransientPartition)
