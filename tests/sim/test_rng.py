"""Unit tests for named-stream RNG."""

import random

from repro.sim.rng import RngStreams, derive_seed, draw_below


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")

    def test_name_sensitivity(self):
        assert derive_seed(42, "x") != derive_seed(42, "y")

    def test_seed_sensitivity(self):
        assert derive_seed(41, "x") != derive_seed(42, "x")


class TestRngStreams:
    def test_same_stream_same_sequence(self):
        a = [RngStreams(7).get("s").random() for _ in range(1)]
        b = [RngStreams(7).get("s").random() for _ in range(1)]
        assert a == b

    def test_streams_are_independent(self):
        streams = RngStreams(7)
        scheduler_draws = [streams.get("scheduler").random() for _ in range(5)]

        streams2 = RngStreams(7)
        # Interleave draws on another stream; scheduler must not shift.
        streams2.get("delays").random()
        scheduler_draws2 = [streams2.get("scheduler").random() for _ in range(5)]
        assert scheduler_draws == scheduler_draws2

    def test_get_returns_same_instance(self):
        streams = RngStreams(7)
        assert streams.get("a") is streams.get("a")

    def test_fork_is_independent_of_parent(self):
        parent = RngStreams(7)
        child = parent.fork("w")
        assert child.get("s").random() != parent.get("s").random()

    def test_fork_deterministic(self):
        a = RngStreams(7).fork("w").get("s").random()
        b = RngStreams(7).fork("w").get("s").random()
        assert a == b


class TestDrawBelow:
    """``draw_below`` is ``randrange(n)`` draw for draw: same values,
    same stream position afterwards."""

    SEEDS = range(40)
    BOUNDS = range(1, 71)

    def test_equals_randrange(self):
        for seed in self.SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            for n in self.BOUNDS:
                for _ in range(3):
                    assert draw_below(ours, n) == theirs.randrange(n)
            assert ours.random() == theirs.random()

    def test_shifted_equals_randint(self):
        for seed in self.SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            for lo in (0, 1, 3):
                for width in self.BOUNDS:
                    hi = lo + width - 1
                    assert lo + draw_below(ours, width) == theirs.randint(lo, hi)
            assert ours.random() == theirs.random()

    def test_large_bounds_and_derived_seeds(self):
        for seed in self.SEEDS:
            root = derive_seed(seed, "scheduler")
            ours, theirs = random.Random(root), random.Random(root)
            for n in (2**31 - 1, 2**32, 2**32 + 1, 10**12 + 7):
                assert draw_below(ours, n) == theirs.randrange(n)
