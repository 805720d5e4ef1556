"""Unit tests for schedulers (fair and adversarial)."""

import random
from collections import Counter

import pytest

from repro.sim.scheduler import (
    BurstScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    StarvationScheduler,
    WeightedScheduler,
    WindowedStarvationScheduler,
)


class TestRandomScheduler:
    def test_covers_all_alive(self):
        sched = RandomScheduler()
        rng = random.Random(0)
        picks = Counter(sched.pick([0, 1, 2], t, rng) for t in range(300))
        assert set(picks) == {0, 1, 2}


class TestRoundRobin:
    def test_cycles_in_order(self):
        sched = RoundRobinScheduler()
        rng = random.Random(0)
        picks = [sched.pick([0, 1, 2], t, rng) for t in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_crashed(self):
        sched = RoundRobinScheduler()
        rng = random.Random(0)
        assert sched.pick([0, 1, 2], 0, rng) == 0
        # process 1 crashes; rotation continues among the rest
        picks = [sched.pick([0, 2], t, rng) for t in range(4)]
        assert picks == [2, 0, 2, 0]

    def test_requires_ascending_alive(self):
        """Pins the documented contract: ``alive`` must be ascending.

        System.run always passes an ascending list (it filters a range
        and removes crashed pids in place), so pick no longer re-sorts.
        An out-of-order list therefore yields first-pid-greater-than-
        last scanning order, NOT sorted order — if this test starts
        failing because pick sorts again, the hot path regressed.
        """
        sched = RoundRobinScheduler()
        rng = random.Random(0)
        # Ascending input behaves exactly as before the fast path.
        assert [sched.pick([0, 1, 2], t, rng) for t in range(3)] == [0, 1, 2]
        # Out-of-order input exposes the scan order (first pid > _last).
        sched = RoundRobinScheduler()
        assert sched.pick([2, 0, 1], 0, rng) == 2
        assert sched.pick([2, 0, 1], 1, rng) == 2  # wraps to alive[0]


class TestWeighted:
    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            WeightedScheduler([1.0, 0.0])

    def test_bias_shows(self):
        sched = WeightedScheduler([10.0, 1.0])
        rng = random.Random(1)
        picks = Counter(sched.pick([0, 1], t, rng) for t in range(500))
        assert picks[0] > picks[1] * 3
        assert picks[1] > 0  # still fair

    def test_everyone_eventually_scheduled(self):
        sched = WeightedScheduler([100.0, 1.0, 1.0])
        rng = random.Random(2)
        picks = Counter(sched.pick([0, 1, 2], t, rng) for t in range(2000))
        assert set(picks) == {0, 1, 2}


class TestStarvation:
    def test_starved_never_picked(self):
        sched = StarvationScheduler({1})
        rng = random.Random(0)
        picks = {sched.pick([0, 1, 2], t, rng) for t in range(100)}
        assert 1 not in picks

    def test_halts_when_all_starved(self):
        sched = StarvationScheduler({0, 1})
        rng = random.Random(0)
        assert sched.pick([0, 1], 0, rng) is None


class TestWindowedStarvation:
    WINDOWS = [
        (10, 20, {0}),
        (15, 30, {1, 2}),
        (30, 30, {3}),  # empty window: boundary only, never active
        (40, 50, {0, 3}),
    ]

    def _reference_starved(self, windows, now):
        starved = set()
        for start, end, pids in windows:
            if start <= now < end:
                starved |= set(pids)
        return starved

    def test_interval_index_matches_window_sweep(self):
        sched = WindowedStarvationScheduler(self.WINDOWS)
        for now in range(0, 60):
            expected = self._reference_starved(self.WINDOWS, now)
            assert set(sched._starved(now)) == expected, f"at t={now}"

    def test_no_windows(self):
        sched = WindowedStarvationScheduler([])
        assert not sched._starved(0)
        assert not sched._starved(1000)

    def test_starves_inside_window_only(self):
        sched = WindowedStarvationScheduler(
            [(5, 10, {1})], inner=RoundRobinScheduler()
        )
        rng = random.Random(0)
        inside = {sched.pick([0, 1, 2], t, rng) for t in range(5, 10)}
        assert 1 not in inside
        after = {sched.pick([0, 1, 2], t, rng) for t in range(10, 20)}
        assert 1 in after

    def test_ignores_window_covering_all_alive(self):
        sched = WindowedStarvationScheduler([(0, 100, {0, 1})])
        rng = random.Random(0)
        assert sched.pick([0, 1], 3, rng) is not None


class TestBurst:
    def test_runs_in_bursts(self):
        sched = BurstScheduler(burst_length=5)
        rng = random.Random(3)
        picks = [sched.pick([0, 1, 2], t, rng) for t in range(10)]
        assert len(set(picks[:5])) == 1  # one full burst

    def test_switches_on_crash(self):
        sched = BurstScheduler(burst_length=100)
        rng = random.Random(3)
        first = sched.pick([0, 1], 0, rng)
        other = [p for p in (0, 1) if p != first][0]
        assert sched.pick([other], 1, rng) == other

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            BurstScheduler(0)
