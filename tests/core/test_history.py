"""Unit tests for failure detector histories."""

import pytest

from repro.core.history import (
    FOREVER,
    FailureDetectorHistory,
    SampledHistory,
    per_tick,
)


class TestDenseHistory:
    def test_value_function_is_memoised(self):
        calls = []

        def fn(pid, t):
            calls.append((pid, t))
            return pid * 100 + t

        h = FailureDetectorHistory(2, 10, per_tick(fn))
        assert h.value(1, 3) == 103
        assert h.value(1, 3) == 103
        assert calls.count((1, 3)) == 1

    def test_samples_cover_horizon(self):
        h = FailureDetectorHistory(1, 5, per_tick(lambda p, t: t))
        assert list(h.samples_of(0)) == [(t, t) for t in range(5)]

    def test_samples_stop_at_the_horizon_inside_a_segment(self):
        h = FailureDetectorHistory(
            1, 5, lambda p, t: (0, 3, "a") if t < 3 else (3, FOREVER, "b")
        )
        assert list(h.samples_of(0)) == [
            (0, "a"), (1, "a"), (2, "a"), (3, "b"), (4, "b")
        ]

    def test_rejects_bad_queries(self):
        h = FailureDetectorHistory(2, 5, per_tick(lambda p, t: 0))
        for read in (h.value, h.segment):
            with pytest.raises(ValueError):
                read(2, 0)
            with pytest.raises(ValueError):
                read(0, -1)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            FailureDetectorHistory(0, 5, per_tick(lambda p, t: 0))
        with pytest.raises(ValueError):
            FailureDetectorHistory(1, 0, per_tick(lambda p, t: 0))

    @pytest.mark.parametrize(
        "bad",
        [(4, 4, "x"), (6, 2, "x"), (5, 9, "x"), (0, 4, "x")],
        ids=["empty", "inverted", "after-t", "before-t"],
    )
    def test_a_segment_that_misses_its_time_is_refused(self, bad):
        h = FailureDetectorHistory(2, 10, lambda p, t: bad)
        for read in (h.value, h.segment):
            with pytest.raises(ValueError) as err:
                read(1, 4)
            message = str(err.value)
            assert f"[{bad[0]}, {bad[1]})" in message
            assert "process 1" in message and "time 4" in message
        # A refused segment is not kept: the next read asks again.
        with pytest.raises(ValueError):
            h.value(1, 4)


class TestSampledHistory:
    def test_records_in_order(self):
        h = SampledHistory(2)
        h.record(0, 1, "a")
        h.record(0, 5, "b")
        assert list(h.samples_of(0)) == [(1, "a"), (5, "b")]
        assert h.last_value(0) == "b"
        assert h.last_value(1) is None

    def test_rejects_non_increasing_times(self):
        h = SampledHistory(1)
        h.record(0, 5, "a")
        with pytest.raises(ValueError):
            h.record(0, 5, "b")
        with pytest.raises(ValueError):
            h.record(0, 3, "c")

    def test_sample_count(self):
        h = SampledHistory(2)
        for t in range(4):
            h.record(1, t + 1, t)
        assert h.sample_count(1) == 4
        assert h.sample_count(0) == 0

    def test_from_pairs_sorts_per_process(self):
        h = SampledHistory.from_pairs(
            2, [(0, 5, "b"), (0, 1, "a"), (1, 3, "x")]
        )
        assert list(h.samples_of(0)) == [(1, "a"), (5, "b")]
        assert list(h.samples_of(1)) == [(3, "x")]

    def test_rejects_unknown_pid(self):
        h = SampledHistory(1)
        with pytest.raises(ValueError):
            h.record(1, 0, "a")
