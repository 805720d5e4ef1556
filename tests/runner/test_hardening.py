"""Runner hardening: timeouts, worker crashes, poisoned specs,
corrupted cache entries, pool degradation.

The contract under test: a campaign always completes, every cell gets
either a real summary or a :class:`JobFailure` explaining what happened,
every recovery is recorded as an incident, and the summaries that *do*
survive are byte-identical (stable digest) to a clean serial rerun.
"""

import os
import threading

import pytest

from repro.runner import call, fn_spec
from repro.runner.campaign import Campaign
from repro.runner.config import configure, reset, resolve_timeout
from repro.runner.executor import (
    JobTimeout,
    PoolExecutor,
    SerialExecutor,
    execute_job_guarded,
)
from repro.runner.summary import JobFailure
from repro.store import ResultStore, StoreResultCache

from tests.runner.helpers import (
    consensus_spec,
    fn_hard_exit,
    fn_raise,
    fn_sleep,
    fn_square,
)


def square_jobs(count):
    return [fn_spec(call(fn_square, i), i=i) for i in range(count)]


class TestExceptionContainment:
    def test_serial_exception_becomes_jobfailure(self):
        jobs = [fn_spec(call(fn_raise, 7)), fn_spec(call(fn_square, 3))]
        result = Campaign(jobs).run()
        failure, ok = result.summaries
        assert isinstance(failure, JobFailure)
        assert failure.kind == "exception"
        assert failure.error_type == "RuntimeError"
        assert "deliberate failure on 7" in failure.message
        assert "fn_raise" in failure.traceback
        assert ok.value == 9
        assert not result.ok
        assert result.failures == [failure]

    def test_pool_exception_becomes_jobfailure(self):
        jobs = square_jobs(4) + [fn_spec(call(fn_raise, 9))]
        result = Campaign(jobs).run(workers=2)
        assert [s.value for s in result.summaries[:4]] == [0, 1, 4, 9]
        failure = result.summaries[4]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "exception"

    def test_jobfailure_digest_is_stable(self):
        jobs = [fn_spec(call(fn_raise, 7))]
        a = Campaign(jobs).run().summaries[0]
        b = Campaign(jobs).run().summaries[0]
        assert a.stable_digest() == b.stable_digest()


class TestTimeouts:
    def test_serial_timeout_becomes_jobfailure(self):
        jobs = [
            fn_spec(call(fn_sleep, 1, duration=5.0)),
            fn_spec(call(fn_square, 2)),
        ]
        result = Campaign(jobs).run(timeout=0.2)
        failure, ok = result.summaries
        assert isinstance(failure, JobFailure)
        assert failure.kind == "timeout"
        assert ok.value == 4
        assert result.incidents == []  # the alarm could fire, and did

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "degraded-pool"])
    def test_timeout_that_cannot_fire_is_an_incident(self, workers, monkeypatch):
        """SIGALRM never fires off the main thread.  The jobs still run
        (unbounded), and the campaign says once that they did."""
        import repro.runner.executor as executor_module

        def refuse(*args, **kwargs):
            raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", refuse)
        jobs = [fn_spec(call(fn_sleep, 3, duration=0.3))] + square_jobs(2)
        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                Campaign(jobs).run(workers=workers, timeout=0.1)
            )
        )
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        (result,) = results
        assert result.ok  # the sleeper outlived its budget and finished
        assert [s.value for s in result.summaries] == [3, 0, 1]
        unavailable = [
            i for i in result.incidents if i["kind"] == "timeout-unavailable"
        ]
        assert len(unavailable) == 1
        assert "non-main thread" in unavailable[0]["reason"]

    def test_pool_timeout_becomes_jobfailure(self):
        jobs = square_jobs(3) + [fn_spec(call(fn_sleep, 1, duration=5.0))]
        result = Campaign(jobs).run(workers=2, timeout=0.2)
        assert [s.value for s in result.summaries[:3]] == [0, 1, 4]
        assert isinstance(result.summaries[3], JobFailure)
        assert result.summaries[3].kind == "timeout"
        assert result.incidents == []

    def test_guard_raises_outside_capture(self):
        with pytest.raises(JobTimeout):
            raise JobTimeout("x")

    def test_no_timeout_means_no_alarm(self):
        summary = execute_job_guarded(fn_spec(call(fn_square, 6)), timeout=None)
        assert summary.value == 36

    def test_timeout_resolution_order(self, monkeypatch):
        reset()
        assert resolve_timeout(None) is None
        monkeypatch.setenv("REPRO_RUNNER_TIMEOUT", "4.5")
        assert resolve_timeout(None) == 4.5
        configure(timeout=2.0)
        assert resolve_timeout(None) == 2.0
        assert resolve_timeout(1.0) == 1.0
        assert resolve_timeout(0) is None  # explicit off
        reset()


@pytest.mark.skipif(os.name != "posix", reason="needs fork + os._exit")
class TestWorkerCrashRecovery:
    def test_campaign_survives_worker_crash(self):
        jobs = square_jobs(5) + [fn_spec(call(fn_hard_exit, 0))]
        result = Campaign(jobs).run(workers=2)
        assert [s.value for s in result.summaries[:5]] == [0, 1, 4, 9, 16]
        failure = result.summaries[5]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "worker-crash"
        assert failure.attempts > 1  # it was retried before quarantine
        kinds = {i["kind"] for i in result.incidents}
        assert "pool-broken" in kinds
        assert "quarantined" in kinds

    def test_quarantine_after_bounded_retries(self):
        executor = PoolExecutor(workers=2, max_retries=1, retry_backoff=0.01)
        jobs = [fn_spec(call(fn_hard_exit, 0))] + square_jobs(3)
        results = executor.map(jobs)
        crash = results[0]
        assert isinstance(crash, JobFailure)
        assert crash.kind == "worker-crash"
        assert crash.attempts == 2  # initial + one retry
        assert [r.value for r in results[1:]] == [0, 1, 4]
        retries = [i for i in executor.incidents if i["kind"] == "worker-crash-retry"]
        assert len(retries) == 1

    def test_surviving_results_match_clean_serial_rerun(self):
        """After crash recovery, every surviving summary is
        byte-identical to what an undisturbed serial run produces."""
        specs = [consensus_spec(seed=s, horizon=20_000) for s in (0, 1)]
        chaotic = Campaign(specs + [fn_spec(call(fn_hard_exit, 0))]).run(
            workers=2
        )
        clean = Campaign(specs).run()  # serial, no crash
        for survived, reference in zip(chaotic.summaries[:2], clean.summaries):
            assert survived.stable_digest() == reference.stable_digest()


class TestPoolDegradation:
    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        import repro.runner.executor as executor_module

        def refuse(*args, **kwargs):
            raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", refuse
        )
        executor = PoolExecutor(workers=4)
        results = executor.map(square_jobs(4))
        assert [r.value for r in results] == [0, 1, 4, 9]
        assert any(i["kind"] == "pool-degraded" for i in executor.incidents)


class TestCacheIntegrity:
    def _rewrite_one(self, tmp_path, rewrite):
        """Replace the payload of one stored row by ``rewrite(payload)``."""
        with ResultStore(tmp_path) as store, store.write_connection as con:
            key, blob = con.execute(
                "SELECT key, payload FROM run_summaries ORDER BY key"
            ).fetchone()
            con.execute(
                "UPDATE run_summaries SET payload = ? WHERE key = ?",
                (rewrite(blob), key),
            )

    def test_truncated_entry_is_discarded_and_recomputed(self, tmp_path):
        store = StoreResultCache(tmp_path, salt="t")
        jobs = square_jobs(3)
        first = Campaign(jobs).run(cache=store)
        assert first.executed == 3
        # truncate mid-payload
        self._rewrite_one(tmp_path, lambda blob: blob[: len(blob) // 2])

        second = Campaign(jobs).run(cache=store)
        assert [s.value for s in second.summaries] == [0, 1, 4]
        assert second.executed == 1  # only the corrupted entry re-ran
        assert second.hits == 2
        events = second.cache_events
        assert len(events) == 1
        assert events[0]["kind"] == "cache-corrupt"
        assert "checksum mismatch" in events[0]["reason"]
        # The torn row was deleted, then the fresh recompute written
        # back under the same key — so the entry is healthy again.

        third = Campaign(jobs).run(cache=store)
        assert third.hits == 3
        assert third.cache_events == []

    def test_foreign_file_is_discarded(self, tmp_path):
        store = StoreResultCache(tmp_path, salt="t")
        jobs = square_jobs(1)
        Campaign(jobs).run(cache=store)
        self._rewrite_one(tmp_path, lambda blob: b"not a cache entry at all")
        result = Campaign(jobs).run(cache=store)
        assert result.summaries[0].value == 0
        assert any(
            "bad magic" in e["reason"] for e in result.cache_events
        )

    def test_cached_digest_matches_fresh_digest(self, tmp_path):
        store = StoreResultCache(tmp_path, salt="t")
        spec = consensus_spec(seed=3, horizon=20_000)
        fresh = Campaign([spec]).run(cache=store).summaries[0]
        cached = Campaign([spec]).run(cache=store).summaries[0]
        assert cached.cached and not fresh.cached
        assert cached.stable_digest() == fresh.stable_digest()

    def test_failures_are_not_cached(self, tmp_path):
        store = StoreResultCache(tmp_path, salt="t")
        jobs = [fn_spec(call(fn_raise, 1))]
        first = Campaign(jobs).run(cache=store)
        assert isinstance(first.summaries[0], JobFailure)
        second = Campaign(jobs).run(cache=store)
        assert second.hits == 0  # the failure was recomputed, not replayed
        assert isinstance(second.summaries[0], JobFailure)


class TestSerialExecutorSurface:
    def test_serial_executor_has_incident_channel(self):
        executor = SerialExecutor()
        assert executor.incidents == []
        results = executor.map(square_jobs(2))
        assert [r.value for r in results] == [0, 1]
