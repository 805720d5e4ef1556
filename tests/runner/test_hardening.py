"""Runner hardening: timeouts, worker crashes, poisoned specs,
corrupted cache entries.

The contract under test: a campaign always completes, every cell gets
either a real summary or a :class:`JobFailure` explaining what happened,
every recovery is recorded as an incident, and the summaries that *do*
survive are byte-identical (stable digest) to a clean serial rerun.
"""

import os
import threading
import time

import pytest

from repro.runner import call, fn_spec
from repro.runner.campaign import Campaign
from repro.runner.config import (
    configure,
    reset,
    resolve_timeout,
    resolve_workers,
)
from repro.runner.executor import PoolExecutor, execute_job_guarded
from repro.runner.pool import RERUN_LIMIT
from repro.runner.summary import JobFailure
from repro.store import ResultStore, StoreResultCache

from tests.runner.helpers import (
    consensus_spec,
    fn_die_once,
    fn_hard_exit,
    fn_inner_campaign,
    fn_raise,
    fn_sleep,
    fn_sleep_alarm_blocked,
    fn_square,
    fn_unpicklable,
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

    def test_unpicklable_pool_result_becomes_jobfailure(self):
        """A result that cannot leave its child fails its own cell only;
        the campaign completes and the other cells' summaries are the
        serial run's."""
        squares = square_jobs(5)
        jobs = squares[:3] + [fn_spec(call(fn_unpicklable, 5))] + squares[3:]
        result = Campaign(jobs).run(workers=2)
        summaries = result.summaries
        failure = summaries[3]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "exception"
        assert failure.key == jobs[3].fingerprint()
        assert "pickle" in failure.message
        clean = Campaign(squares).run().summaries
        survived = summaries[:3] + summaries[4:]
        assert [s.stable_digest() for s in survived] == [
            s.stable_digest() for s in clean
        ]
        assert result.failures == [failure]

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
        assert result.incidents == []  # the deadline fired, and that is all

    # Forking from a process with a second thread is the point here;
    # Python 3.12 warns about any such fork.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_a_timeout_fires_from_a_non_main_thread(self):
        """The parent keeps the deadline, so the thread a campaign runs
        on does not matter: the sleeper is cut off there too."""
        jobs = [fn_spec(call(fn_sleep, 3, duration=0.3))] + square_jobs(2)
        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                Campaign(jobs).run(workers=1, timeout=0.1)
            )
        )
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        (result,) = results
        sleeper, *squares = result.summaries
        assert isinstance(sleeper, JobFailure)
        assert sleeper.kind == "timeout"
        assert [s.value for s in squares] == [0, 1]
        assert result.incidents == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_job_that_blocks_the_alarm_is_still_cut_off(self, workers):
        jobs = [fn_spec(call(fn_sleep_alarm_blocked, 1, duration=5.0))]
        started = time.monotonic()
        result = Campaign(jobs + square_jobs(2)).run(workers=workers, timeout=0.2)
        assert time.monotonic() - started < 4.0
        sleeper, *squares = result.summaries
        assert isinstance(sleeper, JobFailure)
        assert sleeper.kind == "timeout"
        assert sleeper.message == "job exceeded 0.2s wall-clock budget"
        assert [s.value for s in squares] == [0, 1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_cell_can_run_a_budgeted_campaign_of_its_own(self, workers):
        """A budget forks even at one worker, so a cell running in a
        pool child forks a grandchild to keep its inner campaign's."""
        jobs = [fn_spec(call(fn_inner_campaign, x, timeout=30)) for x in range(3)]
        result = Campaign(jobs).run(workers=workers, timeout=60)
        assert [s.value for s in result.summaries] == [0, 1, 4]
        assert result.incidents == []

    def test_pool_timeout_becomes_jobfailure(self):
        jobs = square_jobs(3) + [fn_spec(call(fn_sleep, 1, duration=5.0))]
        result = Campaign(jobs).run(workers=2, timeout=0.2)
        assert [s.value for s in result.summaries[:3]] == [0, 1, 4]
        assert isinstance(result.summaries[3], JobFailure)
        assert result.summaries[3].kind == "timeout"
        assert result.incidents == []

    def test_no_timeout_means_no_alarm(self):
        summary = execute_job_guarded(fn_spec(call(fn_square, 6)))
        assert summary.value == 36

    def test_timeout_resolution_order(self, monkeypatch):
        reset()
        assert resolve_timeout(None) is None
        monkeypatch.setenv("REPRO_RUNNER_TIMEOUT", "4.5")
        assert resolve_timeout(None) == 4.5
        assert resolve_timeout(1.0) == 1.0
        assert resolve_timeout(0) is None  # explicit off
        monkeypatch.setenv("REPRO_RUNNER_TIMEOUT", "0")
        assert resolve_timeout(None) is None

    @pytest.mark.parametrize("bad", ["-1", "nan", "inf"])
    def test_a_budget_is_refused_from_every_source(
        self, monkeypatch, tmp_path, bad
    ):
        with pytest.raises(ValueError, match=f"timeout={bad}"):
            resolve_timeout(float(bad))
        monkeypatch.setenv("REPRO_RUNNER_TIMEOUT", bad)
        with pytest.raises(ValueError, match=f"REPRO_RUNNER_TIMEOUT={bad}"):
            resolve_timeout(None)
        # Refused before the campaign opens its cache or runs a job.
        store = tmp_path / "store"
        with pytest.raises(ValueError, match="need a finite number of seconds"):
            Campaign(square_jobs(1)).run(cache=store)
        assert not store.exists()


class TestWorkerResolution:
    def test_resolution_order(self, monkeypatch):
        reset()
        assert resolve_workers(None) is None
        monkeypatch.setenv("REPRO_RUNNER_JOBS", "3")
        assert resolve_workers(None) == 3
        configure(workers=2)
        assert resolve_workers(None) == 2
        assert resolve_workers(0) == 0  # every core
        reset()

    def test_negative_count_refused_from_every_source(self, monkeypatch):
        reset()
        with pytest.raises(ValueError, match="workers=-1: need 1 or more"):
            resolve_workers(-1)
        configure(workers=-2)
        with pytest.raises(ValueError, match="workers=-2"):
            resolve_workers(None)
        reset()
        monkeypatch.setenv("REPRO_RUNNER_JOBS", "-3")
        with pytest.raises(ValueError, match="REPRO_RUNNER_JOBS=-3"):
            resolve_workers(None)

    def test_campaign_refuses_a_negative_count(self):
        campaign = Campaign([fn_spec(call(fn_square, 2))])
        with pytest.raises(ValueError, match="need 1 or more"):
            campaign.run(workers=-1)


@pytest.mark.skipif(os.name != "posix", reason="needs fork + os._exit")
class TestWorkerCrashRecovery:
    def test_campaign_survives_worker_crash(self):
        jobs = square_jobs(5) + [fn_spec(call(fn_hard_exit, 0))]
        result = Campaign(jobs).run(workers=2)
        assert [s.value for s in result.summaries[:5]] == [0, 1, 4, 9, 16]
        failure = result.summaries[5]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "worker-crash"
        assert failure.attempts > 1  # it was re-run before quarantine
        assert "exit code 17" in failure.message
        assert [i["kind"] for i in result.incidents] == ["quarantined"]

    def test_quarantine_after_bounded_retries(self):
        executor = PoolExecutor(workers=2)
        jobs = [fn_spec(call(fn_hard_exit, 0))] + square_jobs(3)
        results = executor.map(jobs)
        crash = results[0]
        assert isinstance(crash, JobFailure)
        assert crash.kind == "worker-crash"
        assert crash.attempts == RERUN_LIMIT + 1  # first run + re-runs
        assert [r.value for r in results[1:]] == [0, 1, 4]
        assert executor.incidents == [
            {"kind": "quarantined", "key": crash.key, "attempts": crash.attempts}
        ]

    def test_a_cell_rerun_after_its_child_died_is_an_incident(self, tmp_path):
        marker = str(tmp_path / "killed")
        jobs = square_jobs(3) + [fn_spec(call(fn_die_once, 5, marker))]
        result = Campaign(jobs).run(workers=2)
        assert os.path.exists(marker)  # its first child did die
        clean = Campaign(jobs).run(workers=1)  # the marker is left: no death
        assert [s.stable_digest() for s in result.summaries] == [
            s.stable_digest() for s in clean.summaries
        ]
        assert result.summaries[3].value == 25
        assert result.incidents == [
            {"kind": "rerun", "key": jobs[3].fingerprint(), "runs": 2}
        ]
        assert clean.incidents == []

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
        executor = PoolExecutor(1)
        assert executor.incidents == []
        results = executor.map(square_jobs(2))
        assert [r.value for r in results] == [0, 1]
