"""The campaign cache (the store), driven through real campaigns.

Pins the tentpole behaviours: a completed campaign re-run against the
store executes zero cells, the execution is recorded as a ``campaigns``
row the CLI can report, corruption surfaces as ``cache_events`` (and a
warning) rather than wrong results, and ``True`` / a location / a
ready-made object resolve through
:func:`repro.runner.config.resolve_cache`.
"""

import logging
from pathlib import Path

import pytest

from repro.runner import Campaign, call, fn_spec
from repro.runner import config as runner_config
from repro.store import ResultStore, StoreResultCache
from repro.store.report import summarise

from tests.store import helpers


@pytest.fixture(autouse=True)
def _clean_runner_config():
    yield
    runner_config.reset()


def _grid(count=4):
    return Campaign(
        [fn_spec(call(helpers.square, i), i=i) for i in range(count)],
        name="store-grid",
    )


class TestCampaignResume:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        campaign = _grid()
        cold = campaign.run(cache=StoreResultCache(tmp_path))
        warm = campaign.run(cache=StoreResultCache(tmp_path))
        assert cold.executed == len(campaign) and cold.hits == 0
        assert warm.executed == 0 and warm.hits == len(campaign)
        assert [s.value for s in warm] == [s.value for s in cold]
        assert all(s.cached for s in warm)

    def test_same_process_cache_object_sees_unflushed_puts(self, tmp_path):
        cache = StoreResultCache(tmp_path, batch=1000)  # nothing flushes early
        campaign = _grid()
        campaign.run(cache=cache)
        warm = campaign.run(cache=cache)
        assert warm.executed == 0

    def test_a_cache_opened_from_a_location_is_closed_with_the_run(
        self, tmp_path
    ):
        # Nothing used to close it: one SQLite connection, and its
        # -wal / -shm files, per ``run`` until the collector got there.
        campaign = _grid()
        for location in (tmp_path, str(tmp_path)):
            campaign.run(cache=location)
            assert [p.name for p in tmp_path.iterdir()] == ["store.sqlite"]
        runner_config.configure(cache=str(tmp_path))
        assert campaign.run().executed == 0
        assert [p.name for p in tmp_path.iterdir()] == ["store.sqlite"]
        with ResultStore(tmp_path) as store:
            assert store.read_connection().execute(
                "SELECT COUNT(*) FROM run_summaries"
            ).fetchone() == (len(campaign),)

    def test_a_ready_made_cache_is_left_open_for_its_owner(self, tmp_path):
        campaign = _grid()
        cache = StoreResultCache(tmp_path)
        campaign.run(cache=cache)
        assert cache.store._write is not None  # the caller's to close
        assert campaign.run(cache=cache).executed == 0
        cache.close()
        assert [p.name for p in tmp_path.iterdir()] == ["store.sqlite"]
        # A store it was handed is not its own to close.
        with ResultStore(tmp_path) as store:
            wrapper = StoreResultCache(store=store)
            _grid(6).run(cache=wrapper)
            wrapper.close()
            assert store._write is not None
            assert store.write_connection.execute(
                "SELECT COUNT(*) FROM run_summaries"
            ).fetchone() == (6,)

    def test_campaign_rows_recorded_and_reported(self, tmp_path):
        campaign = _grid()
        campaign.run(cache=StoreResultCache(tmp_path))
        campaign.run(cache=StoreResultCache(tmp_path))
        store = ResultStore(tmp_path)
        rows = store.read_connection().execute(
            "SELECT name, cells, hits, executed, digest FROM campaigns "
            "ORDER BY id"
        ).fetchall()
        assert len(rows) == 2
        # Same cells → same digest; second run fully cached.
        assert rows[0][4] == rows[1][4]
        assert rows[0][3] == len(campaign) and rows[1][3] == 0
        report = summarise(store)
        assert "1 fully cached re-run(s)" in report
        store.close()

    def test_resume_runs_exactly_the_missing_cells(self, tmp_path):
        # Half the grid computed, then the full grid resumes: only the
        # other half executes.
        full = _grid(6)
        Campaign(full.jobs[:3], name="half").run(
            cache=StoreResultCache(tmp_path)
        )
        resumed = full.run(cache=StoreResultCache(tmp_path))
        assert resumed.hits == 3 and resumed.executed == 3
        assert resumed.ok

    def test_salt_partitions_backends_apart(self, tmp_path):
        campaign = _grid()
        campaign.run(cache=StoreResultCache(tmp_path, salt="salt-a"))
        other = campaign.run(cache=StoreResultCache(tmp_path, salt="salt-b"))
        assert other.hits == 0 and other.executed == len(campaign)


class TestCorruption:
    def _corrupt_all(self, tmp_path):
        store = ResultStore(tmp_path)
        with store.write_connection as con:
            con.execute("UPDATE run_summaries SET payload = X'00'")
        store.close()

    def test_corrupt_rows_recompute_and_surface(self, tmp_path, caplog):
        campaign = _grid()
        campaign.run(cache=StoreResultCache(tmp_path))
        self._corrupt_all(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.runner"):
            result = campaign.run(cache=StoreResultCache(tmp_path))
        assert result.hits == 0 and result.executed == len(campaign)
        assert result.ok
        assert result.cache_corruption == len(campaign)
        kinds = {e["kind"] for e in result.cache_events}
        assert kinds == {"cache-corrupt"}
        assert any("corrupt cache entr" in r.message for r in caplog.records)

    def test_corruption_heals_for_the_next_run(self, tmp_path):
        campaign = _grid()
        campaign.run(cache=StoreResultCache(tmp_path))
        self._corrupt_all(tmp_path)
        campaign.run(cache=StoreResultCache(tmp_path))  # recomputes
        healed = campaign.run(cache=StoreResultCache(tmp_path))
        assert healed.executed == 0 and healed.cache_corruption == 0


class TestBackendSelection:
    """There is one backend; what is left to resolve is *where* it is
    (the class keeps its name for the test ids)."""

    def test_a_directory_and_true_resolve_to_the_store(
        self, tmp_path, monkeypatch
    ):
        for location in (str(tmp_path / "s"), tmp_path / "p"):
            cache, opened = runner_config.resolve_cache(location)
            assert isinstance(cache, StoreResultCache) and opened
            assert cache.root == Path(location) / "store.sqlite"
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "default"))
        cache, opened = runner_config.resolve_cache(True)
        assert cache.root == tmp_path / "default" / "store.sqlite" and opened
        assert runner_config.resolve_cache(False) == (None, False)
        assert runner_config.resolve_cache(None) == (None, False)

    def test_configured_sqlite(self, tmp_path):
        runner_config.configure(cache=str(tmp_path))
        cache, _ = runner_config.resolve_cache()
        assert isinstance(cache, StoreResultCache)
        assert cache.root == tmp_path / "store.sqlite"

    def test_env_sqlite(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_CACHE", str(tmp_path / "env"))
        cache, _ = runner_config.resolve_cache()
        assert isinstance(cache, StoreResultCache)
        assert cache.root == tmp_path / "env" / "store.sqlite"
        monkeypatch.setenv("REPRO_RUNNER_CACHE", "off")
        assert runner_config.resolve_cache() == (None, False)
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "default"))
        monkeypatch.setenv("REPRO_RUNNER_CACHE", "on")
        assert (
            runner_config.resolve_cache()[0].root
            == tmp_path / "default" / "store.sqlite"
        )

    def test_argument_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_CACHE", str(tmp_path / "env"))
        runner_config.configure(cache=str(tmp_path / "configured"))
        assert (
            runner_config.resolve_cache()[0].root
            == tmp_path / "configured" / "store.sqlite"
        )
        cache, _ = runner_config.resolve_cache(str(tmp_path / "argument"))
        assert cache.root == tmp_path / "argument" / "store.sqlite"
        assert runner_config.resolve_cache(False) == (None, False)

    def test_ready_made_cache_passes_through(self, tmp_path):
        ready = StoreResultCache(tmp_path)
        assert runner_config.resolve_cache(ready) == (ready, False)

    def test_unknown_backend_rejected(self):
        # Every backend name is unknown now: the keywords themselves
        # are refused, not accepted and ignored.
        with pytest.raises(TypeError):
            runner_config.configure(cache_backend="sqlite")
        with pytest.raises(TypeError):
            runner_config.resolve_cache(True, backend="sqlite")
        assert not hasattr(runner_config, "resolve_cache_backend")
