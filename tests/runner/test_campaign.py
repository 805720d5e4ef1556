"""Campaign determinism: the tentpole guarantees, pinned.

Same RunSpec ⇒ byte-identical RunSummary (stable digest) whether the
grid executes serially, across a process pool, or out of a warm cache;
changed seed/horizon ⇒ cache miss.
"""

import pytest

from pathlib import Path

from repro.experiments.e01_register import case_spec as e01_spec
from repro.experiments.e03_consensus import case_spec as e03_spec
from repro.runner import Campaign, call, fn_spec
from repro.store import ResultStore, StoreResultCache

from tests.runner import helpers


def _grid(n=4, seeds=2, crashes=2, **overrides):
    return Campaign.grid(
        lambda seed, f: helpers.consensus_spec(
            n=n, seed=seed, f=f, **overrides
        ),
        name="test-grid",
        seed=range(seeds),
        f=range(crashes),
    )


class TestGridExpansion:
    def test_rightmost_axis_varies_fastest(self):
        campaign = _grid(seeds=2, crashes=2)
        coords = [(job.tag_dict["seed"], job.tag_dict["f"]) for job in campaign.jobs]
        assert coords == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_builder_may_skip_cells(self):
        campaign = Campaign.grid(
            lambda seed: helpers.consensus_spec(seed=seed) if seed else None,
            seed=range(3),
        )
        assert len(campaign) == 2

    def test_campaigns_concatenate(self):
        combined = _grid(seeds=1) + _grid(seeds=1)
        assert len(combined) == 2 * len(_grid(seeds=1))


def _e1_e3_grid():
    """E1's register and E3's consensus cells at n=3: real experiment
    CallSpecs (quorum kinds, detectors, summarisers) through the pool
    and the store.  Every cell reaches its stop condition by tick 311."""
    e01 = Campaign.grid(
        lambda f, kind: e01_spec(3, f, kind, seed=0, horizon=1_000),
        name="grid-e01",
        f=range(2),
        kind=("majority", "sigma"),
    )
    e03 = Campaign.grid(
        lambda seed, label: e03_spec(3, 1, label, seed, horizon=1_000),
        name="grid-e03",
        seed=range(2),
        label=("(Omega,Sigma)", "Omega+majorities", "CT <>S [4]", "CT S [4]"),
    )
    return e01 + e03


class TestDeterminism:
    @pytest.mark.parametrize(
        "build", [_grid, _e1_e3_grid], ids=["paxos", "e1-e3"]
    )
    def test_serial_pool_and_cache_agree_byte_for_byte(self, tmp_path, build):
        campaign = build()
        cache = StoreResultCache(tmp_path)

        serial = campaign.run(workers=1, cache=False)
        pooled = campaign.run(workers=2, cache=cache)
        warmed = campaign.run(workers=2, cache=cache)

        assert serial.ok and pooled.ok and warmed.ok
        assert warmed.hits == len(campaign) and warmed.executed == 0
        digests = [
            [s.stable_digest() for s in result]
            for result in (serial, pooled, warmed)
        ]
        assert digests[0] == digests[1] == digests[2]
        assert all(s.stop_reason == "stop-condition" for s in serial)
        assert all(s.metrics.get("ok") is not False for s in serial)

    def test_trace_digest_identical_across_executors(self):
        campaign = _grid(seeds=1, crashes=1)
        serial = campaign.run(workers=1)
        pooled = campaign.run(workers=2)
        assert [s.trace_digest for s in serial] == [
            s.trace_digest for s in pooled
        ]

    def test_lite_and_full_trace_modes_share_digests(self):
        lite = helpers.consensus_spec(trace_mode="lite").execute()
        full = helpers.consensus_spec(trace_mode="full").execute()
        assert lite.trace_digest == full.trace_digest
        assert lite.metrics == full.metrics
        # trace_mode is part of the spec, so the cache keys stay distinct.
        assert lite.key != full.key

    def test_result_order_matches_job_order(self):
        campaign = _grid()
        result = campaign.run(workers=2)
        assert [s.tags for s in result] == [job.tag_dict for job in campaign.jobs]

    def test_duplicate_cells_execute_once(self):
        spec = helpers.consensus_spec()
        result = Campaign([spec, spec, spec]).run()
        assert result.executed == 1
        assert len(result) == 3
        assert len({s.stable_digest() for s in result}) == 1


class TestCacheInvalidation:
    def test_changed_seed_misses(self, tmp_path):
        cache = StoreResultCache(tmp_path)
        Campaign([helpers.consensus_spec(seed=0)]).run(cache=cache)
        second = Campaign([helpers.consensus_spec(seed=1)]).run(cache=cache)
        assert second.hits == 0 and second.executed == 1

    def test_changed_horizon_misses(self, tmp_path):
        cache = StoreResultCache(tmp_path)
        Campaign([helpers.consensus_spec(horizon=50_000)]).run(cache=cache)
        second = Campaign([helpers.consensus_spec(horizon=60_000)]).run(
            cache=cache
        )
        assert second.hits == 0 and second.executed == 1

    def test_same_spec_hits(self, tmp_path):
        cache = StoreResultCache(tmp_path)
        Campaign([helpers.consensus_spec()]).run(cache=cache)
        second = Campaign([helpers.consensus_spec()]).run(cache=cache)
        assert second.hits == 1 and second.executed == 0
        assert second[0].cached is True

    def test_salt_change_misses(self, tmp_path):
        first = StoreResultCache(tmp_path, salt="salt-a")
        Campaign([helpers.consensus_spec()]).run(cache=first)
        second = Campaign([helpers.consensus_spec()]).run(
            cache=StoreResultCache(tmp_path, salt="salt-b")
        )
        assert second.hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = helpers.consensus_spec()
        Campaign([spec]).run(cache=StoreResultCache(tmp_path, salt="s"))
        with ResultStore(tmp_path) as store, store.write_connection as con:
            con.execute("UPDATE run_summaries SET payload = ?", (b"not a pickle",))
        cache = StoreResultCache(tmp_path, salt="s")
        assert cache.get(spec.fingerprint()) is None
        assert [e["kind"] for e in cache.drain_events()] == ["cache-corrupt"]

    def test_a_path_is_a_location_not_a_cache_object(self, tmp_path):
        # ``cache=Path(d)`` used to be passed through as a ready-made
        # cache: AttributeError: 'PosixPath' object has no attribute 'get'.
        spec = helpers.consensus_spec()
        cold = Campaign([spec]).run(cache=Path(tmp_path))
        warm = Campaign([spec]).run(cache=Path(tmp_path))
        assert (cold.executed, warm.executed, warm.hits) == (1, 0, 1)
        assert (tmp_path / "store.sqlite").is_file()


class TestResultQueries:
    def test_by_tag_and_one(self):
        result = _grid().run()
        assert len(result.by_tag(f=1)) == 2
        assert result.one(seed=1, f=0).tags["seed"] == 1
        with pytest.raises(KeyError):
            result.one(f=1)


class TestFnSpecCells:
    def test_fn_cells_execute_and_cache(self, tmp_path):
        cache = StoreResultCache(tmp_path)
        cell = fn_spec(call(helpers.one_arg_value, 7), kind="fn")
        first = Campaign([cell]).run(cache=cache)
        second = Campaign([cell]).run(cache=cache)
        assert first[0].value == 7
        assert second.hits == 1
        assert first[0].stable_digest() == second[0].stable_digest()
