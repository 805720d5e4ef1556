"""The perf-counter registry and its wiring through system/runner."""

import random
import re
from pathlib import Path

from repro.core.detectors import omega_sigma_oracle
from repro.sim.network import ConstantDelay
from repro.sim.perf import FIELDS, PerfCounters, aggregate
from repro.sim.process import Component
from repro.sim.system import SystemBuilder


class Chatter(Component):
    name = "chat"

    def on_start(self):
        self.broadcast(("hi", self.pid), include_self=False)

    def on_message(self, sender, payload, meta):
        if payload[1] < 3:
            self.send(sender, ("hi", payload[1] + 1))


class TestPerfCounters:
    def test_zero_initialised(self):
        perf = PerfCounters()
        assert all(getattr(perf, f) == 0 for f in FIELDS)
        assert perf.as_dict() == {f: 0 for f in FIELDS}

    def test_merge_and_aggregate(self):
        a = PerfCounters()
        a.ticks = 10
        a.messages_scanned = 4
        b = PerfCounters()
        b.ticks = 5
        b.merge(a)
        assert b.ticks == 15
        assert b.messages_scanned == 4
        total = aggregate([a.as_dict(), b.as_dict(), {}])
        assert total["ticks"] == 25

    def test_merge_ignores_unknown_keys(self):
        perf = PerfCounters()
        perf.merge({"ticks": 3, "not_a_counter": 99})
        assert perf.ticks == 3

    def test_ratios(self):
        perf = PerfCounters()
        assert perf.scanned_per_delivery() == 0.0
        assert perf.detector_hit_rate() == 0.0
        perf.messages_scanned, perf.messages_delivered = 30, 10
        perf.detector_value_calls, perf.detector_cache_hits = 8, 2
        assert perf.scanned_per_delivery() == 3.0
        assert perf.detector_hit_rate() == 0.25

    def test_counters_table_names_every_field(self):
        """docs/PERF.md § "The counters" documents exactly FIELDS."""
        doc = Path(__file__).resolve().parents[2] / "docs" / "PERF.md"
        section = doc.read_text().split("\n## The counters\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        named = []
        for line in section.splitlines():
            if line.startswith("| `"):
                named += re.findall(r"`(\w+)`", line.split("|")[1])
        assert sorted(named) == sorted(FIELDS)
        assert len(named) == len(set(named))

    def test_repr_shows_only_nonzero(self):
        perf = PerfCounters()
        perf.ticks = 7
        assert "ticks" in repr(perf)
        assert "heap_pops" not in repr(perf)


class TestSystemWiring:
    def _run(self, **kw):
        system = (
            SystemBuilder(n=3, seed=1, horizon=500)
            .delays(ConstantDelay(2))
            .detector(omega_sigma_oracle())
            .component("chat", lambda pid: Chatter())
            .build()
        )
        trace = system.run()
        return system, trace

    def test_counters_populated(self):
        system, trace = self._run()
        perf = system.perf
        assert perf.ticks == trace.step_count()
        assert perf.messages_sent == trace.messages_sent
        assert perf.messages_delivered == trace.messages_delivered
        assert perf.lambda_steps == perf.ticks - perf.messages_delivered
        assert perf.detector_value_calls >= perf.ticks
        assert trace.perf is perf
        assert system.network.perf is perf
        assert system.detector_history.perf is perf

    def test_detector_cache_hits_counted(self):
        system, _ = self._run()
        hist = system.detector_history
        calls_before = system.perf.detector_value_calls
        hist.value(0, 1)
        hist.value(0, 1)
        assert system.perf.detector_value_calls == calls_before + 2
        assert system.perf.detector_cache_hits >= 1


class TestRunnerWiring:
    def _spec(self):
        from repro.runner import call, run_spec

        return run_spec(
            n=3, seed=1, horizon=400,
            delay_model=ConstantDelay(2),
            components=[("chat", call(_chatter_factory))],
        )

    def test_summary_carries_perf(self):
        summary = self._spec().execute()
        assert summary.perf["ticks"] == summary.steps
        assert summary.perf["messages_delivered"] == summary.messages_delivered

    def test_perf_excluded_from_stable_digest(self):
        a = self._spec().execute()
        b = self._spec().execute()
        b.perf = dict(b.perf, messages_scanned=10**9)
        assert a.stable_digest() == b.stable_digest()

    def test_campaign_perf_totals(self):
        from repro.runner import Campaign

        specs = [self._spec(), self._spec().with_(seed=2)]
        result = Campaign(specs, name="perf-test").run(workers=1, cache=False)
        totals = result.perf_totals()
        assert totals["ticks"] == sum(s.perf["ticks"] for s in result)
        assert totals["ticks"] > 0

    def test_profile_collector(self):
        from repro.runner import Campaign, profile

        profile.enable()
        try:
            Campaign([self._spec()], name="profiled").run(
                workers=1, cache=False
            )
            records = profile.drain()
        finally:
            profile.disable()
        assert len(records) == 1
        assert records[0]["campaign"] == "profiled"
        assert records[0]["perf"]["ticks"] > 0

    def test_profile_dump(self, tmp_path):
        import json

        from repro.runner import Campaign, profile

        profile.enable()
        try:
            Campaign([self._spec()], name="dumped").run(workers=1, cache=False)
            path = tmp_path / "profile.json"
            payload = profile.dump(str(path))
        finally:
            profile.disable()
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert on_disk["total"]["ticks"] > 0


def _chatter_factory():
    return lambda pid: Chatter()
