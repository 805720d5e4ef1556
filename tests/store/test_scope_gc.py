"""Stale-scope GC: killed searches must not leak coordination state.

A finished frontier search releases its salted exchange scope in its
``finally``; a SIGKILLed one never gets there.  The registry
(``exchange_scopes``) plus the sweep make the leak bounded: orphan
fingerprint rows (no registration — killed before the exchange opened,
or written by pre-v2 code) go immediately, registered scopes go once
they age past the liveness horizon, and the sweep also rides store
open (opportunistically) and ``python -m repro.store sweep``.
"""

import subprocess
import sys

from repro.store import ResultStore
from repro.store.exchange import FingerprintExchange


def _scopes(store):
    con = store.read_connection()
    try:
        fp = {
            s for (s,) in con.execute(
                "SELECT DISTINCT scope FROM fingerprints"
            )
        }
        registered = {
            s for (s,) in con.execute("SELECT scope FROM exchange_scopes")
        }
        return fp, registered
    finally:
        con.close()


class TestRegistry:
    def test_exchange_registers_its_scope(self, tmp_path):
        store = ResultStore(tmp_path)
        FingerprintExchange(store, "live-scope")
        assert _scopes(store)[1] == {"live-scope"}
        store.close()

    def test_release_drops_rows_and_registration(self, tmp_path):
        store = ResultStore(tmp_path)
        exchange = FingerprintExchange(store, "done-scope")
        exchange.note("fp1", 3)
        store.publish_fingerprints("done-scope", exchange.take_pending())
        store.release_scope("done-scope")
        assert _scopes(store) == (set(), set())
        store.close()


class TestSweep:
    def test_orphan_scopes_swept_immediately(self, tmp_path):
        store = ResultStore(tmp_path)
        # Rows without a registration: the pre-v2 shape, or a search
        # killed before FingerprintExchange.__init__ committed.
        store.publish_fingerprints("orphan", [("fp", 2)])
        swept = store.sweep_stale_scopes(now=0.0)
        assert swept["orphan_scopes"] == ["orphan"]
        assert swept["fingerprint_rows"] == 1
        assert _scopes(store) == (set(), set())
        store.close()

    def test_registered_scopes_age_out_not_fresh_ones(self, tmp_path):
        store = ResultStore(tmp_path)
        store.register_scope("old", now=1000.0)
        store.publish_fingerprints("old", [("a", 1)])
        store.register_scope("fresh", now=90000.0)
        store.publish_fingerprints("fresh", [("b", 1)])
        swept = store.sweep_stale_scopes(max_age=86400.0, now=90001.0)
        assert swept["stale_scopes"] == ["old"]
        fp, registered = _scopes(store)
        assert fp == {"fresh"} and registered == {"fresh"}
        store.close()

    def test_sweep_collects_dead_queue_and_lease_rows(self, tmp_path):
        store = ResultStore(tmp_path)
        store.enqueue_work("dead-run", [{"i": 0}], now=0.0)
        store.claim_work_batch("dead-run", "w", ttl=1.0, limit=1, now=0.0)
        swept = store.sweep_stale_scopes(max_age=10.0, now=1e9)
        assert swept["work_rows"] == 1
        assert swept["lease_rows"] == 1
        store.close()

    def test_open_sweeps_opportunistically(self, tmp_path):
        store = ResultStore(tmp_path)
        store.publish_fingerprints("leaked", [("fp", 2)])
        store.close()
        # A later open (first write-connection touch) heals the leak.
        healer = ResultStore(tmp_path)
        healer.register_scope("trigger")  # any write-path touch
        assert _scopes(healer)[0] == set()
        healer.close()

    def test_check_cli_reports_the_sweep(self, tmp_path):
        store = ResultStore(tmp_path)
        store.publish_fingerprints("leaked", [("fp", 2)])
        store.close()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.store", "--db", str(tmp_path), "sweep"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "swept 1 orphaned" in proc.stdout
        after = ResultStore(tmp_path)
        assert _scopes(after)[0] == set()
        after.close()
