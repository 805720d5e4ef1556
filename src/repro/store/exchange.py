"""Batched cross-shard visited-set exchange through the store.

Shards walked with isolated visited sets re-explore each other's
states — sound, but ~30% run inflation on the n=3 NBAC tree.  The
exchange recovers cross-shard dedup without giving up process
isolation: each shard *seeds* its visited dict from the shared
``fingerprints`` table, hands its newly-recorded states to the
completion transaction that records its result, and periodically
*pulls* whatever other shards inserted since its last sync (cursored by
rowid, so a pull reads only the delta).

Soundness is inherited from in-process dedup: a published ``(fp,
remaining)`` row means some shard exhausted that state's subtree with
``remaining`` ticks left, so any shard reaching the state with no more
ticks remaining can halt — the continuations are covered elsewhere.

**Publication is deferred to walk completion.**  Publishing mid-walk
would be unsound the moment workers can crash or be retried: a shard
killed halfway has published states whose subtrees it never exhausted,
and its own retry (or a sibling shard) would dedup-halt on them and
silently lose coverage.  Worse, even a shard that *finished* but whose
summary was never merged (worker died between walk and result
persistence) leaks rows that claim coverage living in no report.  So
``note`` only accumulates; rows reach the table atomically inside the
work-queue completion transaction (``take_pending`` +
:meth:`repro.store.db.ResultStore.complete_work_batch`) — a rejected
completion publishes nothing.  Deferral only costs redundancy (a state
is shared once its discovering shard finishes, not the moment it is
recorded), never coverage; with sequential shards each one completes
before the next seeds, so the recovery stays exact and the merged
search visits no more states than the single-process walk
(``tests/explore/test_shared_dedup.py`` pins this).

The scope string names one comparable search — case plus every
exploration option — and includes the code salt, so stale rows from an
edited tree are invisible rather than wrong.
:func:`~repro.explore.frontierd.run_frontier` additionally
salts the scope with a per-invocation token and releases it after
merging: the shared set coordinates shards *within* one search, and a
later independent search must not dedup against a finished one (its
results live in the earlier report, not the new one).  The table
lives in the run's own coordination file, never in a campaign
database, so a search killed before its ``finally`` leaks rows only
into a file nothing else reads.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from repro.store.db import ResultStore

#: A walk looks at the clock once per this many visited-set writes, and
#: pulls the remote delta when :data:`PULL_INTERVAL` seconds have passed
#: since its last pull.  Pulls only add dedup information, so rationing
#: them costs redundancy, never coverage — and a worker walking many
#: small shards through one exchange pays no read round-trip per shard.
NOTES_PER_CLOCK_CHECK = 256
PULL_INTERVAL = 0.5


def exchange_scope(case_dict: Dict[str, Any], options_dict: Dict[str, Any]) -> str:
    """The shared-visited-set scope for one (case, options) search.

    ``options_dict`` is the whole :class:`~repro.explore.cases
    .ExploreOptions` (``dataclasses.asdict``): every option that shapes
    fingerprints or dedup semantics is a field of it, so none can be
    left out of the scope, and mixing scopes would merge incomparable
    searches.
    """
    from repro.runner.fingerprint import code_salt, fingerprint

    return fingerprint(
        {"case": case_dict, "options": options_dict, "code": code_salt()},
        salt="explore-scope:2",
    )


class FingerprintExchange:
    """One shard's window onto the shared visited set.

    ``visited`` is the live dict the engine reads and writes; the
    exchange seeds it from the store, tracks local additions as
    *pending* (published only at walk completion — see the module doc),
    and pulls the remote delta on a timer.
    """

    def __init__(self, store: ResultStore, scope: str, counters: Any = None):
        self.store = store
        self.scope = scope
        #: A :class:`~repro.sim.perf.PerfCounters` (or None): every
        #: store read round-trip is tallied into ``exchange_pulls`` so
        #: coordination overhead is observable, not inferred.
        self.counters = counters
        self.visited, self._cursor = store.load_fingerprints(scope)
        self._pending: Dict[str, int] = {}
        self._notes = 0
        self._last_pull = time.monotonic()

    def note(self, fp: str, remaining: int) -> None:
        """Called by the engine on every visited-set write."""
        seen = self._pending.get(fp)
        if seen is None or seen < remaining:
            self._pending[fp] = remaining
        self._notes += 1
        if self._notes >= NOTES_PER_CLOCK_CHECK:
            self._notes = 0
            self.sync()

    def pull(self) -> None:
        """Fold in states other shards published since the last pull."""
        fresh, self._cursor = self.store.fingerprints_since(
            self.scope, self._cursor
        )
        if self.counters is not None:
            self.counters.exchange_pulls += 1
        for fp, remaining in fresh:
            seen = self.visited.get(fp)
            if seen is None or seen < remaining:
                self.visited[fp] = remaining
        self._last_pull = time.monotonic()

    def sync(self) -> None:
        """Pull the remote delta if :data:`PULL_INTERVAL` has passed.

        Also the engine's end-of-walk hook.  Deliberately does **not**
        publish — the pending set's fate is the caller's call:
        :meth:`take_pending` into an atomic completion transaction once
        the walk's result is safe, or nothing at all.
        """
        if time.monotonic() - self._last_pull >= PULL_INTERVAL:
            self.pull()

    def take_pending(self) -> List[Tuple[str, int]]:
        """Hand the pending states to an atomic completion transaction."""
        items = list(self._pending.items())
        self._pending.clear()
        return items
