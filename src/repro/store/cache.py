"""The campaign result cache, kept in the store.

:class:`StoreResultCache` is the interface
:meth:`repro.runner.campaign.Campaign.run` consumes — ``get(key)`` /
``put(key, summary)`` / ``drain_events()`` / ``salt`` — over one
:class:`~repro.store.db.ResultStore`.  It is what ``cache=True`` or a
directory resolves to (:func:`repro.runner.config.resolve_cache`):

* results live in **one** WAL-mode SQLite file, so campaigns survive
  across processes and CI runs cheaply (one file to ``actions/cache``);
* an entry is keyed by the spec's content hash and stored under a salt
  hashing the ``repro`` source tree
  (:func:`~repro.runner.fingerprint.code_salt`): changing any spec field
  re-executes that cell, editing any library source all of them;
* ``put`` is buffered (one committed transaction per batch) — a killed
  writer loses at most its uncommitted tail, never committed rows;
* every executed campaign is recorded as a ``campaigns`` row keyed by
  the digest of its cell keys, which is what makes resume *visible*:
  ``python -m repro.store summarise`` shows the re-run executing 0
  cells.

A torn or foreign row is never an error: it is deleted, surfaced as a
``cache-corrupt`` event, and treated as a miss so the cell recomputes.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.store.db import CorruptPayload, ResultStore


class StoreResultCache:
    """Campaign-facing adapter over :class:`~repro.store.db.ResultStore`.

    ``batch`` is the buffered-writer batch size; campaigns flush on
    completion (``drain_events``), so in-flight rows are bounded by it.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        salt: Optional[str] = None,
        store: Optional[ResultStore] = None,
        batch: int = 64,
    ):
        from repro.runner.fingerprint import code_salt

        #: A store opened here is closed by :meth:`close`; one handed
        #: in as ``store=`` stays its owner's.
        self._owns_store = store is None
        self.store = store if store is not None else ResultStore(root, batch=batch)
        self.salt = salt if salt is not None else code_salt()
        self.events: List[Dict[str, Any]] = []
        #: Rows put but possibly not yet flushed; consulted by ``get``
        #: so a same-process re-run never misses its own results.
        self._pending: Dict[str, Any] = {}

    @property
    def root(self):
        return self.store.path

    def get(self, key: str) -> Optional[Any]:
        """The stored summary for ``key``, or None on miss/corruption."""
        if key in self._pending:
            return self._pending[key]
        try:
            return self.store.get_summary(key, self.salt)
        except CorruptPayload as exc:
            self.events.append(
                {"kind": "cache-corrupt", "key": key, "reason": exc.reason}
            )
            return None

    def put(self, key: str, summary: Any) -> None:
        """Record a summary (buffered; committed by the next flush)."""
        self._pending[key] = summary
        self.store.put_summary(key, self.salt, summary)

    def drain_events(self) -> List[Dict[str, Any]]:
        """Flush buffered rows, then hand over the integrity events."""
        self.store.flush()
        self._pending.clear()
        events, self.events = self.events, []
        return events

    def close(self) -> None:
        """Flush; close the store too when this cache opened it."""
        self.store.flush()
        self._pending.clear()
        if self._owns_store:
            self.store.close()

    def record_campaign(self, result, name: Optional[str], keys) -> None:
        """File the campaign row for one finished :meth:`Campaign.run`."""
        self.store.record_campaign(
            name=name,
            digest=self.store.campaign_digest(keys),
            salt=self.salt,
            cells=len(result.summaries),
            hits=result.hits,
            executed=result.executed,
            failures=len(result.failures),
            corrupt=result.cache_corruption,
            wall_clock=result.wall_clock,
            workers=result.workers,
        )

    def __repr__(self) -> str:
        return (
            f"StoreResultCache(path={str(self.store.path)!r}, "
            f"salt={self.salt[:12]!r})"
        )
