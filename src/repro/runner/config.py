"""Process-wide execution defaults for campaigns.

The experiment modules call ``Campaign.run()`` with no executor
arguments; what that means — serial or pooled, cached or not — is
decided here, so one CLI flag (or environment variable, for CI and
benches) threads through every sweep without touching experiment
signatures.

Resolution order for each knob: explicit argument at the call site,
then :func:`configure`'d value, then environment variable, then the
conservative default (serial, no cache).

Environment variables:

* ``REPRO_RUNNER_JOBS`` — worker count (``0`` = all cores, ``1`` = serial);
* ``REPRO_RUNNER_CACHE`` — ``off``/``0`` disables, ``on``/``1`` uses the
  store's default location (``$REPRO_STORE_DIR``, else ``.repro-store``),
  anything else is used as the store directory (or ``.sqlite`` file);
* ``REPRO_RUNNER_TIMEOUT`` — per-job wall-clock budget in seconds
  (``0`` or unset = no limit).
"""

from __future__ import annotations

import os
from typing import Any, Optional, Tuple, Union

#: What a ``cache`` argument may be: on/off, a store location, or a
#: ready-made cache object (``get`` / ``put`` / ``drain_events``).
CacheArg = Union[bool, str, "os.PathLike[str]", Any]

_workers: Optional[int] = None
_cache: Optional[CacheArg] = None
_timeout: Optional[float] = None


def configure(
    workers: Optional[int] = None,
    cache: Optional[CacheArg] = None,
    timeout: Optional[float] = None,
) -> None:
    """Set process-wide defaults (CLI entry points call this once)."""
    global _workers, _cache, _timeout
    if workers is not None:
        _workers = workers
    if cache is not None:
        # Locations stay unresolved until resolve_cache: no store is
        # opened (and sqlite3 not imported) unless a campaign runs.
        _cache = cache
    if timeout is not None:
        _timeout = timeout


def reset() -> None:
    """Back to built-in defaults (used by tests)."""
    global _workers, _cache, _timeout
    _workers = None
    _cache = None
    _timeout = None


def resolve_workers(workers: Optional[int] = None) -> Optional[int]:
    if workers is not None:
        return workers
    if _workers is not None:
        return _workers
    env = os.environ.get("REPRO_RUNNER_JOBS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"REPRO_RUNNER_JOBS={env!r} is not an integer")
    return None


def resolve_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Per-job wall-clock budget in seconds; None/0 means unlimited."""
    if timeout is None:
        timeout = _timeout
    if timeout is None:
        env = os.environ.get("REPRO_RUNNER_TIMEOUT")
        if env is not None:
            try:
                timeout = float(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_RUNNER_TIMEOUT={env!r} is not a number"
                )
    if timeout is not None and timeout <= 0:
        return None
    return timeout


def resolve_cache(cache: Optional[CacheArg] = None) -> Tuple[Any, bool]:
    """``(cache, opened)``: the cache object a campaign should consult
    (or None), and whether it was opened here.

    ``True`` is a :class:`~repro.store.cache.StoreResultCache` at the
    store's default location, a ``str`` / ``os.PathLike`` one at that
    location — opened by this call, so the caller closes it; a
    ready-made cache object passes through untouched and stays its
    owner's to close.
    """
    if cache is None:
        cache = _cache
    if cache is None:
        env = os.environ.get("REPRO_RUNNER_CACHE")
        if env is None:
            return None, False
        lowered = env.strip().lower()
        if lowered in ("off", "0", "false", "no", ""):
            return None, False
        cache = True if lowered in ("on", "1", "true", "yes") else env
    if cache is False:
        return None, False
    if cache is True or isinstance(cache, (str, os.PathLike)):
        # Imported here, not at module level: a run without a cache
        # never pays for sqlite3.
        from repro.store.cache import StoreResultCache

        return StoreResultCache(None if cache is True else cache), True
    return cache, False
