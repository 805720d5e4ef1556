"""Process-wide execution defaults for campaigns.

The experiment modules call ``Campaign.run()`` with no executor
arguments; what that means — serial or forked, cached or not — is
decided here, so one CLI flag (or environment variable, for CI and
benches) threads through every sweep without touching experiment
signatures.

Resolution order for each knob: explicit argument at the call site,
then :func:`configure`'d value (workers and cache only), then
environment variable, then the library default (serial, no cache, no
time limit).  The experiments CLI's own default, every core, holds for
its call only (:func:`configured`).

Environment variables:

* ``REPRO_RUNNER_JOBS`` — worker count (``0`` = all cores, ``1`` = serial;
  more than one forks children, :mod:`repro.runner.pool`);
* ``REPRO_RUNNER_CACHE`` — ``off``/``0`` disables, ``on``/``1`` uses the
  store's default location (``$REPRO_STORE_DIR``, else ``.repro-store``),
  anything else is used as the store directory (or ``.sqlite`` file);
* ``REPRO_RUNNER_TIMEOUT`` — per-job wall-clock budget in seconds
  (``0`` or unset = no limit), kept by the parent of the child running
  the job (:func:`repro.runner.pool.fork_imap`).
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Iterator, Optional, Tuple, Union

#: What a ``cache`` argument may be: on/off, a store location, or a
#: ready-made cache object (``get`` / ``put`` / ``drain_events``).
CacheArg = Union[bool, str, "os.PathLike[str]", Any]

_workers: Optional[int] = None
_cache: Optional[CacheArg] = None


def configure(
    workers: Optional[int] = None,
    cache: Optional[CacheArg] = None,
) -> None:
    """Set process-wide defaults (CLI entry points call this once)."""
    global _workers, _cache
    if workers is not None:
        _workers = workers
    if cache is not None:
        # Locations stay unresolved until resolve_cache: no store is
        # opened (and sqlite3 not imported) unless a campaign runs.
        _cache = cache


@contextlib.contextmanager
def configured(**knobs: Any) -> Iterator[None]:
    """:func:`configure` for a ``with`` block only, so a CLI's choices do
    not leak into its caller's later campaigns."""
    global _workers, _cache
    saved = _workers, _cache
    configure(**knobs)
    try:
        yield
    finally:
        _workers, _cache = saved


def reset() -> None:
    """Back to built-in defaults (used by tests)."""
    global _workers, _cache
    _workers = None
    _cache = None


def resolve_workers(workers: Optional[int] = None) -> Optional[int]:
    """Worker count (None when nothing sets one; ``0`` = all cores).

    Whichever source supplies it, a negative count is a ``ValueError``:
    campaigns, the experiments CLI and the explorer's frontier share
    this one rule.
    """
    source = "workers"
    if workers is None:
        workers = _workers
    if workers is None:
        env = os.environ.get("REPRO_RUNNER_JOBS")
        if env is None:
            return None
        source = "REPRO_RUNNER_JOBS"
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"REPRO_RUNNER_JOBS={env!r} is not an integer")
    if workers < 0:
        raise ValueError(f"{source}={workers}: need 1 or more (0 = every core)")
    return workers


def resolve_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Per-job wall-clock budget in seconds (None: no limit).

    Whichever source supplies it, anything but a finite number of
    seconds, 0 (no limit) or more, is a ``ValueError`` naming it.
    """
    source = "timeout"
    if timeout is None:
        env = os.environ.get("REPRO_RUNNER_TIMEOUT")
        if env is None:
            return None
        source = "REPRO_RUNNER_TIMEOUT"
        try:
            timeout = float(env)
        except ValueError:
            raise ValueError(f"REPRO_RUNNER_TIMEOUT={env!r} is not a number")
    if not 0 <= timeout < float("inf"):  # refuses NaN too
        raise ValueError(
            f"{source}={timeout}: need a finite number of seconds, "
            "0 (no limit) or more"
        )
    return timeout or None


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
