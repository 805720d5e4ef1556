"""Process-wide perf-profile collection for campaigns.

When enabled (the experiments CLI's ``--profile`` flag), every
:meth:`Campaign.run` deposits its aggregated hot-path counters here;
:func:`dump` writes the accumulated records as JSON.  The collector is
deliberately dumb — a module-level list guarded by an enable flag — so
it costs nothing when off and needs no threading through the experiment
call graphs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

_enabled = False
_records: List[Dict[str, Any]] = []


def enable() -> None:
    _records.clear()
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


def record(name: Optional[str], result) -> None:
    """Deposit one campaign's perf aggregate (no-op unless enabled)."""
    if not _enabled:
        return
    totals = result.perf_totals()
    _records.append(
        {
            "campaign": name,
            "cells": len(result),
            "cached": result.hits,
            "executed": result.executed,
            "wall_clock": round(result.wall_clock, 4),
            "perf": totals,
        }
    )


def extend(records: List[Dict[str, Any]]) -> None:
    """Deposit the records :func:`drain` returned in a pool child."""
    _records.extend(records)


def drain() -> List[Dict[str, Any]]:
    """The collected records (and reset the collector)."""
    out = list(_records)
    _records.clear()
    return out


def dump(path: str) -> Dict[str, Any]:
    """Write collected records plus a grand total to ``path`` as JSON."""
    from repro.sim.perf import aggregate

    records = drain()
    payload = {
        "campaigns": records,
        "total": aggregate(r["perf"] for r in records),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
