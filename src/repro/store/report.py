"""Text reports over the campaign database (the CLI's meat).

Two views, mirroring the pyotter ``summarise``/``show`` split:

* :func:`summarise` — whole-store counts: cached cells per salt,
  campaign executions (with fully-cached re-runs called out, since
  "re-run executed 0 cells" is the resume guarantee), witnesses;
* :func:`show` — one stored run by key prefix, payload unpickled.

Both read through a read-only connection — safe to run while a
campaign is writing.
"""

from __future__ import annotations

import datetime
import json
from typing import List

from repro.store.db import CorruptPayload, ResultStore, decode_payload


def _when(timestamp: float) -> str:
    return datetime.datetime.fromtimestamp(timestamp).strftime(
        "%Y-%m-%d %H:%M:%S"
    )


def summarise(store: ResultStore) -> str:
    con = store.read_connection()
    try:
        lines: List[str] = [f"store: {store.path}"]

        rows = con.execute(
            "SELECT salt, kind, COUNT(*), SUM(wall_clock) "
            "FROM run_summaries GROUP BY salt, kind ORDER BY salt, kind"
        ).fetchall()
        total = sum(r[2] for r in rows)
        lines.append(f"run summaries: {total}")
        for salt, kind, count, wall in rows:
            lines.append(
                f"  salt {salt[:12]} kind={kind}: {count} cells, "
                f"{(wall or 0.0):.1f}s recorded compute"
            )

        campaigns = con.execute(
            "SELECT name, cells, hits, executed, failures, corrupt, "
            "wall_clock, created FROM campaigns ORDER BY id"
        ).fetchall()
        resumed = sum(1 for c in campaigns if c[3] == 0 and c[1] > 0)
        lines.append(
            f"campaigns: {len(campaigns)} recorded, "
            f"{resumed} fully cached re-run(s) (executed 0 cells)"
        )
        for name, cells, hits, executed, failures, corrupt, wall, created in campaigns[-10:]:
            lines.append(
                f"  {_when(created)} {name or '<unnamed>'}: {cells} cells, "
                f"{hits} hits, {executed} executed, {failures} failures, "
                f"{corrupt} corrupt, {wall:.2f}s"
            )

        witness_rows = con.execute(
            "SELECT family, target, COUNT(*) FROM witnesses "
            "GROUP BY family, target ORDER BY family, target"
        ).fetchall()
        lines.append(
            f"witnesses: {sum(r[2] for r in witness_rows)}"
        )
        for family, target, count in witness_rows:
            lines.append(f"  {family}/{target}: {count}")
        return "\n".join(lines)
    finally:
        con.close()


def show(store: ResultStore, key_prefix: str) -> str:
    con = store.read_connection()
    try:
        rows = con.execute(
            "SELECT key, salt, kind, digest, tags, wall_clock, created, "
            "payload FROM run_summaries WHERE key LIKE ? ORDER BY key",
            (key_prefix + "%",),
        ).fetchall()
    finally:
        con.close()
    if not rows:
        return f"no stored run matches key prefix {key_prefix!r}"
    if len(rows) > 1 and len(rows) <= 20:
        heads = ", ".join(r[0][:12] for r in rows)
        return f"{len(rows)} runs match {key_prefix!r}: {heads}"
    if len(rows) > 20:
        return f"{len(rows)} runs match {key_prefix!r}; narrow the prefix"
    key, salt, kind, digest, tags, wall_clock, created, payload = rows[0]
    lines = [
        f"run {key}",
        f"  salt:        {salt[:12]}",
        f"  kind:        {kind}",
        f"  digest:      {digest}",
        f"  tags:        {tags}",
        f"  wall clock:  {wall_clock:.3f}s",
        f"  recorded:    {_when(created)}",
    ]
    try:
        summary = decode_payload(payload)
    except CorruptPayload as exc:
        lines.append(f"  payload:     CORRUPT ({exc.reason})")
        return "\n".join(lines)
    for attr in ("stop_reason", "steps", "final_time", "faulty"):
        if hasattr(summary, attr):
            lines.append(f"  {attr + ':':<12} {getattr(summary, attr)}")
    metrics = getattr(summary, "metrics", None)
    if metrics:
        lines.append(f"  metrics:     {json.dumps(metrics, sort_keys=True, default=repr)}")
    value = getattr(summary, "value", None)
    if value is not None and kind == "fn":
        text = repr(value)
        lines.append(
            f"  value:       {text if len(text) <= 200 else text[:200] + '…'}"
        )
    return "\n".join(lines)

