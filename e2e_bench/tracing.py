"""Outside-in tracing: wrap the layers' public entry points, edit nothing.

The traced pass of a workload patches the attributes listed in
:data:`PATCH_POINTS` (plus the experiment registry and the public
``ResultStore`` methods) with recording wrappers before the timed call
and restores them afterwards.  Two kinds of record exist:

* a **span** (name, start, end, parent) for the coarse boundaries —
  kept in memory and written out once the workload has finished;
* an **aggregate** (exact count, sampled seconds) for the million-call
  hot functions, where one span per call would cost more than the call.

A layer's *self time* is its spans' duration minus the duration of
their direct child spans, so a span nested in a span of the same name
(a public store method calling another, a ``System.run`` driven from
inside a cell) is never counted twice.  A patch point that no longer
resolves is skipped and named in :attr:`Tracer.missing`; the record
names it fed are listed in :attr:`Tracer.broken`, and the metrics built
on them become ``null`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

SPAN = "span"
AGGREGATE = "aggregate"

#: (module, dotted attribute inside it, record name, kind).  The module
#: is the one whose *binding* the caller resolves at call time:
#: ``build_system`` is patched where ``explore.engine`` imported it.
PATCH_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.explore.engine", "build_system", "explore.build", SPAN),
    ("repro.explore.state", "FingerprintEngine.fingerprint", "explore.fingerprint", SPAN),
    ("repro.sim.system", "System.run", "sim.run", SPAN),
    ("repro.sim.system", "System.from_spec", "sim.from_spec", SPAN),
    ("repro.runner.campaign", "Campaign.run", "runner.campaign", SPAN),
    ("repro.runner.executor", "execute_job_guarded", "runner.cell", SPAN),
    ("repro.qc.extract_psi", "simulate_run", "qc_cht.simulate", SPAN),
    ("repro.sim.network", "Network.send", "sim.net", AGGREGATE),
    ("repro.sim.network", "Network.pick_for", "sim.net", AGGREGATE),
    ("repro.core.history", "FailureDetectorHistory.value", "core.fd_value", AGGREGATE),
)

#: Every public method of this class becomes a ``store.<method>`` span
#: (coordinator process only: frontier workers are spawned afresh).
STORE_CLASS = ("repro.store.db", "ResultStore")

#: The experiments CLI looks its registry up through this binding; the
#: traced pass wraps each returned callable as ``experiments.<id>``.
REGISTRY_POINT = ("repro.experiments.__main__", "all_experiments")

ROOT = "workload"

#: Aggregates time one call in eight and scale up: timing all 3 million
#: detector and network calls of the sweep cost 30% of its wall.  The
#: timed calls come in windows of consecutive calls, because every 8th
#: call alone would alias with the round-robin of processes.
SAMPLE_PERIOD_MASK = 4095
SAMPLE_WINDOW = 512


def nearest_rank(ordered: List[float], q: float) -> float:
    """The ``q`` quantile of an ascending list, by the nearest-rank rule."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


class Tracer:
    """Spans, aggregates and the patches that feed them."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent]`` with ``parent`` an index into
        #: this list (-1 for a root).
        self.spans: List[List[Any]] = []
        #: name -> ``[calls, timed calls, timed seconds, timing now]``.
        #: Every call is counted; ``SAMPLE_WINDOW`` of every
        #: ``SAMPLE_PERIOD_MASK + 1`` consecutive calls are timed; a
        #: call nested in a timed call of the same name counts as timed
        #: without a clock of its own, so re-entrancy is not double time.
        self.aggregates: Dict[str, List[Any]] = {}
        #: Patch points that did not resolve, and the record names (or
        #: name prefixes) that therefore measure nothing.
        self.missing: List[str] = []
        self.broken: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------
    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def aggregate(self, name: str, fn: Callable) -> Callable:
        cell = self.aggregates.setdefault(name, [0, 0, 0.0, 0])
        clock = self.clock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            if cell[3]:
                # Nested in a timed call: its seconds are already being
                # taken, so it joins the sample instead of a second clock.
                cell[1] += 1
                return fn(*args, **kwargs)
            if (cell[0] & SAMPLE_PERIOD_MASK) >= SAMPLE_WINDOW:
                return fn(*args, **kwargs)
            cell[1] += 1
            cell[3] = 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[2] += clock() - started
                cell[3] = 0

        return counted

    def aggregate_seconds(self, name: str) -> float:
        """Timed seconds scaled from the sampled calls to all calls."""
        calls, timed, seconds, _ = self.aggregates[name]
        return seconds * calls / timed if timed else 0.0

    # -- patching -----------------------------------------------------
    def patch(self, module: str, attribute: str, name: str, kind: str) -> bool:
        """Wrap ``module.attribute``; False (and noted) if unresolvable."""
        try:
            owner: Any = importlib.import_module(module)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        except (ImportError, AttributeError, KeyError):
            self._note_missing(f"{module}.{attribute}", name)
            return False
        wrap = self.span if kind == SPAN else self.aggregate
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(wrap(name, raw.__func__))
        else:
            wrapped = wrap(name, raw)
        self._undo.append((owner, leaf, raw))
        setattr(owner, leaf, wrapped)
        return True

    def _note_missing(self, point: str, name: str) -> None:
        self.missing.append(point)
        if name not in self.broken:
            self.broken.append(name)

    def install(self) -> None:
        """Patch every point this module knows about."""
        for module, attribute, name, kind in PATCH_POINTS:
            self.patch(module, attribute, name, kind)
        self._patch_store()
        self._patch_registry()

    def _patch_store(self) -> None:
        module, cls_name = STORE_CLASS
        try:
            cls = getattr(importlib.import_module(module), cls_name)
        except (ImportError, AttributeError):
            self._note_missing(f"{module}.{cls_name}", "store.")
            return
        for leaf, raw in list(vars(cls).items()):
            if not leaf.startswith("_") and callable(raw):
                self.patch(module, f"{cls_name}.{leaf}", f"store.{leaf}", SPAN)

    def _patch_registry(self) -> None:
        module, leaf = REGISTRY_POINT
        try:
            owner = importlib.import_module(module)
            registry = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self._note_missing(f"{module}.{leaf}", "experiments.")
            return

        def traced_registry():
            return {
                key: self.span(f"experiments.{key}", fn)
                for key, fn in registry().items()
            }

        self._undo.append((owner, leaf, registry))
        setattr(owner, leaf, traced_registry)

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, raw = self._undo.pop()
            setattr(owner, leaf, raw)

    # -- reading ------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per record name: calls, total and self seconds; spans also
        carry the median, 99th-percentile and longest single duration."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        durations: Dict[str, List[float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
            durations.setdefault(name, []).append(end - start)
        for name, values in durations.items():
            values.sort()
            out[name]["p50_s"] = nearest_rank(values, 0.50)
            out[name]["p99_s"] = nearest_rank(values, 0.99)
            out[name]["max_s"] = values[-1]
        for name, cell in self.aggregates.items():
            seconds = self.aggregate_seconds(name)
            out[name] = {"calls": cell[0], "total_s": seconds, "self_s": seconds}
        return out

    def write(self, path: str, header: Optional[Dict[str, Any]] = None) -> None:
        """The raw spans (and aggregates) as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "header": header or {},
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "aggregates": {
                        name: {
                            "calls": cell[0],
                            "timed_calls": cell[1],
                            "timed_seconds": cell[2],
                            "seconds": self.aggregate_seconds(name),
                        }
                        for name, cell in self.aggregates.items()
                    },
                    "missing": self.missing,
                    "broken": self.broken,
                },
                fh,
            )
            fh.write("\n")
