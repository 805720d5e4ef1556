"""Declarative run specifications.

A :class:`RunSpec` is a picklable, content-hashable description that
*fully determines* one simulated run: the system shape (n, seed,
horizon), the failure pattern or the environment it is sampled from,
the detector, the adversary knobs (scheduler, delays, delivery), the
component stack, the stop condition, and how to boil the finished run
down to a :class:`~repro.runner.summary.RunSummary`.  Executing the
same spec twice — in this process, in a worker pool, or in a different
interpreter session — produces byte-identical summaries, which is what
makes the on-disk cache sound.

:class:`FnSpec` is the escape hatch for campaign cells that are not
simulator runs (e.g. E13's pointwise history reductions): an arbitrary
importable function call whose picklable return value is cached and
ordered exactly like a run summary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.environment import Environment
from repro.core.failure_pattern import FailurePattern
from repro.runner.callspec import CallSpec, maybe_resolve
from repro.runner.fingerprint import fingerprint

#: Bump when run semantics change in a way that should invalidate every
#: cached result regardless of source-hash salting.
#: 2: RunSpec grew ``time_leap``; RunSummary grew ``perf``.
#: 3: RunSpec grew ``engine`` (buffer-engine pin; None = ambient).
#: 4: ``engine`` removed again — the network is not a property of a spec.
SPEC_FORMAT = 4


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reconstruct and execute one run.

    ``components`` is a tuple of ``(name, CallSpec)``; each CallSpec
    resolves to a per-pid component factory (``factory(pid) ->
    Component``).  ``scheduler``, ``delivery_policy`` and ``stop`` must
    be CallSpecs (schedulers and policies are stateful, so each run gets
    a fresh one); ``detector`` and ``delay_model`` may be CallSpecs or
    plain stateless config objects.  ``summarize`` resolves to a
    ``(system, trace) -> dict`` hook executed in the worker while the
    full system is still in scope — its (picklable) dict lands in
    ``RunSummary.metrics``.
    """

    n: int
    seed: int
    horizon: int
    pattern: Optional[FailurePattern] = None
    environment: Optional[Environment] = None
    crash_window: Optional[int] = None
    detector: Optional[Any] = None
    detector_component: Optional[str] = None
    scheduler: Optional[CallSpec] = None
    delay_model: Optional[Any] = None
    delivery_policy: Optional[CallSpec] = None
    components: Tuple[Tuple[str, CallSpec], ...] = ()
    stop: Optional[CallSpec] = None
    grace: int = 0
    trace_mode: str = "lite"
    #: Opt-in quiescence time-leap (see :meth:`repro.sim.system.System.run`);
    #: trace-neutral, so two specs differing only here produce equal
    #: stable digests — but distinct fingerprints/cache keys.
    time_leap: bool = False
    summarize: Optional[CallSpec] = None
    #: Free-form labels echoed into the summary (axis coordinates,
    #: row keys); part of the fingerprint so distinct cells never
    #: collide in the cache.
    tags: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.pattern is not None and self.environment is not None:
            raise ValueError("give either a pattern or an environment, not both")
        if self.trace_mode not in ("full", "lite"):
            raise ValueError(f"unknown trace_mode {self.trace_mode!r}")
        for name, slot in (
            ("scheduler", self.scheduler),
            ("delivery_policy", self.delivery_policy),
            ("stop", self.stop),
            ("summarize", self.summarize),
        ):
            if slot is not None and not isinstance(slot, CallSpec):
                raise TypeError(
                    f"{name} must be a CallSpec (repro.runner.call/ref), "
                    f"got {slot!r}"
                )
        for name, spec in self.components:
            if not isinstance(spec, CallSpec):
                raise TypeError(
                    f"component {name!r} must be given as a CallSpec, "
                    f"got {spec!r}"
                )

    # -- sweeping ------------------------------------------------------
    def with_(self, **changes: Any) -> "RunSpec":
        """A copy with ``changes`` applied (dataclasses.replace)."""
        return replace(self, **changes)

    def tagged(self, **tags: Any) -> "RunSpec":
        """A copy with ``tags`` merged into the existing tags."""
        merged = dict(self.tags)
        merged.update(tags)
        return replace(self, tags=tuple(sorted(merged.items())))

    @property
    def tag_dict(self) -> Dict[str, Any]:
        return dict(self.tags)

    # -- identity ------------------------------------------------------
    def fingerprint(self) -> str:
        return fingerprint(self, salt=f"runspec:{SPEC_FORMAT}")

    # -- resolution (worker side) --------------------------------------
    def resolve_pattern(self) -> FailurePattern:
        """The concrete failure pattern, mirroring SystemBuilder.build."""
        if self.pattern is not None:
            return self.pattern
        if self.environment is not None:
            from repro.sim.rng import RngStreams

            window = self.crash_window or max(1, self.horizon // 3)
            rng = RngStreams(self.seed).get("failure-pattern")
            return self.environment.sample(rng, window)
        return FailurePattern.crash_free(self.n)

    def resolve_components(self):
        return tuple(
            (name, spec.resolve()) for name, spec in self.components
        )

    def resolve_detector(self):
        return maybe_resolve(self.detector)

    def resolve_scheduler(self):
        return maybe_resolve(self.scheduler)

    def resolve_delay_model(self):
        return maybe_resolve(self.delay_model)

    def resolve_delivery_policy(self):
        return maybe_resolve(self.delivery_policy)

    def resolve_stop(self):
        return maybe_resolve(self.stop)

    # -- execution -----------------------------------------------------
    def execute(self) -> "RunSummary":
        """Build the system, run it, summarize — all in this process."""
        from repro.runner.summary import RunSummary
        from repro.sim.system import System

        started = time.perf_counter()
        system = System.from_spec(self)
        trace = system.run(stop_when=self.resolve_stop(), grace=self.grace)
        metrics: Dict[str, Any] = {}
        if self.summarize is not None:
            hook = self.summarize.resolve()
            metrics = hook(system, trace)
            if not isinstance(metrics, Mapping):
                raise TypeError(
                    f"summarize hook {self.summarize!r} must return a "
                    f"mapping, got {type(metrics).__name__}"
                )
        return RunSummary.from_run(
            self,
            trace,
            metrics=dict(metrics),
            wall_clock=time.perf_counter() - started,
        )


def run_spec(**kwargs: Any) -> RunSpec:
    """Keyword constructor that accepts ``components``/``tags`` as
    mappings or sequences and normalises them to tuples."""
    components = kwargs.pop("components", ())
    if isinstance(components, Mapping):
        components = tuple(components.items())
    else:
        components = tuple(tuple(pair) for pair in components)
    tags = kwargs.pop("tags", ())
    if isinstance(tags, Mapping):
        tags = tuple(sorted(tags.items()))
    return RunSpec(components=components, tags=tuple(tags), **kwargs)


@dataclass(frozen=True)
class FnSpec:
    """A non-simulation campaign cell: one importable function call.

    ``fn`` resolves (with its stored arguments) to the cell's picklable
    result, wrapped in a :class:`~repro.runner.summary.FnSummary`.
    """

    fn: CallSpec
    tags: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.fn, CallSpec):
            raise TypeError(f"fn must be a CallSpec, got {self.fn!r}")

    @property
    def tag_dict(self) -> Dict[str, Any]:
        return dict(self.tags)

    def fingerprint(self) -> str:
        return fingerprint(self, salt=f"fnspec:{SPEC_FORMAT}")

    def execute(self) -> "FnSummary":
        from repro.runner.summary import FnSummary

        started = time.perf_counter()
        value = self.fn.resolve()
        return FnSummary(
            key=self.fingerprint(),
            tags=self.tag_dict,
            value=value,
            wall_clock=time.perf_counter() - started,
        )


def fn_spec(fn: CallSpec, **tags: Any) -> FnSpec:
    return FnSpec(fn=fn, tags=tuple(sorted(tags.items())))
