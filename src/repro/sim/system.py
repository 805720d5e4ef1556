"""The System: wiring and the run loop.

A :class:`System` assembles processes (stacks of components), a
network, a scheduler, a failure pattern (given explicitly or sampled
from an environment) and a failure detector (an oracle history, a
component-implemented detector, or none), then runs the step loop:

    at each tick t = 1, 2, ...:
        the scheduler picks an alive process p,
        the network picks a ready message m for p (or λ),
        p executes the atomic step ⟨p, m, d⟩, reading its detector
        module for d if and when its protocol asks,
        the trace records the tick — and samples d itself only when it
        retains samples (``trace_mode="full"``).

Use :class:`SystemBuilder` for ergonomic construction::

    trace = (
        SystemBuilder(n=5, seed=7)
        .environment(FCrashEnvironment(5, 4))
        .detector(omega_sigma_oracle())
        .component("consensus", lambda pid: OmegaSigmaConsensus(proposal=pid % 2))
        .build()
        .run(stop_when=decided("consensus"))
    )
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.detector import FailureDetector
from repro.core.environment import Environment
from repro.core.failure_pattern import FailurePattern
from repro.core.history import FailureDetectorHistory
from repro.sim.network import DelayModel, DeliveryPolicy, Network
from repro.sim.perf import PerfCounters
from repro.sim.process import Component, ProcessContext, ProcessHost
from repro.sim.rng import RngStreams
from repro.sim.scheduler import RandomScheduler, Scheduler
from repro.sim.trace import RunTrace

ComponentFactory = Callable[[int], Component]
StopPredicate = Callable[["System"], bool]


class System:
    """One fully-wired simulated system; :meth:`run` executes it."""

    def __init__(
        self,
        n: int,
        seed: int,
        horizon: int,
        pattern: FailurePattern,
        component_factories: Sequence[Tuple[str, ComponentFactory]],
        detector: Optional[FailureDetector] = None,
        detector_component: Optional[str] = None,
        scheduler: Optional[Scheduler] = None,
        delay_model: Optional[DelayModel] = None,
        delivery_policy: Optional[DeliveryPolicy] = None,
        trace_mode: str = "full",
        time_leap: bool = False,
    ):
        if pattern.n != n:
            raise ValueError(f"pattern over {pattern.n} processes, system over {n}")
        if detector is not None and detector_component is not None:
            raise ValueError(
                "give either an oracle detector or a detector component, not both"
            )
        self.n = n
        self.horizon = horizon
        self.pattern = pattern
        self.streams = RngStreams(seed)
        self.perf = PerfCounters()
        self.trace = RunTrace(pattern, horizon, mode=trace_mode)
        self.trace.perf = self.perf
        self.network = Network(
            n,
            self.streams.get("network"),
            delay_model=delay_model,
            delivery_policy=delivery_policy,
            perf=self.perf,
        )
        self.scheduler = scheduler or RandomScheduler()
        self.time_leap = time_leap
        self.detector_history: Optional[FailureDetectorHistory] = None
        if detector is not None:
            self.detector_history = detector.build_history(
                pattern, horizon + 1, self.streams.get("detector")
            )
            self.detector_history.perf = self.perf
        self._detector_component = detector_component
        self._component_factories = list(component_factories)

        self.hosts: List[ProcessHost] = [
            self._build_host(pid) for pid in range(n)
        ]
        self.now = 0

    def _build_host(self, pid: int) -> ProcessHost:
        ctx = ProcessContext(pid, self.n, self.network, self.trace)
        components = []
        for name, factory in self._component_factories:
            comp = factory(pid)
            comp.name = name
            components.append(comp)
        host = ProcessHost(pid, ctx, components)
        self._wire_detector(host)
        return host

    def rebuild_host(self, pid: int) -> ProcessHost:
        """A new, unstarted host for process ``pid``.

        New context, new components, no steps taken — the first half of
        bringing one process back to an earlier state (the second is
        :meth:`ProcessHost.replay`).  It is returned, not installed in
        :attr:`hosts`: the explorer keeps its own stand-in there.
        Whatever the caller had installed on the old context from
        outside (hooks, a detector provider) is the caller's to install
        again.
        """
        return self._build_host(pid)

    @classmethod
    def from_spec(cls, spec) -> "System":
        """Build a system from a :class:`repro.runner.spec.RunSpec`.

        Duck-typed (anything exposing the same ``resolve_*`` surface
        works) so the sim layer never imports the runner package.

        The buffer is whatever :class:`System` constructs — the
        production :class:`~repro.sim.network.Network`, or the oracle a
        test swapped in with :func:`network_implementation`.
        """
        return cls(
            n=spec.n,
            seed=spec.seed,
            horizon=spec.horizon,
            pattern=spec.resolve_pattern(),
            component_factories=spec.resolve_components(),
            detector=spec.resolve_detector(),
            detector_component=spec.detector_component,
            scheduler=spec.resolve_scheduler(),
            delay_model=spec.resolve_delay_model(),
            delivery_policy=spec.resolve_delivery_policy(),
            trace_mode=spec.trace_mode,
            time_leap=getattr(spec, "time_leap", False),
        )

    def _wire_detector(self, host: ProcessHost) -> None:
        if self.detector_history is not None:
            history = self.detector_history
            ctx = host.ctx
            ctx._detector_provider = lambda: history.value(ctx.pid, ctx.now)
        elif self._detector_component is not None:
            comp = host.component(self._detector_component)
            output = getattr(comp, "output", None)
            if not callable(output):
                raise TypeError(
                    f"detector component {self._detector_component!r} must "
                    f"expose an output() method"
                )
            host.ctx._detector_provider = output

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run(
        self,
        stop_when: Optional[StopPredicate] = None,
        grace: int = 0,
        start: int = 1,
    ) -> RunTrace:
        """Run until the horizon, or ``grace`` steps past ``stop_when``.

        ``grace`` keeps the system running after the stop predicate
        first holds — needed when eventual detector properties or
        background extraction tasks should be observed past the
        "foreground" algorithm's completion.

        ``start`` resumes a system whose ticks ``< start`` have already
        been executed (an earlier ``run`` halted by its scheduler at
        ``start``, or an explorer rewind to it): the loop begins at
        that tick with the crash schedule caught up, and the trace
        continues as if never interrupted.  The stop predicate must not
        have held before ``start``.

        With ``time_leap=True`` the loop may *synthesize* stretches of
        λ-steps instead of executing them: whenever every alive process
        is quiescent (see :attr:`Component.quiescent`) and no buffered
        message is deliverable, every tick until the next event —
        earliest ``ready_at``, next crash, the grace deadline, the
        horizon — is provably a λ-step of whichever process the
        scheduler picks, so the loop records those steps (scheduler
        state, rng stream, digest bytes all exact; detector samples
        too, taken like any tick's only by a trace that retains them)
        without running the per-tick machinery.  The leap is forced off
        under unfair schedulers or delivery policies, and requires
        ``stop_when`` predicates to be state-based (decisions,
        operations, component state — not raw step counts), which every
        predicate in this repo is.
        """
        rng_sched = self.streams.get("scheduler")
        stop_at: Optional[int] = None
        # The alive list is maintained incrementally from the pattern's
        # sorted crash schedule: O(total crashes) over the whole run
        # instead of n membership tests per tick.  Removal preserves the
        # ascending pid order the schedulers rely on.
        events = self.pattern.crash_events()
        next_event = 0
        alive = [p for p in range(self.n) if not self.pattern.crashed(p, 0)]
        trace = self.trace
        network = self.network
        scheduler = self.scheduler
        perf = self.perf
        leap_enabled = (
            self.time_leap and scheduler.fair and network.delivery_policy.fair
        )
        completed = True
        t = start
        while t <= self.horizon:
            self.now = t
            while next_event < len(events) and events[next_event][0] <= t:
                crashed_pid = events[next_event][1]
                if crashed_pid in alive:
                    alive.remove(crashed_pid)
                next_event += 1
            if not alive:
                trace.stop_reason = "all-crashed"
                completed = False
                break
            pid = scheduler.pick(alive, t, rng_sched)
            if pid is None:
                trace.stop_reason = "scheduler-halt"
                completed = False
                break
            host = self.hosts[pid]
            message = network.pick_for(pid, t)
            delivered = host.take_step(t, message)
            perf.ticks += 1
            if delivered is None:
                perf.lambda_steps += 1
            trace.record_step(t, pid, delivered, host.ctx.detector)
            if stop_when is not None and stop_at is None and stop_when(self):
                stop_at = t
            if stop_at is not None and t >= stop_at + grace:
                trace.stop_reason = "stop-condition"
                completed = False
                break
            if leap_enabled and t < self.horizon:
                leaped = self._try_leap(
                    t, alive, events, next_event, stop_at, grace, rng_sched
                )
                if leaped is not None:
                    t = leaped
            t += 1
        if completed:
            trace.stop_reason = (
                "stop-condition" if stop_at is not None else "horizon"
            )
        trace.messages_sent = network.sent_count
        trace.messages_delivered = network.delivered_count
        trace.final_time = self.now
        return trace

    def _try_leap(
        self,
        t: int,
        alive: List[int],
        events: Sequence[Tuple[int, int]],
        next_event: int,
        stop_at: Optional[int],
        grace: int,
        rng_sched,
    ) -> Optional[int]:
        """Synthesize the λ-only window after tick ``t``; returns its end.

        Returns the last synthesized tick (the caller resumes the
        normal loop at the following one), or None when no tick can be
        skipped.  Preconditions checked here: every alive process
        quiescent, no deliverable message before the window's end.  The
        window is cut just before the next crash event (``alive``
        changes there) and before the grace deadline (that tick must
        run the normal stop check).
        """
        for pid in alive:
            if not self.hosts[pid].quiescent:
                return None
        end = self.horizon
        if next_event < len(events):
            end = min(end, events[next_event][0] - 1)
        if stop_at is not None:
            end = min(end, stop_at + grace - 1)
        next_ready = self.network.next_ready_time(alive, t)
        if next_ready is not None:
            if next_ready <= t:
                return None
            end = min(end, next_ready - 1)
        if end <= t:
            return None
        trace = self.trace
        hosts = self.hosts
        for tt in range(t + 1, end + 1):
            self.now = tt
            pid = self.scheduler.pick(alive, tt, rng_sched)
            if pid is None:
                # The leap is gated on scheduler.fair, and fair
                # schedulers never halt; resuming the normal loop here
                # would replay the pick and fork the rng stream.
                raise RuntimeError(
                    f"scheduler {type(self.scheduler).__name__} claims "
                    f"fair=True but halted at t={tt} during a time-leap"
                )
            host = hosts[pid]
            ctx = host.ctx
            ctx.now = tt
            host.steps_taken += 1
            trace.record_step(tt, pid, None, ctx.detector)
        skipped = end - t
        perf = self.perf
        perf.ticks += skipped
        perf.lambda_steps += skipped
        perf.ticks_leaped += skipped
        perf.leap_windows += 1
        return end

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def component_at(self, pid: int, name: str) -> Component:
        return self.hosts[pid].component(name)

    def components_named(self, name: str) -> List[Component]:
        return [host.component(name) for host in self.hosts]


class SystemBuilder:
    """Fluent construction of a :class:`System`."""

    def __init__(self, n: int, seed: int = 0, horizon: int = 20_000):
        self._n = n
        self._seed = seed
        self._horizon = horizon
        self._pattern: Optional[FailurePattern] = None
        self._environment: Optional[Environment] = None
        self._crash_window: Optional[int] = None
        self._detector: Optional[FailureDetector] = None
        self._detector_component: Optional[str] = None
        self._scheduler: Optional[Scheduler] = None
        self._delay_model: Optional[DelayModel] = None
        self._delivery_policy: Optional[DeliveryPolicy] = None
        self._factories: List[Tuple[str, ComponentFactory]] = []
        self._trace_mode: str = "full"
        self._time_leap: bool = False

    def pattern(self, pattern: FailurePattern) -> "SystemBuilder":
        self._pattern = pattern
        return self

    def environment(
        self, env: Environment, crash_window: Optional[int] = None
    ) -> "SystemBuilder":
        """Sample the failure pattern from ``env``.

        ``crash_window`` bounds crash times (default: a third of the
        horizon, so that eventual properties stabilise well inside the
        observation window).
        """
        self._environment = env
        self._crash_window = crash_window
        return self

    def detector(self, detector: FailureDetector) -> "SystemBuilder":
        self._detector = detector
        return self

    def detector_from_component(self, component_name: str) -> "SystemBuilder":
        """Use a component's ``output()`` as the detector module (ex nihilo)."""
        self._detector_component = component_name
        return self

    def scheduler(self, scheduler: Scheduler) -> "SystemBuilder":
        self._scheduler = scheduler
        return self

    def delays(self, model: DelayModel) -> "SystemBuilder":
        self._delay_model = model
        return self

    def delivery(self, policy: DeliveryPolicy) -> "SystemBuilder":
        self._delivery_policy = policy
        return self

    def component(self, name: str, factory: ComponentFactory) -> "SystemBuilder":
        self._factories.append((name, factory))
        return self

    def trace_mode(self, mode: str) -> "SystemBuilder":
        """``"full"`` (default) or ``"lite"`` — see :class:`RunTrace`."""
        self._trace_mode = mode
        return self

    def time_leap(self, enabled: bool = True) -> "SystemBuilder":
        """Opt in to the quiescence time-leap (see :meth:`System.run`)."""
        self._time_leap = enabled
        return self

    def build(self) -> System:
        if self._pattern is not None:
            pattern = self._pattern
        elif self._environment is not None:
            window = self._crash_window or max(1, self._horizon // 3)
            rng = RngStreams(self._seed).get("failure-pattern")
            pattern = self._environment.sample(rng, window)
        else:
            pattern = FailurePattern.crash_free(self._n)
        if not self._factories:
            raise ValueError("a system needs at least one component")
        return System(
            n=self._n,
            seed=self._seed,
            horizon=self._horizon,
            pattern=pattern,
            component_factories=self._factories,
            detector=self._detector,
            detector_component=self._detector_component,
            scheduler=self._scheduler,
            delay_model=self._delay_model,
            delivery_policy=self._delivery_policy,
            trace_mode=self._trace_mode,
            time_leap=self._time_leap,
        )


@contextmanager
def network_implementation(impl):
    """Temporarily swap the buffer engine :class:`System` constructs.

    ``System.__init__`` resolves ``Network`` from this module's globals
    at call time, so rebinding it here redirects every system built
    inside the ``with`` block — how the golden determinism suite runs
    identical specs on
    :class:`~repro.sim.network.ReferenceNetwork` vs the indexed engine.
    """
    global Network
    previous = Network
    Network = impl
    try:
        yield
    finally:
        Network = previous


def decided(component: str) -> StopPredicate:
    """Stop predicate: every correct process decided in ``component``."""

    def predicate(system: System) -> bool:
        return system.trace.all_correct_decided(component)

    return predicate


def all_operations_done(component: str, expected: int) -> StopPredicate:
    """Stop predicate: ``expected`` operations of ``component`` completed."""

    def predicate(system: System) -> bool:
        return len(system.trace.completed_operations(component)) >= expected

    return predicate
