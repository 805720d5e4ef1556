"""Process runtime: components, tasklets, and step semantics.

A simulated process is a stack of :class:`Component` instances — an
algorithm layer, optionally a detector-implementation layer, optionally
instrumentation middleware.  A process step (the paper's atomic
⟨p, m, d⟩) proceeds as:

1. the incoming message (if any) is dispatched to the component whose
   name matches its routing tag;
2. every component's :meth:`Component.on_step` hook runs (periodic
   logic — heartbeats, retries);
3. runnable *tasklets* are resumed.

Tasklets let multi-phase algorithms (ABD's read/write rounds, Paxos
ballots, the Figure 1 and Figure 3 extractions) be written as ordinary
sequential generators instead of exploded state machines::

    def run(self):
        acks = self.fresh_set()
        self.broadcast(("WRITE", ts, v))
        yield WaitUntil(lambda: self.quorum_ack(acks))
        ...

Everything a tasklet does while resumed — sending, reading the
detector, completing operations — happens inside the atomic step that
resumed it, which preserves the model's step granularity.
"""

from __future__ import annotations

from abc import ABC

from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.sim.network import Message, Network
from repro.sim.trace import (
    Decision,
    DeliveredMessage,
    OperationRecord,
    RunTrace,
    Step,
)


from repro.sim.tasklets import TaskletDriver, WaitSteps, WaitUntil


class ProcessContext:
    """Per-process services handed to components by the host system.

    Provides message sending, detector access, decision/operation
    recording, and the local clock.  All sends are routed through the
    shared :class:`~repro.sim.network.Network` and stamped with the
    current time.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        network: Network,
        trace: RunTrace,
    ):
        self.pid = pid
        self.n = n
        self._network = network
        self._trace = trace
        self.now: int = 0
        self._detector_provider: Callable[[], Any] = lambda: None
        self._outgoing_hooks: List[Callable[[Message], None]] = []
        self._incoming_hooks: List[Callable[[DeliveredMessage, Dict[str, Any]], None]] = []
        self.crashed = False
        #: None while the process runs live.  During
        #: :meth:`ProcessHost.replay` the context is *muted*: this holds
        #: the process's own operation records, handed back in
        #: invocation order instead of new ones being opened, and sends
        #: and decisions — already part of the run's past — go nowhere.
        self._replayed_ops: Optional[Iterator[OperationRecord]] = None

    # -- communication --------------------------------------------------
    def send(self, dest: int, component: str, payload: Any) -> None:
        """Send ``payload`` to ``dest``'s component named ``component``."""
        if self._replayed_ops is not None:
            return
        msg = self._network.send(self.pid, dest, component, payload, self.now)
        for hook in self._outgoing_hooks:
            hook(msg)

    def broadcast(self, component: str, payload: Any, include_self: bool = True) -> None:
        """Send ``payload`` to every process (optionally including self)."""
        for dest in range(self.n):
            if dest == self.pid and not include_self:
                continue
            self.send(dest, component, payload)

    # -- failure detector ------------------------------------------------
    def detector(self) -> Any:
        """The failure detector value ``d`` for the current step."""
        return self._detector_provider()

    # -- recording --------------------------------------------------------
    def decide(self, component: str, value: Any) -> None:
        """Record an irrevocable decision by ``component``."""
        if self._replayed_ops is not None:
            return
        self._trace.record_decision(
            Decision(time=self.now, pid=self.pid, component=component, value=value)
        )

    def new_operation(
        self, component: str, kind: str, args: Tuple[Any, ...] = ()
    ) -> OperationRecord:
        """Open an invocation/response interval record."""
        if self._replayed_ops is not None:
            record = next(self._replayed_ops, None)
            if (
                record is None
                or (record.component, record.kind, record.invoke_time)
                != (component, kind, self.now)
            ):
                raise RuntimeError(
                    f"replay of process {self.pid} diverged: {kind} on "
                    f"{component!r} at t={self.now} is not the recorded "
                    f"operation {record!r}"
                )
            record.response_time = None
            record.result = None
            return record
        return self._trace.new_operation(self.pid, component, kind, args, self.now)

    def complete_operation(self, record: OperationRecord, result: Any) -> None:
        """Close an operation record with its result."""
        if not record.pending:
            raise RuntimeError(f"operation {record.op_id} completed twice")
        record.response_time = self.now
        record.result = result

    def annotation_history(self, key: str) -> "SampledHistory":
        """A shared per-run :class:`SampledHistory` stored under
        ``trace.annotations[key]`` — how emulated detectors (Figures 1
        and 3) expose their output streams to the spec checkers."""
        from repro.core.history import SampledHistory

        hist = self._trace.annotations.get(key)
        if hist is None:
            hist = SampledHistory(self.n)
            self._trace.annotations[key] = hist
        return hist

    # -- middleware hooks --------------------------------------------------
    def add_outgoing_hook(self, hook: Callable[[Message], None]) -> None:
        self._outgoing_hooks.append(hook)

    def add_incoming_hook(
        self, hook: Callable[[DeliveredMessage, Dict[str, Any]], None]
    ) -> None:
        self._incoming_hooks.append(hook)


class Component(ABC):
    """One layer of a process: message handlers plus periodic logic.

    Subclasses set :attr:`name` (the routing tag for their messages) and
    override :meth:`on_message` / :meth:`on_step` / :meth:`on_start`.
    Helper methods (:meth:`send`, :meth:`broadcast`, :meth:`spawn`, ...)
    become available once the component is bound to its host.
    """

    name: str = "component"

    def __init__(self) -> None:
        self.ctx: ProcessContext = None  # type: ignore[assignment]
        self._host: "ProcessHost" = None  # type: ignore[assignment]

    # -- lifecycle (override as needed) -----------------------------------
    def on_start(self) -> None:
        """Called once before the first step of the process."""

    def on_message(self, sender: int, payload: Any, meta: Dict[str, Any]) -> None:
        """Handle a message routed to this component."""

    def on_step(self) -> None:
        """Called at every step of the process (after message dispatch)."""

    # -- services ----------------------------------------------------------
    @property
    def pid(self) -> int:
        return self.ctx.pid

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def now(self) -> int:
        return self.ctx.now

    def send(self, dest: int, payload: Any) -> None:
        self.ctx.send(dest, self.name, payload)

    def broadcast(self, payload: Any, include_self: bool = True) -> None:
        self.ctx.broadcast(self.name, payload, include_self=include_self)

    def detector(self) -> Any:
        return self.ctx.detector()

    def decide(self, value: Any) -> None:
        self.ctx.decide(self.name, value)

    def spawn(self, gen: Generator, name: str = "") -> None:
        """Register a tasklet generator to be driven by this process."""
        self._host.spawn(gen, name or f"{self.name}@{self.pid}")

    def _bind(self, ctx: ProcessContext, host: "ProcessHost") -> None:
        self.ctx = ctx
        self._host = host


class ProcessHost:
    """Runs one process: owns its components, tasklets and step loop."""

    def __init__(self, pid: int, ctx: ProcessContext, components: Iterable[Component]):
        self.pid = pid
        self.ctx = ctx
        self.components: Dict[str, Component] = {}
        for comp in components:
            if comp.name in self.components:
                raise ValueError(
                    f"duplicate component name {comp.name!r} at process {pid}"
                )
            comp._bind(ctx, self)
            self.components[comp.name] = comp
        self._driver = TaskletDriver()
        self._started = False
        #: The components whose ``on_step`` is not the base no-op,
        #: fixed at the first step (after ``on_start``).
        self._stepping: List[Component] = []
        self.steps_taken = 0

    def spawn(self, gen: Generator, name: str = "") -> None:
        self._driver.spawn(gen, name)

    def component(self, name: str) -> Component:
        return self.components[name]

    # ------------------------------------------------------------------
    # The atomic step ⟨p, m, d⟩
    # ------------------------------------------------------------------
    def take_step(self, now: int, message: Optional[Message]) -> Optional[DeliveredMessage]:
        """Execute one atomic step; returns the delivered-message record."""
        ctx = self.ctx
        ctx.now = now
        if not self._started:
            self._started = True
            for comp in list(self.components.values()):
                comp.on_start()
            # Tasklets spawned in on_start get a first advance below.
            # Calling the base class's no-op ``on_step`` does nothing,
            # so only overrides — on the class or set on the instance —
            # are called, in component order.
            self._stepping = [
                comp
                for comp in self.components.values()
                if "on_step" in vars(comp)
                or type(comp).on_step is not Component.on_step
            ]

        delivered: Optional[DeliveredMessage] = None
        if message is not None:
            delivered = DeliveredMessage(
                message.msg_id,
                message.sender,
                message.component,
                message.payload,
                message.send_time,
            )
            for hook in ctx._incoming_hooks:
                hook(delivered, message.meta)
            comp = self.components.get(message.component)
            if comp is None:
                raise RuntimeError(
                    f"process {self.pid} has no component {message.component!r} "
                    f"for message {message.payload!r}"
                )
            comp.on_message(message.sender, message.payload, message.meta)

        for comp in self._stepping:
            comp.on_step()

        self._driver.advance()
        self.steps_taken += 1
        return delivered

    def replay(
        self,
        steps: Iterable[Tuple[int, Optional[Message], Any]],
        operations: Iterable[OperationRecord] = (),
    ) -> None:
        """Bring a freshly built host to a past state of its process.

        In the paper's model a process is an automaton whose state is a
        function of its own sequence of steps ⟨p, m, d⟩ and of nothing
        else, so re-feeding a new host the ``(time, message, detector
        value)`` triples its predecessor took reproduces the
        predecessor's state exactly — generator frames included, which
        no snapshot could copy.  The steps run against a muted context:
        what they send and decide already happened (the network and the
        trace hold it) and is not emitted again, ``ctx.detector()``
        answers the step's recorded ``d``, and ``new_operation`` hands
        back ``operations`` — this process's existing records, in
        invocation order — reset to pending, so host and trace keep
        sharing one record per operation.  Incoming hooks do run: they
        feed component state.

        The messages must be the :class:`Message` objects originally
        delivered (payload and ``meta`` untouched since); a component
        that mutates a received payload in place breaks this, exactly
        as it would break the sender's copy on a real network.
        """
        ctx = self.ctx
        provider = ctx._detector_provider
        ctx._replayed_ops = iter(operations)
        try:
            for now, message, detector_value in steps:
                ctx._detector_provider = lambda d=detector_value: d
                self.take_step(now, message)
        finally:
            ctx._detector_provider = provider
            ctx._replayed_ops = None
