"""The choice controller: turning the sim's nondeterminism into a log.

The simulator exposes its per-tick nondeterminism at three points — the
scheduler's process pick, the network's delivery pick, and (for roots
whose assignment is a history *script*) the detector's stage advance.
Two further families are enumerated once per exploration root rather
than per step (detector assignments/scripts and crash schedules; see
:mod:`repro.explore.assignments` and :mod:`repro.explore.frontier`).

:class:`ChoiceController` replaces both per-tick picks with a *choice
log* replay: a prefix of option indices is consumed verbatim, and every
decision beyond the prefix takes option 0 while recording how many
options existed.  The DFS engine runs the system once per explored
path and pushes the untaken siblings of every recorded decision — the
stateless-model-checking loop; component state includes live generator
frames that cannot be snapshotted, so a state is only ever reached by
executing the steps that lead to it.

The controller keeps a *journal* of the run it drives: every message
sent (``sent``) and, per executed tick, a :class:`TickRecord` — who
stepped, which message was delivered, and the controller's own
position (choices logged, alternatives pruned, script cursors, messages
sent) at the start of that tick.  The POR context of each tick is read
from it, and it is what lets the engine *rewind* the live system to the
start of any earlier tick instead of rebuilding it
(:meth:`ChoiceController.rewind`, ``docs/EXPLORER.md`` § "The search").

The controller also implements the partial-order reduction's *enabled
set* filtering (see ``docs/EXPLORER.md`` for the soundness argument):
when the previous step was taken by process ``q``, a process ``p < q``
may only be scheduled to deliver a message *sent during* that step —
any other step of ``p`` commutes with ``q``'s, and the swapped schedule
(the class representative with the lexicographically smaller pid
sequence) is explored separately.

:class:`ExploringScheduler` and :class:`ExploringDelivery` are thin
adapters plugging the controller into the unmodified
:class:`~repro.sim.system.System` run loop via the existing
``Scheduler`` / ``DeliveryPolicy`` extension points — no engine fork.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.sim.network import DeliveryPolicy, Message
from repro.sim.scheduler import Scheduler
from repro.sim.trace import RunTrace


@dataclass(frozen=True, slots=True)
class ChoicePoint:
    """One recorded decision: what kind, what was taken, out of how many."""

    kind: str  # "sched", "deliv" or "detector"
    time: int
    chosen: int
    options: int


@dataclass(slots=True)
class TickRecord:
    """One executed tick in the controller's journal.

    The first five fields are the controller's position at the *start*
    of the tick (before its scheduler pick) — what a rewind to this
    tick restores; ``op_events`` is the trace's count of operation
    events (invocations plus responses) at that moment, against which
    the next tick tells whether this one invoked or completed an
    operation.  ``pid`` and ``delivered`` are what the tick then did —
    what a rewind past it re-feeds to a rebuilt host.
    ``delivered`` is the network's own :class:`Message` object (the
    trace's ``DeliveredMessage`` lacks ``dest`` and ``meta``).
    """

    log_len: int
    por_pruned: int
    sent: int
    cursors: Optional[Tuple[int, ...]]
    op_events: int
    pid: int
    delivered: Optional[Message] = None


class DetectorScript:
    """Per-process detector script cursors — the third choice dimension.

    One instance per controlled run (installed by
    :func:`~repro.explore.cases.build_system` when the case's assignment
    contains scripts).  ``values[p]`` holds process ``p``'s decoded
    stage values, ``gated[p][j]`` whether stage ``j`` claims a failure
    (see :func:`~repro.explore.assignments.stage_requires_crash`), and
    ``cursors[p]`` the stage ``p`` currently outputs.  The detector
    providers read ``value(p)`` live, so a cursor advance rebinds every
    subsequent read of that process.

    Advances happen through :meth:`ChoiceController.pick_pid`: right
    after the scheduler picks the acting process — and before its step,
    where all its detector reads occur — the controller asks
    :meth:`targets` for the admissible cursor positions at this tick
    and, when there is more than one, records a ``"detector"`` choice.
    Staying put is always option 0, so the default path is the
    constant-prefix behaviour and switches are explored as siblings.
    Skipping stages is allowed (a skipped stage's value window has
    length zero, so its admissibility side condition is moot); a
    crash-gated stage only becomes a target from the first crash tick
    onwards.  Crashed processes never advance (they are never picked),
    which is sound: a crashed process has no further detector reads.
    """

    __slots__ = ("values", "gated", "first_crash", "cursors")

    def __init__(
        self,
        values: Sequence[Tuple[Any, ...]],
        gated: Sequence[Tuple[bool, ...]],
        first_crash: Optional[int],
    ):
        self.values = tuple(values)
        self.gated = tuple(gated)
        self.first_crash = first_crash
        self.cursors: List[int] = [0] * len(self.values)

    def value(self, pid: int) -> Any:
        return self.values[pid][self.cursors[pid]]

    def targets(self, pid: int, now: int) -> List[int]:
        """Admissible cursor positions for ``pid`` at tick ``now``,
        current position first."""
        cursor = self.cursors[pid]
        stages = self.values[pid]
        gates = self.gated[pid]
        crashed = self.first_crash is not None and now >= self.first_crash
        return [cursor] + [
            j
            for j in range(cursor + 1, len(stages))
            if crashed or not gates[j]
        ]

    def advance(self, pid: int, cursor: int) -> None:
        self.cursors[pid] = cursor


class ChoiceController:
    """Replays a choice prefix, then takes defaults while recording.

    One controller drives one system along one path at a time.
    ``prefix`` is the path to replay; decisions past its end take index
    0.  After the run, :attr:`log` holds every decision made with its
    option count — the engine reads it to push sibling prefixes, then
    :meth:`rewind` aims the same controller at the next one.

    ``tick_hook`` (installed by the engine) runs at the start of every
    scheduler pick — i.e. right after the previous tick's atomic step
    completed, with that step's POR context (:attr:`prev_pid`,
    :attr:`fresh`, :attr:`boundary`) already installed — and is where
    state fingerprinting and dedup live.  Returning False halts the
    run: the scheduler then returns None and the run loop winds down
    cleanly as a ``scheduler-halt``.
    """

    def __init__(self, prefix: Sequence[int] = ()):
        self.prefix: Tuple[int, ...] = tuple(prefix)
        self.log: List[ChoicePoint] = []
        self.tick_hook: Optional[Callable[[int], bool]] = None
        #: Ticks at which the case's schedule crashes someone
        #: (installed by ``build_system``).
        self.crash_times: FrozenSet[int] = frozenset()
        #: The run's trace, whose operation records the POR boundary
        #: reads (installed by ``build_system``).
        self.trace: Optional[RunTrace] = None
        # The journal.  ``sent.append`` is every host's outgoing hook.
        self.sent: List[Message] = []
        self.ticks: List[TickRecord] = []
        # POR context for the upcoming tick (see :meth:`begin_tick`).
        self.prev_pid: Optional[int] = None
        self.fresh: List[Message] = []
        self.fresh_ids: Set[int] = set()
        #: Crash event at this tick, or an operation event in the last.
        self.boundary: bool = False
        self.por_enabled: bool = True
        self.por_pruned: int = 0
        self._deliver_fresh_only: bool = False
        #: Script cursors when the case's assignment is scripted
        #: (installed by ``build_system``); None for constant roots.
        self.scripts: Optional[DetectorScript] = None

    @property
    def replaying(self) -> bool:
        """Whether the next decision still comes from the prefix."""
        return len(self.log) < len(self.prefix)

    # -- the core decision primitive -----------------------------------
    def choose(self, kind: str, time: int, options: int) -> int:
        """Record one decision with ``options`` alternatives; return the
        option index this run takes."""
        if options < 1:
            raise ValueError(f"{kind} choice at t={time} with no options")
        position = len(self.log)
        if position < len(self.prefix):
            chosen = self.prefix[position]
            if not 0 <= chosen < options:
                raise ValueError(
                    f"replay mismatch: prefix[{position}]={chosen} but "
                    f"{kind} choice at t={time} has {options} options"
                )
        else:
            chosen = 0
        self.log.append(
            ChoicePoint(kind=kind, time=time, chosen=chosen, options=options)
        )
        return chosen

    # -- scheduler-side ------------------------------------------------
    def pick_pid(self, alive: Sequence[int], now: int) -> int:
        """The scheduler decision: which alive process steps at ``now``.

        With the POR on, processes with a pid below the previous step's
        actor are only eligible when they can consume a message that
        step just sent (a *dependent* continuation); their independent
        steps are pruned because the swapped interleaving reaches the
        same state and is explored under an earlier sibling.
        Boundaries disable the filter: at a crash event the alive set
        changed between the two steps, and after an operation event the
        swap would reorder what linearizability observes (see
        :meth:`begin_tick`), so the swap argument does not apply.  If
        the filter would empty the enabled set it is skipped entirely
        (exploring a redundant interleaving is sound; halting the run
        here would not be judged).

        The detector dimension preserves the swap argument: a process's
        advance menu depends only on its own cursor, the tick, and the
        crash schedule, and it only ever *changes* between adjacent
        ticks at the first crash tick (where a gated stage becomes
        admissible) — which is a crash boundary, exactly where the
        filter is already disabled.  Away from boundaries the swapped
        interleaving offers both processes identical detector menus, so
        every advance combination pruned here is reachable under the
        representative schedule; the soundness matrix verifies this on
        scripted roots.
        """
        scripts = self.scripts
        position = (  # the TickRecord's start-of-tick half
            len(self.log),
            self.por_pruned,
            len(self.sent),
            tuple(scripts.cursors) if scripts is not None else None,
            self.operation_events(),
        )
        restricted = False
        allowed = list(alive)
        prev = self.prev_pid
        if self.por_enabled and prev is not None and not self.boundary:
            fresh_dests = {m.dest for m in self.fresh}
            filtered = [
                pid for pid in alive if pid >= prev or pid in fresh_dests
            ]
            if filtered:
                restricted = True
                self.por_pruned += len(allowed) - len(filtered)
                allowed = filtered
        index = self.choose("sched", now, len(allowed))
        pid = allowed[index]
        self._deliver_fresh_only = (
            restricted and prev is not None and pid < prev
        )
        if scripts is not None:
            # The detector decision for the acting process: how far its
            # script cursor advances before the step (where all of its
            # detector reads happen).  Only recorded when there is a
            # real alternative — staying put is always admissible and
            # always option 0, so constant-prefix behaviour remains the
            # default path and the menu is deterministic in
            # (cursor, now, crash schedule) for replay.
            targets = scripts.targets(pid, now)
            if len(targets) > 1:
                chosen = self.choose("detector", now, len(targets))
                scripts.advance(pid, targets[chosen])
        self.ticks.append(TickRecord(*position, pid))
        return pid

    # -- delivery-side -------------------------------------------------
    def pick_message(
        self, ready: List[Message], now: int
    ) -> Optional[Message]:
        """The delivery decision: which ready message (or λ = None).

        Options are the ready list in ascending ``msg_id`` order — the
        order both network engines guarantee — with λ appended last, so
        the default (index 0) is the oldest message and progress is the
        first path explored.  Under the POR's fresh-only restriction
        the λ option and every stale message are pruned (both commute
        with the previous step).
        """
        if self._deliver_fresh_only:
            options = [m for m in ready if m.msg_id in self.fresh_ids]
            if options:
                self.por_pruned += len(ready) + 1 - len(options)
                index = self.choose("deliv", now, len(options))
                self.ticks[-1].delivered = options[index]
                return options[index]
            # The pid was admitted by the scheduler filter, so a fresh
            # message is buffered for it — but messages sent during the
            # previous tick only become ready one tick later, and here
            # the actor followed the sender after a gap.  Fall back to
            # the unrestricted menu (sound, merely redundant).
        index = self.choose("deliv", now, len(ready) + 1)
        if index == len(ready):
            return None  # λ-step chosen despite ready messages
        self.ticks[-1].delivered = ready[index]
        return ready[index]

    # -- the journal: POR context and rewind ---------------------------
    def operation_events(self) -> int:
        """Operation invocations plus responses the trace holds."""
        operations = self.trace.operations if self.trace is not None else ()
        if not operations:
            return 0
        return len(operations) + sum(
            1 for op in operations if op.response_time is not None
        )

    def begin_tick(self, now: int) -> None:
        """Install the previous step's POR context for tick ``now``.

        Read off the journal — the previous tick's actor, the messages
        sent since that tick began and the operation events it recorded
        — so it is the same whether the previous tick was just executed
        or the controller was just rewound to ``now``.

        Tick ``now`` is a boundary, where the filter is off, at a crash
        event and after a step that invoked or completed an operation.
        Linearizability reads the real-time order of those events, so
        swapping such a step with its neighbour is observable: "q
        completes, then p invokes" puts q's operation before p's, the
        swap makes them concurrent, and only the first order may be the
        one that is not linearizable.
        """
        if self.ticks:
            last = self.ticks[-1]
            self.prev_pid = last.pid
            self.fresh = self.sent[last.sent:]
            operation_step = self.operation_events() != last.op_events
        else:
            self.prev_pid = None
            self.fresh = []
            operation_step = False
        self.fresh_ids = {m.msg_id for m in self.fresh}
        self.boundary = operation_step or now in self.crash_times

    def rewind(self, prefix: Sequence[int], time: int) -> None:
        """Go back to the start of tick ``time`` and aim at ``prefix``.

        The log, the journal, the script cursors and the cumulative
        ``por_pruned`` become what they were when tick ``time`` was
        about to be picked (so a finished run's ``por_pruned`` counts
        its whole path, exactly like a run replayed from tick 1);
        ``prefix`` must agree with the kept log.
        """
        mark = self.ticks[time - 1]
        del self.log[mark.log_len:]
        del self.sent[mark.sent:]
        del self.ticks[time - 1:]
        self.por_pruned = mark.por_pruned
        if self.scripts is not None:
            self.scripts.cursors[:] = mark.cursors
        self.prefix = tuple(prefix)


class ExploringScheduler(Scheduler):
    """Scheduler adapter: delegates every pick to the controller.

    The explorer enumerates adversarial schedules, so nothing
    downstream may assume fairness.
    """

    def __init__(self, controller: ChoiceController):
        self.controller = controller

    def pick(
        self, alive: Sequence[int], now: int, rng: random.Random
    ) -> Optional[int]:
        controller = self.controller
        controller.begin_tick(now)
        hook = controller.tick_hook
        if hook is not None and not hook(now):
            return None  # dedup halt: the run loop winds down cleanly
        return controller.pick_pid(alive, now)


class ExploringDelivery(DeliveryPolicy):
    """Delivery-policy adapter: delegates every pick to the controller."""

    oldest_first_selection = False

    def __init__(self, controller: ChoiceController):
        self.controller = controller

    def choose(
        self, ready: List[Message], now: int, rng: random.Random
    ) -> Optional[Message]:
        return self.controller.pick_message(ready, now)
