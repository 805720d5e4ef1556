"""The bounded DFS over one case's choice tree.

Stateless model checking without the replay: component state contains
live generator frames, so the explorer never snapshots — a state is
only ever reached by executing the steps that lead to it.  But it does
not start over for every path, and it does not execute a step it has
executed before.  The search keeps **one live system** and, for each
choice prefix popped off the DFS stack, *rewinds* it to the start of
the tick where the prefix leaves the path the system is on
(:class:`_LiveSystem`): the network's in-flight set, the trace, the
controller and the per-tick journal of every process's *lineage* go
back to that tick — plain data, all of it.  The processes themselves
are **memoized automata** (:class:`_Process`, the stand-in that sits in
``system.hosts``): in the paper's model a step ⟨p, m, d⟩ takes the
process to a new state *and emits its outputs* as one function of
(local state, m, d), so a process's state is named by the interned id
of its own step history (its lineage, kept by the
:class:`~repro.explore.state.FingerprintEngine`), a step taken before
from the same lineage with the same inputs is *served* — its recorded
sends, decisions and operation events are emitted, no protocol code
runs — and a :class:`~repro.sim.process.ProcessHost` object is brought
to the process's state, by re-feeding a new host the process's *own*
earlier steps (:meth:`~repro.sim.process.ProcessHost.replay`), only
when a step never taken before, a host-encoding miss or a stop
predicate needs one there.  The stock ``System.run`` loop resumes from
the rewound tick, follows the prefix and defaults beyond it, and the
engine pushes a sibling prefix for every untaken alternative the run
recorded.  The tree is rooted at the empty prefix; exhaustion of the
stack means every schedule/delivery interleaving of the case within
its step budget has been covered (up to the sound reductions).

The reductions, and how they compose:

* **POR** lives in the controller's enabled-set filter
  (:meth:`~repro.explore.control.ChoiceController.pick_pid`): scheduling
  independent steps in descending-pid order is pruned, so each
  Mazurkiewicz trace survives through its lexicographically smallest
  linearization.
* **Dedup** lives in the per-tick hook installed here: at the start of
  every tick the whole system state is fingerprinted
  (:mod:`repro.explore.state`); if an earlier path already explored
  this state with at least as many ticks remaining, the run halts (the
  scheduler returns None → a clean ``scheduler-halt``) and its subtree
  is skipped.  The fingerprint *includes the POR context*, because the
  filter makes the set of allowed continuations depend on it — hashing
  the raw state alone would merge nodes with different enabled sets and
  lose schedules.  Two guards keep the composition honest: the check
  only arms after the run has made its first post-prefix choice (a
  sibling must not be killed by its own parent's footprints), and a
  halted run's trace is never judged or counted as a leaf (its
  continuations — and decisions — are covered by the path that
  recorded the state).
* **Symmetry** (:mod:`repro.explore.symmetry`) folds pid-permuted
  states into one fingerprint for the targets where that is sound;
  collected decision vectors are closed under the group so the
  observable-outcome sets match the unreduced search exactly.

What keeps a run cheap (see ``docs/EXPLORER.md`` § Performance): the DFS
stack pops the deepest divergence first, so the tick to rewind to is as
late as possible; the dedup key of that tick is read from the per-tick
digest journal instead of re-encoded; most ticks are steps some earlier
path already executed (at any tick, for a target of
:data:`~repro.explore.symmetry.CLOCK_FREE_TARGETS`) and are served
from the transition table; and
the table and the encoding caches inside
:class:`~repro.explore.state.FingerprintEngine` outlive the run, the
system and — in a :class:`FingerprintSession` — the walk.
``explore_steps_executed`` / ``explore_steps_served`` split the fresh
ticks, ``explore_rewinds`` / ``explore_hosts_rebuilt`` /
``explore_replay_steps`` count the rewinds, the host objects that had
to be brought to a state and the steps and prefix choices that were
executed a second time.

Leaves are judged by the same summarize hooks and safety clauses the
chaos fuzzer uses; a violating leaf becomes a
:class:`Violation` carrying the exact choice list that reproduces it
from scratch (:func:`~repro.explore.cases.run_controlled`, which is
also the oracle the rewind is tested against).  A violation whose path
contains a served step is executed that way and judged again before it
is reported (:func:`_confirm_violation`), so a table that lied cannot
convict.  Safety violations are monotone under extension (a decision
made is made forever), so judging completed paths only — never
dedup-halted ones — loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.explore.cases import (
    CaseParts,
    ExploreCase,
    ExploreOptions,
    build_system,
    resolve_parts,
    run_controlled,
    wire_host,
)
from repro.explore.control import ChoiceController
from repro.explore.state import OPAQUE_MARK, FingerprintEngine, StepEffects
from repro.explore.symmetry import (
    CLOCK_FREE_TARGETS,
    admissible_perms,
    resolve_symmetry,
)
from repro.sim.network import Message
from repro.sim.perf import PerfCounters
from repro.sim.process import ProcessHost
from repro.sim.trace import Decision, DeliveredMessage


@dataclass
class Violation:
    """One violating leaf: everything needed to replay and re-judge it."""

    case: ExploreCase
    choices: Tuple[int, ...]
    violated: Tuple[str, ...]
    metrics: Dict[str, Any]
    decisions: Tuple[Tuple[int, str, str], ...]
    final_time: int
    #: Choice indices name positions in the controller's menus, and the
    #: POR filter shapes the menus — replay must use the same setting.
    por: bool = True


@dataclass
class ExploreResult:
    """The outcome of exhausting (or truncating) one case's tree."""

    case: ExploreCase
    options: ExploreOptions = ExploreOptions()
    runs: int = 0
    states: int = 0
    dedup_hits: int = 0
    por_pruned: int = 0
    #: Complete ⟺ the DFS stack drained (no max_runs truncation and no
    #: stop-on-first-violation early exit).
    complete: bool = True
    violations: List[Violation] = field(default_factory=list)
    #: Decision vectors of every completed (non-halted) leaf — the
    #: observable outcomes of the case, used by the soundness tests to
    #: compare pruned against unpruned and indexed against reference.
    #: With symmetry on, closed under the case's admissible group.
    decision_vectors: Set[Tuple[Tuple[int, str, str], ...]] = field(
        default_factory=set
    )
    counters: PerfCounters = field(default_factory=PerfCounters)
    #: Structured records of degraded-but-survived events from the
    #: frontier's work queue — expired worker leases, quarantined shards.
    #: Always empty for a plain ``explore_case`` walk; an incident of kind
    #: ``shard-quarantined`` implies ``complete=False``.
    incidents: List[Dict[str, Any]] = field(default_factory=list)
    #: Whether the pid-symmetry reduction is on for this case: what
    #: ``options.symmetry`` asks for, resolved against the target.
    symmetry: bool = field(init=False)

    def __post_init__(self) -> None:
        self.symmetry = resolve_symmetry(self.case, self.options.symmetry)

    @property
    def ok(self) -> bool:
        return not self.violations

    def stats(self) -> Dict[str, int]:
        return {
            "runs": self.runs,
            "states": self.states,
            "dedup_hits": self.dedup_hits,
            "por_pruned": self.por_pruned,
            "violations": len(self.violations),
            "decision_vectors": len(self.decision_vectors),
            "replay_steps": self.counters.explore_replay_steps,
            "fp_nodes": self.counters.explore_fp_nodes,
            "opaque_tokens": self.counters.explore_opaque_tokens,
            "shards": self.counters.explore_shards,
        }


def _decision_vector(trace) -> Tuple[Tuple[int, str, str], ...]:
    return tuple(
        sorted((d.pid, d.component, repr(d.value)) for d in trace.decisions)
    )


def _vector_closure(
    vector: Tuple[Tuple[int, str, str], ...],
    perms: Sequence[Tuple[int, ...]],
) -> Iterable[Tuple[Tuple[int, str, str], ...]]:
    """All group images of one decision vector.

    Sound for the symmetry-gated targets: their decision *values* are
    pid-free, so the π-image of a reachable vector is the vector of the
    π-relabeled execution, which the unreduced search also reaches.
    """
    for perm in perms:
        yield tuple(
            sorted((perm[pid], comp, value) for pid, comp, value in vector)
        )


def _violated_clauses(parts: CaseParts, metrics: Dict[str, Any]) -> Tuple[str, ...]:
    return tuple(
        clause for clause in parts.safety_clauses if not metrics.get(clause, True)
    )


def _confirm_violation(
    case: ExploreCase,
    options: ExploreOptions,
    parts: CaseParts,
    choices: Tuple[int, ...],
    violated: Tuple[str, ...],
    vector: Tuple[Tuple[int, str, str], ...],
) -> None:
    """Execute a violating path that the search partly *served*.

    Some step on the path was not run but taken from the transition
    table, so before the violation is believed the whole path is
    executed from scratch and judged again; the verdicts must agree, or
    the table lied and no result of this walk can be trusted.
    """
    system, _ = run_controlled(case, choices, parts=parts, por=options.por)
    trace = system.trace
    executed = (
        _violated_clauses(parts, parts.summarize(system, trace)),
        _decision_vector(trace),
    )
    if executed != (violated, vector):
        raise RuntimeError(
            f"{case.describe()}: choices {choices} violate {violated} with "
            f"decisions {vector} as served from the transition table, but "
            f"{executed[0]} with decisions {executed[1]} when executed"
        )


def _shared_prefix_len(prefix: Tuple[int, ...], log: Sequence[Any]) -> int:
    """How many leading choices ``prefix`` shares with the logged path."""
    limit = min(len(prefix), len(log))
    for index in range(limit):
        if prefix[index] != log[index].chosen:
            return index
    return limit


class FingerprintSession:
    """One root's fingerprint engine, kept warm across walks.

    The shards of a root are walks of the same case under the same
    options from different prefixes, each on a freshly built system.  A
    step's effects and a host's encoding are kept under the process's
    own step history (:class:`~repro.explore.state.FingerprintEngine`),
    which is true of any system of the root, so the engine one shard
    filled serves the next — a shard's prefix replay executes nothing
    an earlier shard has: hand the same session to every
    :func:`explore_case` call of one root.  The first call creates the
    engine; a later call whose case or options differ is refused.
    """

    def __init__(self) -> None:
        self.engine: Optional[FingerprintEngine] = None
        self._scope: Any = None

    def bind(
        self,
        case: ExploreCase,
        options: ExploreOptions,
        perms: Sequence[Tuple[int, ...]],
        counters: PerfCounters,
    ) -> FingerprintEngine:
        """The session's engine, counting into ``counters`` from now on."""
        scope = (case, options)
        if self.engine is None:
            self.engine = FingerprintEngine(
                case.n, options.fingerprint_mode, perms=perms,
                clock_free=case.target in CLOCK_FREE_TARGETS,
            )
            self._scope = scope
        elif scope != self._scope:
            raise ValueError(
                f"fingerprint session of {self._scope!r} handed a walk of "
                f"{scope!r}: its cached encodings describe another root"
            )
        self.engine.counters = counters
        return self.engine


def explore_case(
    case: ExploreCase,
    options: ExploreOptions = ExploreOptions(),
    stop_on_first_violation: bool = False,
    max_runs: Optional[int] = None,
    counters: Optional[PerfCounters] = None,
    initial_stack: Optional[Sequence[Tuple[int, ...]]] = None,
    choice_limit: Optional[int] = None,
    shard_roots: Optional[List[Tuple[int, ...]]] = None,
    digest_log: Optional[List[str]] = None,
    exchange: Optional[Any] = None,
    session: Optional[FingerprintSession] = None,
) -> ExploreResult:
    """Exhaust the bounded choice tree of ``case`` under ``options``.

    ``options`` (:class:`~repro.explore.cases.ExploreOptions`) names the
    reductions and the fingerprint implementation — the soundness tests
    run every combination and compare decision-vector sets and
    verdicts.  ``max_runs`` is a safety valve for callers probing
    tractability; a truncated result has ``complete=False``.

    ``initial_stack`` roots the DFS at given prefixes instead of the
    empty one, and ``choice_limit`` halts any run whose recorded choice
    log reaches the limit, appending the halted prefix to
    ``shard_roots`` — together they are the frontier's
    split/work protocol (:mod:`repro.explore.frontierd`): the halted
    prefixes are pairwise disjoint subtrees (any two differ at some
    recorded position), and a popped prefix already past the limit
    halts at its first post-replay tick, never mid-replay.
    ``digest_log``, when given, collects every dedup key in hook order
    (the fingerprint-equivalence suite compares these across modes
    byte-for-byte).

    ``exchange`` (a :class:`repro.store.exchange.FingerprintExchange`)
    shares the visited set across shard processes through the campaign
    database: the walk starts from ``exchange.visited`` — states other
    shards already exhausted dedup-halt here exactly like locally
    recorded ones — and every visited-set write is noted for batched
    publication.  ``states`` then counts only newly recorded states, so
    summed shard counts measure distinct coverage.

    ``session`` (a :class:`FingerprintSession`) supplies the fingerprint
    engine instead of a fresh one, so walks of the same root share
    their transition table and host encodings; it changes which steps
    are served and which encodes are cache hits, never a key.
    """
    parts = resolve_parts(case)
    result = ExploreResult(
        case=case,
        options=options,
        counters=counters if counters is not None else PerfCounters(),
    )
    perms = (
        admissible_perms(case) if result.symmetry else (tuple(range(case.n)),)
    )
    if session is None:
        fp_engine = FingerprintEngine(
            case.n, options.fingerprint_mode, counters=result.counters,
            perms=perms, clock_free=case.target in CLOCK_FREE_TARGETS,
        )
    else:
        fp_engine = session.bind(case, options, perms, result.counters)
    visited: Dict[str, int] = exchange.visited if exchange is not None else {}
    stack: List[Tuple[int, ...]] = (
        [tuple(p) for p in initial_stack] if initial_stack is not None else [()]
    )
    live = _LiveSystem(
        result, parts, visited, fp_engine, choice_limit, digest_log, exchange
    )

    while stack:
        if max_runs is not None and result.runs >= max_runs:
            result.complete = False  # stack non-empty ⇒ genuinely truncated
            break
        prefix = stack.pop()
        trace = live.run(prefix)
        controller = live.controller
        result.runs += 1
        result.counters.explore_runs += 1
        # Cumulative over the whole path, the ticks before the rewind
        # point included (the controller's journal carries them).
        result.por_pruned += controller.por_pruned
        result.counters.explore_por_pruned += controller.por_pruned

        taken = tuple(point.chosen for point in controller.log)
        for position in range(len(prefix), len(taken)):
            # Alternatives pushed in descending order so index 1 pops
            # first: the subtree under the smaller index is explored
            # before its right siblings, and the next popped prefix
            # always shares the deepest possible divergence point with
            # the run that just finished.
            for alternative in range(controller.log[position].options - 1, 0, -1):
                stack.append(taken[:position] + (alternative,))

        if trace.stop_reason == "scheduler-halt":
            if live.frontier_halted and shard_roots is not None:
                shard_roots.append(taken)
            continue  # halted: subtree covered elsewhere, not a leaf
        vector = _decision_vector(trace)
        if len(perms) > 1:
            result.decision_vectors.update(_vector_closure(vector, perms))
        else:
            result.decision_vectors.add(vector)
        metrics = parts.summarize(live.system, trace)
        violated = _violated_clauses(parts, metrics)
        if violated:
            if live.served:
                _confirm_violation(case, options, parts, taken, violated, vector)
            result.counters.explore_violations += 1
            result.violations.append(
                Violation(
                    case=case,
                    choices=taken,
                    violated=violated,
                    metrics=dict(metrics),
                    decisions=vector,
                    final_time=trace.final_time,
                    por=options.por,
                )
            )
            if stop_on_first_violation:
                # Only an actual early exit truncates: when this was
                # the last stacked prefix anyway, the search is as
                # complete as it would have been without the flag.
                if stack:
                    result.complete = False
                break
    if exchange is not None:
        exchange.sync()
    return result


class _LiveSystem:
    """The search's one live system, moved from path to path by rewind.

    :meth:`run` executes one path.  Before the first one the system is
    built (:func:`~repro.explore.cases.build_system`, its hosts replaced
    by :class:`_Process` stand-ins); before every later one it is
    *rewound* to the start of the divergence tick — the tick of the
    first choice at which the popped prefix leaves the path the system
    just took.  Everything the rewind needs about the past is
    journaled: the controller's ``sent`` / ``ticks``
    (:class:`~repro.explore.control.TickRecord`), the trace's steps
    (each step's detector value ``d``), the fingerprint engine's
    per-tick lineage vectors, and :attr:`digests`, the dedup key of
    every tick hooked so far.
    """

    def __init__(
        self,
        result: ExploreResult,
        parts: CaseParts,
        visited: Dict[str, int],
        fp_engine: FingerprintEngine,
        choice_limit: Optional[int],
        digest_log: Optional[List[str]],
        exchange: Optional[Any],
    ):
        self.result = result
        case = self.case = result.case
        self.por = result.options.por
        self.dedup = result.options.dedup
        self.parts = parts
        self.visited = visited
        self.fp_engine = fp_engine
        self.choice_limit = choice_limit
        self.digest_log = digest_log
        self.exchange = exchange
        crash_times = [t for _, t in case.crashes]
        self.first_crash = min(crash_times, default=None)
        self.last_crash = max(crash_times, default=None)
        self.system: Any = None
        self.controller: Optional[ChoiceController] = None
        #: ``digests[t - 1]`` is the dedup key of the state at the
        #: start of tick ``t`` on the current path.
        self.digests: List[str] = []
        #: The ticks of the current path whose step was served from the
        #: transition table instead of executed, ascending.
        self.served: List[int] = []
        #: Whether the last run stopped at ``choice_limit``.
        self.frontier_halted = False

    def run(self, prefix: Tuple[int, ...]):
        """Follow ``prefix``, default onward, observe; returns the trace.

        Afterwards :attr:`system` is in the path's final state and
        :attr:`controller`'s log describes the path taken.
        """
        log = self.controller.log if self.controller is not None else ()
        diverge = _shared_prefix_len(prefix, log)
        if diverge < len(log):
            start = log[diverge].time
            # choices on the log that are not made again
            kept = self.controller.ticks[start - 1].log_len
            self._rewind(prefix, start)
        else:
            # No live system yet, or the prefix continues past
            # everything the live path recorded (only foreign
            # ``initial_stack`` roots can): nothing to rewind to.
            start, kept = 1, 0
            self._build(prefix)
        self.frontier_halted = False
        trace = self.system.run(stop_when=self.parts.stop, start=start)
        self.result.counters.explore_replay_steps += (
            min(len(prefix), len(self.controller.log)) - kept
        )
        return trace

    def _build(self, prefix: Tuple[int, ...]) -> None:
        controller = self.controller = ChoiceController(prefix)
        controller.por_enabled = self.por
        controller.tick_hook = self._tick_hook
        system = self.system = build_system(
            self.case, controller, parts=self.parts
        )
        self.digests = []
        self.served = []
        self.fp_engine.begin_run(system, controller)
        system.hosts = [_Process(self, host) for host in system.hosts]

    def _rewind(self, prefix: Tuple[int, ...], time: int) -> None:
        """Put the live system at the start of tick ``time``.

        Plain data only.  The processes are not touched: each is named
        by its lineage, which the journal cut below takes back to tick
        ``time`` with everything else, and a host object is brought to
        that state when something needs it there (:class:`_Process`).
        """
        system, controller = self.system, self.controller
        ticks = controller.ticks
        sent = controller.sent[: ticks[time - 1].sent]
        delivered = {
            tick.delivered.msg_id
            for tick in ticks[: time - 1]
            if tick.delivered is not None
        }
        system.network.restore(
            [m for m in sent if m.msg_id not in delivered],
            len(sent), len(sent), len(delivered),
        )
        system.trace.rollback(time)
        controller.rewind(prefix, time)
        del self.digests[time:]  # tick ``time`` itself is still ahead
        served = self.served
        while served and served[-1] >= time:
            served.pop()
        self.fp_engine.rewound(len(system.trace.decisions))
        self.result.counters.explore_rewinds += 1

    def _tick_hook(self, now: int) -> bool:
        controller = self.controller
        result = self.result
        logged = len(controller.log)
        replaying = logged <= len(controller.prefix)
        if self.dedup:
            digests = self.digests
            # The tick the system was rewound to is in the state that
            # produced its key on the previous path (the rewind oracle
            # re-encodes it from scratch to check); only a later tick
            # is a state met for the first time.
            fresh = now > len(digests)
            if fresh:
                digests[now - 1:] = [self._fingerprint(now)]
            key = digests[now - 1]
            if self.digest_log is not None:
                self.digest_log.append(key)
            visited = self.visited
            remaining = self.case.depth - now + 1
            opaque = key[0] == OPAQUE_MARK
            seen = None if opaque else visited.get(key)
            if opaque:
                # The key hides what the state holds, so the state
                # stays out of the visited set — this walk's and,
                # through the exchange, every other shard's: never
                # looked up, never recorded, never a reason to halt.
                if fresh:
                    result.states += 1
                    result.counters.explore_states += 1
            elif replaying:
                # Still replaying (or about to make the first divergent
                # choice): these states are the parent run's own
                # footprints — record, never halt.
                if seen is None:
                    result.states += 1
                    result.counters.explore_states += 1
                if seen is None or seen < remaining:
                    visited[key] = remaining
                    if self.exchange is not None:
                        self.exchange.note(key, remaining)
            elif seen is not None and seen >= remaining:
                result.dedup_hits += 1
                result.counters.explore_dedup_hits += 1
                return False
            else:
                if seen is None:
                    result.states += 1
                    result.counters.explore_states += 1
                visited[key] = remaining
                if self.exchange is not None:
                    self.exchange.note(key, remaining)
        if (
            self.choice_limit is not None
            and logged >= self.choice_limit
            and logged >= len(controller.prefix)  # never truncate mid-replay
        ):
            self.frontier_halted = True
            return False
        return True

    def _fingerprint(self, now: int) -> str:
        controller = self.controller
        crashes_pending = self.last_crash is not None and self.last_crash > now
        scripts = controller.scripts
        cursors = tuple(scripts.cursors) if scripts is not None else None
        return self.fp_engine.fingerprint(
            now, crashes_pending, self.first_crash,
            controller.prev_pid, controller.fresh, controller.boundary,
            self.por, cursors,
        )


class _Process:
    """One process of the live system, as a memoized automaton.

    ``system.hosts[pid]`` of an explorer-built system is this stand-in
    (it plugs into the stock run loop the way the controller does
    through the scheduler and delivery extension points).  The
    process's state is *named* by its lineage in the transition table
    (:class:`~repro.explore.state.FingerprintEngine`); the stand-in
    owns a :class:`~repro.sim.process.ProcessHost` object that may be
    in another state — left behind by a rewind, or by steps that were
    served without it.  :meth:`take_step` decides, in this order:

    1. the object is in the process's current state → execute on it
       (and put the step on record if the table has not seen it);
    2. else the step is on record → emit its recorded effects, advance
       the lineage, leave the object alone;
    3. else *materialize* — a new host, re-fed the process's own steps
       (:meth:`~repro.sim.process.ProcessHost.replay`) — and execute.

    **Any other access** (``components``, ``component()``, ``_driver``,
    ``_started``, ``steps_taken``, ``quiescent``, ``ctx.now``: the
    fingerprint encoder on a host-cache miss, a stop predicate, a test)
    materializes first and is answered by the object, so an object in a
    state other than the process's cannot be observed.
    """

    __slots__ = ("pid", "ctx", "_live", "_provider", "_host", "_at", "_held")

    def __init__(self, live: _LiveSystem, built: ProcessHost):
        self.pid = built.pid
        self.ctx = _Context(self)
        self._live = live
        self._provider = built.ctx._detector_provider
        #: The host object, and the lineage it is at.  There is none
        #: until something needs one: ``built`` is not kept, so that on
        #: a warm table a new system's first steps are served like any
        #: others instead of executed because an object happens to be
        #: there.
        self._host: Optional[ProcessHost] = None
        self._at: Optional[int] = None
        #: The operation records ``_host`` holds, in invocation order.
        self._held: List[Any] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._materialized(), name)

    def _records(self) -> List[Any]:
        """The process's own operation records, in invocation order."""
        pid = self.pid
        return [op for op in self._live.system.trace.operations if op.pid == pid]

    def _current(self) -> bool:
        """Whether the object is in the process's current state: at its
        lineage, and holding the very records the trace holds (a record
        opened on a path since rewound is equal to its successor, but
        completing it completes nothing)."""
        if self._at != self._live.fp_engine.lineage(self.pid):
            return False
        held = self._held
        if not held:
            return True
        own = self._records()
        return len(own) == len(held) and all(a is b for a, b in zip(own, held))

    def _materialized(self) -> ProcessHost:
        """The host object, in the process's current state."""
        if not self._current():
            live, pid = self._live, self.pid
            system, controller = live.system, live.controller
            trace = system.trace
            host = system.rebuild_host(pid)
            wire_host(host, controller, self._provider)
            # Tick ``t`` is ``ticks[t - 1]`` and ``trace.steps[t - 1]``
            # (the explorer executes every tick); a tick whose step is
            # still being taken is in ``ticks`` only.
            own = [
                (step.time, tick.delivered, step.detector_value)
                for step, tick in zip(trace.steps, controller.ticks)
                if tick.pid == pid
            ]
            held = self._records()
            host.replay(own, held)
            self._host, self._held = host, held
            self._at = live.fp_engine.lineage(pid)
            counters = live.result.counters
            counters.explore_hosts_rebuilt += 1
            counters.explore_replay_steps += len(own)
        return self._host

    def take_step(
        self, now: int, message: Optional[Message]
    ) -> Optional[DeliveredMessage]:
        live, pid = self._live, self.pid
        table = live.fp_engine
        counters = live.result.counters
        trace = live.system.trace
        next_op_id = trace._next_op_id
        inputs = table.step_inputs(pid, now, self._provider(), message)
        known = (
            table.known_step(pid, inputs, message, next_op_id)
            if inputs is not None
            else None
        )
        if known is not None and not self._current():
            self._emit(table.effects(pid, known), now)
            table.advance(pid, known)
            counters.explore_steps_served += 1
            live.served.append(now)
            if message is None:
                return None
            return DeliveredMessage(
                msg_id=message.msg_id,
                sender=message.sender,
                component=message.component,
                payload=message.payload,
                send_time=message.send_time,
            )
        host = self._materialized()
        sent, decisions, operations = (
            live.controller.sent, trace.decisions, trace.operations
        )
        was_sent, was_decided, was_opened = (
            len(sent), len(decisions), len(operations)
        )
        delivered = host.take_step(now, message)
        counters.explore_steps_executed += 1
        self._held.extend(operations[was_opened:])
        if inputs is None:
            known = table.poisoned_step()
        elif known is None:
            known = table.learn_step(
                pid,
                inputs,
                message,
                next_op_id,
                bool(host.ctx._incoming_hooks),
                StepEffects(
                    tuple(
                        (m.dest, m.component, m.payload, m.meta or None)
                        for m in sent[was_sent:]
                    ),
                    tuple((d.component, d.value) for d in decisions[was_decided:]),
                    tuple(
                        (op.component, op.kind, op.args)
                        for op in operations[was_opened:]
                    ),
                    tuple(
                        (k, op.result)
                        for k, op in enumerate(self._records())
                        if op.response_time == now
                    ),
                ),
            )
        table.advance(pid, known)
        self._at = known
        return delivered

    def _emit(self, effects: StepEffects, now: int) -> None:
        """What the step would have emitted, emitted from outside."""
        live, pid = self._live, self.pid
        system = live.system
        trace = system.trace
        send = system.network.send
        journal = live.controller.sent
        for dest, component, payload, meta in effects.sends:
            journal.append(send(pid, dest, component, payload, now, meta))
        for component, value in effects.decisions:
            trace.record_decision(Decision(now, pid, component, value))
        for component, kind, args in effects.opened:
            trace.new_operation(pid, component, kind, args, now)
        if effects.completed:
            own = self._records()
            for k, result in effects.completed:
                own[k].response_time = now
                own[k].result = result


class _Context:
    """``hosts[pid].ctx`` of a :class:`_Process`.

    The run loop asks it for the step's ``d`` at every tick; the
    detector module is the process's, whichever object holds its state.
    Anything else is the materialized host's context.
    """

    __slots__ = ("_process",)

    def __init__(self, process: _Process):
        self._process = process

    def detector(self) -> Any:
        return self._process._provider()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._process._materialized().ctx, name)
