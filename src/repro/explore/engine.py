"""The bounded DFS over one case's choice tree.

Stateless model checking without the replay: component state contains
live generator frames, so the explorer never snapshots — a state is
only ever reached by executing the steps that lead to it.  But it does
not start over for every path either.  The search keeps **one live
system** and, for each choice prefix popped off the DFS stack,
*rewinds* it to the start of the tick where the prefix leaves the path
the system is on (:class:`_LiveSystem`): the network's in-flight set,
the trace and the controller go back to that tick from the controller's
journal, and only the processes that stepped at or after it are built
anew and brought back by re-feeding each its *own* earlier steps
(:meth:`~repro.sim.process.ProcessHost.replay`) — exact, because in the
paper's model a process's state is a function of its own step sequence
⟨p, m, d⟩ and of nothing else.  The stock ``System.run`` loop then
resumes from that tick, follows the prefix and defaults beyond it, and
the engine pushes a sibling prefix for every untaken alternative the
run recorded.  The tree is rooted at the empty prefix; exhaustion of
the stack means every schedule/delivery interleaving of the case within
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
late as possible and few processes are rebuilt; the dedup key of that
tick is read from the per-tick digest journal instead of re-encoded;
and the caches inside :class:`~repro.explore.state.FingerprintEngine`
outlive the run — a host's encoding is keyed on its process's own step
history, so a rebuilt process finds it again once re-fed.
``explore_rewinds`` / ``explore_hosts_rebuilt`` / ``explore_replay_steps``
count the rewinds, the processes they rebuilt and the steps and prefix
choices that were executed a second time.

Leaves are judged by the same summarize hooks and safety clauses the
chaos fuzzer uses; a violating leaf becomes a
:class:`Violation` carrying the exact choice list that reproduces it
from scratch (:func:`~repro.explore.cases.run_controlled`, which is
also the oracle the rewind is tested against).  Safety violations are
monotone under extension (a decision made is made forever), so judging
completed paths only — never dedup-halted ones — loses nothing.
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
    wire_host,
)
from repro.explore.control import ChoiceController
from repro.explore.state import OPAQUE_MARK, FingerprintEngine
from repro.explore.symmetry import admissible_perms, resolve_symmetry
from repro.sim.perf import PerfCounters

#: Fingerprint implementations :class:`ExploreOptions` accepts: the
#: byte engine with and without its caches, and the compiled-encoder
#: variant (digest-identical to ``incremental``, silently degrading to
#: it when the extension is unavailable).
FINGERPRINT_MODES = FingerprintEngine.MODES


@dataclass
class Violation:
    """One violating leaf: everything needed to replay and re-judge it."""

    case: ExploreCase
    engine: str
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
    #: dynamic frontier — expired worker leases, quarantined shards.
    #: Always empty for a plain in-process walk; an incident of kind
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
    host encoding is cached under its process's own step history
    (:class:`~repro.explore.state.FingerprintEngine`), which is true of
    any system of the root, so the engine one shard filled serves the
    next: hand the same session to every :func:`explore_case` call of
    one root.  The first call creates the engine; a later call whose
    case or options differ is refused.
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
                case.n, options.fingerprint_mode, perms=perms
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
    network engine, the reductions and the fingerprint implementation —
    the soundness tests run every combination and compare
    decision-vector sets and verdicts.  ``max_runs`` is a safety valve
    for callers probing tractability; a truncated result has
    ``complete=False``.

    ``initial_stack`` roots the DFS at given prefixes instead of the
    empty one, and ``choice_limit`` halts any run whose recorded choice
    log reaches the limit, appending the halted prefix to
    ``shard_roots`` — together they are the dynamic frontier's
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
    their host encodings; it changes which encodes are cache hits,
    never a key.
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
            perms=perms,
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
        violated = tuple(
            clause
            for clause in parts.safety_clauses
            if not metrics.get(clause, True)
        )
        if violated:
            result.counters.explore_violations += 1
            result.violations.append(
                Violation(
                    case=case,
                    engine=options.engine,
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
    built (:func:`~repro.explore.cases.build_system`); before every
    later one it is *rewound* to the start of the divergence tick — the
    tick of the first choice at which the popped prefix leaves the path
    the system just took.  Everything the rewind needs about the past
    is journaled: the controller's ``sent`` / ``ticks``
    (:class:`~repro.explore.control.TickRecord`), the trace's steps
    (each step's detector value ``d``), and :attr:`digests`, the dedup
    key of every tick hooked so far.
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
        self.engine = result.options.engine
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
        self.system = build_system(
            self.case, controller, parts=self.parts, engine=self.engine
        )
        self.digests = []
        self.fp_engine.begin_run(self.system, controller)

    def _rewind(self, prefix: Tuple[int, ...], time: int) -> None:
        """Put the live system at the start of tick ``time``."""
        system, controller = self.system, self.controller
        ticks = controller.ticks
        before = ticks[: time - 1]
        sent = controller.sent[: ticks[time - 1].sent]
        delivered = {
            tick.delivered.msg_id for tick in before if tick.delivered is not None
        }
        system.network.restore(
            [m for m in sent if m.msg_id not in delivered],
            len(sent), len(sent), len(delivered),
        )
        trace = system.trace
        trace.rollback(time)
        # Only a process that stepped at or after ``time`` is in a state
        # it did not have then; its own earlier steps bring a new host
        # back to it.  Tick ``t`` is ``ticks[t - 1]`` and
        # ``trace.steps[t - 1]``: the explorer executes every tick.
        stepped = sorted({tick.pid for tick in ticks[time - 1:]})
        refed = 0
        for pid in stepped:
            old = system.hosts[pid]
            host = system.rebuild_host(pid)
            wire_host(host, controller, old.ctx._detector_provider)
            own = [
                (step.time, tick.delivered, step.detector_value)
                for step, tick in zip(trace.steps, before)
                if tick.pid == pid
            ]
            host.replay(own, [op for op in trace.operations if op.pid == pid])
            refed += len(own)
        controller.rewind(prefix, time)
        del self.digests[time:]  # tick ``time`` itself is still ahead
        self.fp_engine.rewound(len(trace.decisions))
        counters = self.result.counters
        counters.explore_rewinds += 1
        counters.explore_hosts_rebuilt += len(stepped)
        counters.explore_replay_steps += refed

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
