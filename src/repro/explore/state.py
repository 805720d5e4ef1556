"""State fingerprinting for the explorer's visited-set deduplication.

Two explored paths that land the whole system in the same state have
identical futures — the second subtree is the first one re-run.  The
fingerprint makes "same state" checkable: a canonical, hashable
summary of everything that can influence any future step or any
property verdict, and *nothing else*.

What goes in, and why:

* **component state** — every attribute of every component (and,
  recursively, protocol cores, child cores, pending tasklet generators
  with their instruction pointers and locals).  Generators are the hard
  part: a tasklet's continuation is ``(code position, locals, the
  generator it delegates to)``, which the encoder captures via
  ``gi_frame.f_lasti`` / ``gi_frame.f_locals`` / ``gi_yieldfrom``.
* **network buffers** — per-destination *multisets* of
  ``(sender, component, payload, meta)`` — ``meta`` only when
  non-empty; it is handed to ``on_message`` and the incoming hooks, so
  two messages that differ in it are different messages.  Message ids
  are deliberately excluded (they encode the path, not the state), and so is
  ``ready_at``: the explorer always runs ``ConstantDelay(1)``, so every
  buffered message is ready from the next tick onward and readiness
  carries no extra information.
* **decisions** — value, pid, component, and whether the decision
  preceded the first crash (the QC Validity clause keys on that order,
  so two states differing only there must not merge).
* **operation history** — for register runs, the full
  invocation/response record including times: linearizability is a
  property of the whole history, so register states only merge when
  their histories match exactly.  (Blunt but sound; the POR does the
  heavy pruning for registers.)
* **absolute time** — included only while crash events are still
  pending: until the last scheduled crash fires, wall-clock position
  determines which failure-pattern suffix is still ahead.  After it,
  states are time-translation-invariant and the fingerprint says so by
  omission, which is where most dedup hits come from.
* **the POR context** — previous actor and the fresh-message multiset.
  The controller's enabled-set filter keys on these, so two occurrences
  of the same raw state under different contexts allow different
  continuations and must not merge (this is what makes dedup and POR
  sound *together*, not just separately).

Anything the encoder cannot faithfully canonicalise marks the whole
state *opaque*.  An opaque state's key starts with :data:`OPAQUE_MARK`
and the search keeps such a state out of the visited set altogether —
never looked up, never recorded, never published to other shards — so
unknown values can cause missed merges but never a wrong one: dedup
degrades toward plain DFS, never toward unsoundness.

One implementation produces the keys: the byte engine
(:class:`FingerprintEngine` over :class:`_Encoder`).  It encodes values
bottom-up into self-delimiting byte strings (the encoded bytes double
as the stable sort keys of unordered containers), caches each host's
encoding under the process's own step history and each message's under
its id, and can
canonicalise the assembled state under a group of process-id
permutations (symmetry reduction — see :mod:`repro.explore.symmetry`
and ``docs/EXPLORER.md`` for the soundness argument).  Its ``naive``
mode runs the identical encoding with every cache disabled; tier-1
equivalence suites assert the two produce byte-identical digest
sequences.
"""

from __future__ import annotations

import hashlib
import types
from random import Random
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim.network import Message, Network, ReferenceNetwork
from repro.sim.process import ProcessHost
from repro.sim.tasklets import WaitSteps, WaitUntil
from repro.sim.trace import RunTrace

#: Attributes never part of protocol state: host plumbing, trace/network
#: backrefs, and listener closures wired up by the component layer.
_SKIP_ATTRS = frozenset(
    {
        "ctx",
        "_host",
        "_network",
        "_trace",
        "_decide_listeners",
        "_outgoing_hooks",
        "_incoming_hooks",
    }
)

#: Recursion ceiling; anything deeper degrades to an opaque token.
_MAX_DEPTH = 40

#: A cacheable encoding of one value (or one composite section):
#: ``data`` is the self-delimiting canonical byte string, ``ambiguous``
#: the set of ints in ``[0, n)`` that appeared at *untagged* positions
#: (positions not structurally known to be pids — see the symmetry
#: validity rule below), ``opaque`` whether an unencodable value was
#: reached anywhere inside.
class EncodedUnit(NamedTuple):
    data: bytes
    ambiguous: FrozenSet[int]
    opaque: bool


#: First character of the key of an *opaque* state (hex digests never
#: start with it).  The search must not dedup on such a key: the
#: placeholder bytes of an undecomposable value hide what it holds.
OPAQUE_MARK = "!"

#: Lineage ids (see :class:`FingerprintEngine`): every process starts at
#: the root — built, no step taken — and interned histories count up
#: from it.  A *poisoned* lineage has a step the key could not name and
#: is negative: every such step is given an id of its own, counting
#: down from ``_POISONED``, so a negative id is equal to nothing but
#: itself — never interned, never cached under, never served.
_ROOT_LINEAGE = 0
_POISONED = -1

#: The shape of a step that opens no operation on a host without
#: incoming hooks — nearly every step (see ``FingerprintEngine``).
_PLAIN = (0, False)


class StepEffects(NamedTuple):
    """What one step emitted — the output half of the automaton.

    In an atomic step ⟨p, m, d⟩ the new state *and the outputs* are one
    function of (local state, m, d), so a step taken again from the
    same lineage with the same inputs emits exactly this.  It is the
    surface :meth:`~repro.sim.process.ProcessHost.replay` mutes, seen
    from outside: ``sends`` are ``(dest, component, payload, meta)``
    (``meta`` None when empty), ``decisions`` ``(component, value)``, ``opened`` ``(component,
    kind, args)`` of the operation records the step opened, and
    ``completed`` ``(k, result)`` for the process's own ``k``-th record
    (in invocation order) that the step answered.  The values are the
    objects the executed step emitted, shared by every step served
    from the record — emitted data must never be mutated.
    """

    sends: Tuple[Tuple[int, str, Any, Optional[Dict[str, Any]]], ...]
    decisions: Tuple[Tuple[str, Any], ...]
    opened: Tuple[Tuple[str, str, Tuple[Any, ...]], ...]
    completed: Tuple[Tuple[int, Any], ...]


_NO_EFFECTS = StepEffects((), (), (), ())


class _Encoder:
    """Bottom-up canonical byte encoding of Python values.

    Equal protocol states produce equal bytes.  The bytes are
    self-delimiting, so the canonical order of a set or dict is a plain
    lexicographic sort of its children's encodings and the final digest
    hashes bytes that already exist.  ``stack`` carries the ids of the
    objects on the current recursion path, so reference cycles
    (component ↔ core, predicate closures over ``self``) become
    position-stable ``c<type>;`` markers.

    Two accumulators ride along with every encode call:

    * ``ambig`` — every ``int`` in ``[0, n)`` encountered at a position
      that is *not* structurally known to be a non-pid.  Structurally
      known non-pids (wait counters, instruction offsets, line numbers,
      operation timestamps) are encoded through dedicated branches that
      skip the accumulator.  The symmetry reduction may only apply a
      permutation that fixes every accumulated int (see
      :class:`FingerprintEngine`).
    * ``opaque`` — set when a value cannot be decomposed (no
      ``__dict__``/``__slots__``) or recursion exceeds ``_MAX_DEPTH``.

    ``nodes`` counts every value-tree node visited — the
    ``explore_fp_nodes`` work metric.
    """

    __slots__ = ("n", "ambig", "opaque", "nodes")

    def __init__(self, n: int):
        self.n = n
        self.ambig: set = set()
        self.opaque = False
        self.nodes = 0

    def enc(self, value: Any, depth: int = 0, stack: Tuple[int, ...] = ()) -> bytes:
        self.nodes += 1
        if value is None:
            return b"N;"
        if value is True:  # bool before int: True == 1 but is never a pid
            return b"T;"
        if value is False:
            return b"F;"
        if isinstance(value, int):
            if 0 <= value < self.n:
                self.ambig.add(value)
            return b"i%d;" % value
        if isinstance(value, float):
            return b"f" + repr(value).encode() + b";"
        if isinstance(value, str):
            raw = value.encode("utf-8", "backslashreplace")
            return b"s%d:" % len(raw) + raw
        if isinstance(value, bytes):
            return b"b%d:" % len(value) + value
        if depth > _MAX_DEPTH:
            self.opaque = True
            return b"?" + type(value).__name__.encode() + b";"
        obj_id = id(value)
        if obj_id in stack:
            return b"c" + type(value).__name__.encode() + b";"
        stack = stack + (obj_id,)
        depth += 1

        if isinstance(value, tuple):
            return b"(" + b"".join(self.enc(v, depth, stack) for v in value) + b")"
        if isinstance(value, list):
            return b"[" + b"".join(self.enc(v, depth, stack) for v in value) + b"]"
        if isinstance(value, (set, frozenset)):
            return b"{" + b"".join(sorted(self.enc(v, depth, stack) for v in value)) + b"}"
        if isinstance(value, dict):
            items = sorted(
                self.enc(k, depth, stack) + self.enc(v, depth, stack)
                for k, v in value.items()
            )
            return b"<" + b"".join(items) + b">"

        if isinstance(value, WaitSteps):
            return b"W%d;" % value.remaining  # a duration, never a pid
        if isinstance(value, WaitUntil):
            return b"U" + self.enc(value.predicate, depth, stack)
        if isinstance(value, Message):
            # Untagged position (a message stored inside component
            # state): sender/dest are pid-valued, so route them through
            # the plain int branch and let the accumulator see them.
            return (
                b"M"
                + self.enc(value.sender, depth, stack)
                + self.enc(value.dest, depth, stack)
                + self.enc(value.component, depth, stack)
                + self.enc(value.payload, depth, stack)
            )
        if isinstance(value, Random):
            digest = hashlib.sha256(repr(value.getstate()).encode()).digest()
            return b"R" + digest
        if isinstance(value, types.GeneratorType):
            frame = value.gi_frame
            if frame is None:
                return b"gX" + self.enc(value.gi_code.co_qualname, depth, stack)
            local_items = sorted(
                self.enc(name, depth, stack) + self.enc(v, depth, stack)
                for name, v in frame.f_locals.items()
                if name != "self"  # covered by the owning component's walk
            )
            return (
                b"g"
                + self.enc(value.gi_code.co_qualname, depth, stack)
                + b"@%d;" % frame.f_lasti  # instruction offset, never a pid
                + b"".join(local_items)
                + b"/"
                + self.enc(value.gi_yieldfrom, depth, stack)
            )
        if isinstance(value, types.FunctionType):
            cells = value.__closure__ or ()
            return (
                b"L"
                + self.enc(value.__module__, depth, stack)
                + self.enc(value.__qualname__, depth, stack)
                + b"#%d;" % value.__code__.co_firstlineno  # never a pid
                + b"("
                + b"".join(self.enc(c.cell_contents, depth, stack) for c in cells)
                + b")"
            )
        if isinstance(value, types.MethodType):
            return (
                b"m"
                + self.enc(value.__func__.__qualname__, depth, stack)
                + self.enc(value.__self__, depth, stack)
            )
        if isinstance(value, (Network, ReferenceNetwork, RunTrace)):
            return b"r" + type(value).__name__.encode() + b";"

        state = getattr(value, "__dict__", None)
        if state is None and hasattr(type(value), "__slots__"):
            state = {
                name: getattr(value, name)
                for name in type(value).__slots__
                if hasattr(value, name)
            }
        if state is not None:
            items = sorted(
                self.enc(k, depth, stack) + self.enc(v, depth, stack)
                for k, v in state.items()
                if k not in _SKIP_ATTRS
            )
            return (
                b"o"
                + self.enc(type(value).__module__, depth, stack)
                + self.enc(type(value).__qualname__, depth, stack)
                + b"<"
                + b"".join(items)
                + b">"
            )
        self.opaque = True
        return b"?" + type(value).__name__.encode() + b";"


def _with_length(data: bytes) -> bytes:
    return b"%d:" % len(data) + data


class FingerprintEngine:
    """Incremental, symmetry-aware dedup keys for one exploration.

    One engine serves one *root*: every system it is ever bound to
    must be built from the same case.  Usually that is one
    :func:`~repro.explore.engine.explore_case` call; a frontier worker
    keeps the engine for every shard of the root it walks
    (:class:`~repro.explore.engine.FingerprintSession`, which is what
    checks the "same case").  :meth:`begin_run`
    binds it to a newly built system and to the journal of the
    controller driving it, :meth:`fingerprint` produces the dedup key
    at the start of each tick, and :meth:`rewound` tells it that the
    system went back to an earlier tick.

    **The transition table.**  The engine names every local state of
    the root by a *lineage*: an interned id of the process's own step
    history, ``lineage' = intern[(lineage, time, detector-value unit,
    sender, message unit, ...)]``.  In the paper's model a process's
    state *and its outputs* are a function of its ⟨m, d⟩ sequence
    alone; ``time``, the third input
    :meth:`~repro.sim.process.ProcessHost.replay` is fed, is in the key
    because a component *may* read ``ctx.now`` (operation records carry
    ``invoke_time``).  With ``clock_free`` the time slot holds None:
    the engine serves a root of
    :data:`~repro.explore.symmetry.CLOCK_FREE_TARGETS`, whose steps are
    checked never to read the clock, so a local state reached through
    the same ⟨m, d⟩ history at other ticks is one lineage — encoded
    once, each of its steps executed once.  A bare engine keeps
    ``time``: dropping it is sound only where that check passed.  The
    table is advanced **at the step itself** by whoever drives the
    processes (the explorer's host stand-ins,
    :mod:`repro.explore.engine`): :meth:`step_inputs` names
    what the step is about to read, :meth:`known_step` answers whether
    a step with these inputs was executed before — and then its
    :class:`StepEffects` are on record under the lineage it led to
    (:meth:`effects`) — :meth:`learn_step` puts an executed step on
    record, and :meth:`advance` journals the stepping process's new
    lineage (``_lineages[t]`` is the vector after ``t`` ticks).  A
    lineage names a local history, not a position on a path, so the
    table and everything keyed on it survive rewinds and
    :meth:`begin_run` (a freshly built system of the same root starts
    every process at the root lineage again) and live as long as the
    engine.

    Two modes share one encoding:

    * ``"incremental"`` — a host's encoding is cached under its
      process's lineage, so one encoding serves every path of the root
      on which the process has lived through the same steps.
      In-flight messages are encoded once each (a memo indexed by
      ``msg_id``, shared by the buffer section, the POR context and the
      lineage key); decision encodings are append-only;
      completed-operation encodings are frozen.
    * ``"naive"`` — the identical encoding with every cache disabled,
      the oracle the equivalence suite compares byte-for-byte against.
      No step is named (every lineage is poisoned), so no step is ever
      served from the table either: the differential is
      served-versus-executed as well as cached-versus-encoded.

    **Lineage guards.**  A step whose message or detector value encodes
    *opaque* cannot be named, so it poisons the lineage: from then on
    that host is encoded afresh at every fingerprint and every step of
    its process is executed.  Two inputs of a step sit outside ⟨m, d⟩
    and join the key when present: the ``op_id`` of every operation
    record the step opened (ids are issued run-wide, so they depend on
    the other processes), and — when the host has incoming hooks,
    which are handed the ``DeliveredMessage`` — the message's
    ``msg_id`` and ``send_time``.  Whether they are present is only
    known once the step has run, and the key must be computable
    before: the engine remembers per :meth:`step_inputs` value the
    step's *shape* — how many operations it opens (it opens as many
    whatever ids it is handed, and they are the next ones the trace
    issues) and whether its host has incoming hooks.  An engine bound
    without a journal has no lineages and encodes every host every
    time.

    **Symmetry.** ``perms`` is the case's admissible permutation group
    (:func:`repro.explore.symmetry.admissible_perms`; identity-only
    when the reduction is off).  A permutation ``perm`` is *valid* at a
    state only if it fixes every ambiguous int the encoding collected —
    any ``int`` in ``[0, n)`` sitting at a position not structurally
    known to be a pid, because relabeling the tagged positions (host
    slots, buffer destinations and senders, decision/operation pids,
    the POR context) while leaving an untagged pid reference behind
    would merge semantically different states.  The canonical form is
    the lexicographic minimum of the assembled bytes over the valid
    permutations.

    **Opacity.** When any encoded value is opaque the key carries
    :data:`OPAQUE_MARK` and the caller keeps the state out of its
    visited set.  Nothing is done to make the rest of the key unique:
    a per-engine serial cannot be, once several engines (shards,
    workers) feed one visited set, and a key that is never looked up
    does not need to be.  The ``explore_opaque_tokens`` counter makes
    the degradation visible.
    """

    MODES = ("incremental", "naive")

    def __init__(
        self,
        n: int,
        mode: str = "incremental",
        counters: Any = None,
        perms: Optional[Sequence[Tuple[int, ...]]] = None,
        clock_free: bool = False,
    ):
        if mode not in self.MODES:
            raise ValueError(f"unknown fingerprint mode {mode!r}; have {self.MODES}")
        self.n = n
        self.mode = mode
        #: Whether per-host/buffer/decision/operation caches are live.
        self.cached = mode != "naive"
        #: Whether the step key leaves ``time`` out (see class doc).
        self.clock_free = clock_free
        self.counters = counters
        self.perms: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(p) for p in (perms or [tuple(range(n))])
        )
        self._encoder = _Encoder(n)
        self._nodes_synced = 0
        self._system: Any = None
        #: The :class:`~repro.explore.control.ChoiceController` driving
        #: the bound system (its ``ticks`` / ``sent`` journal), or None.
        self._journal: Any = None
        # the transition table and the caches (``incremental`` only);
        # see :meth:`rewound` for what survives from one explored path
        # to the next
        #: Per pid: step key -> lineage id (the intern table).
        self._lineage_ids: List[Dict[Tuple[Any, ...], int]] = [
            {} for _ in range(n)
        ]
        #: Per pid: what the step that reached lineage ``l`` emitted,
        #: at index ``l - 1``.
        self._effects: List[List[StepEffects]] = [[] for _ in range(n)]
        #: Per pid: step inputs -> (operations the step opens, whether
        #: its host has incoming hooks), for the steps not ``_PLAIN``.
        self._shapes: List[Dict[Tuple[Any, ...], Tuple[int, bool]]] = [
            {} for _ in range(n)
        ]
        #: ``id(d)`` -> (``d``, its unit): a root's detector values are
        #: the same few objects on every read (constants, script
        #: stages), so each is encoded once; holding ``d`` pins the id.
        self._detector_units: Dict[int, Tuple[Any, EncodedUnit]] = {}
        #: The last poisoned lineage id issued.
        self._last_poisoned = _ROOT_LINEAGE
        #: ``_lineages[t]`` is every process's lineage after ``t``
        #: executed ticks of the current path.
        self._lineages: List[Tuple[int, ...]] = [(_ROOT_LINEAGE,) * n]
        #: Per pid: lineage id -> the host's encoding in that state.
        self._host_cache: List[Dict[int, EncodedUnit]] = [{} for _ in range(n)]
        #: Indexed by ``msg_id``.
        self._message_units: List[Optional[EncodedUnit]] = []
        self._decision_cache: List[Tuple[int, EncodedUnit]] = []
        self._operation_cache: List[Optional[Tuple[int, EncodedUnit]]] = []

    # -- lifecycle ------------------------------------------------------
    def begin_run(self, system: Any, journal: Any = None) -> None:
        """Bind to a newly built system of this engine's root.

        ``journal`` is the controller driving ``system``; without one
        the engine has no step histories to key the host cache on.
        What names a position on a path starts over (the lineage
        journal, the message memo, the decision and operation caches —
        the split :meth:`rewound` makes); the transition table and the
        host cache stay, because a new system of the same root gives
        every process the local state the root lineage already names.
        """
        self._system = system
        self._journal = journal
        self._lineages = [(_ROOT_LINEAGE,) * self.n]
        self._message_units = []
        self._decision_cache = []
        self._operation_cache = []

    def rewound(self, decisions: int) -> None:
        """The bound system went back to an earlier tick of its path.

        Called after the journal itself was rewound.  The lineage
        journal is cut to the ticks the journal kept; the transition
        table and the host cache are *not* touched — a lineage names a
        local history, not a position on a path, so every entry stays
        true and a process finds its effects and its encoding again as
        soon as it re-lives a history seen before.  Message ids at or
        above the kept ``sent`` count will be issued again, so the
        message memo is cut there.  Decisions are append-only and
        ``decisions`` of them were kept; operation records answered
        since are pending again, so that cache is cleared.
        """
        del self._lineages[len(self._journal.ticks) + 1:]
        del self._message_units[len(self._journal.sent):]
        del self._decision_cache[decisions:]
        self._operation_cache = []

    @property
    def nodes(self) -> int:
        """Value-tree nodes encoded so far (the fp-work metric)."""
        return self._encoder.nodes

    # -- unit encoding --------------------------------------------------
    def _unit(self, build: Any) -> EncodedUnit:
        """Run ``build(encoder)`` with isolated ambiguity/opacity
        accumulators, so the result is cacheable on its own."""
        enc = self._encoder
        saved_ambig, saved_opaque = enc.ambig, enc.opaque
        enc.ambig, enc.opaque = set(), False
        data = build(enc)
        unit = EncodedUnit(data, frozenset(enc.ambig), enc.opaque)
        enc.ambig, enc.opaque = saved_ambig, saved_opaque
        return unit

    def _encode_host(self, host: ProcessHost) -> EncodedUnit:
        def build(enc: _Encoder) -> bytes:
            parts = [b"H", b"T;" if host._started else b"F;"]
            for name, comp in sorted(host.components.items()):
                parts.append(enc.enc(name))
                parts.append(enc.enc(comp))
            parts.append(b"|")
            for task in host._driver._tasklets:
                if task.done:
                    continue
                # The tasklet name (``"comp@pid"``) is cosmetic — only
                # ever rendered in an error message — and pid-derived,
                # so it is deliberately excluded: keeping it would block
                # every symmetry merge for free.
                parts.append(b"t")
                parts.append(b"T;" if task.started else b"F;")
                parts.append(enc.enc(task.wait))
                parts.append(enc.enc(task.gen))
            return b"".join(parts)

        return self._unit(build)

    # -- the transition table ----------------------------------------------
    def lineage(self, pid: int) -> int:
        """Process ``pid``'s lineage on the current path, as journaled."""
        return self._lineages[-1][pid]

    def step_inputs(
        self, pid: int, time: int, detector_value: Any, message: Optional[Message]
    ) -> Optional[Tuple[Any, ...]]:
        """Name what ``pid`` is about to read in its step at ``time``.

        ``(lineage, time, d unit bytes, sender, message unit bytes)``
        (the last two None for a λ-step; ``time`` None on a
        ``clock_free`` engine) — the local state and the inputs the
        step is a function of — or None when the step cannot be named:
        the lineage is already poisoned, ``d`` or ``m`` encodes opaque,
        or the mode names nothing (``naive``).
        """
        parent = self._lineages[-1][pid]
        if parent < 0 or not self.cached:
            return None
        if self.clock_free:
            time = None
        memo = self._detector_units.get(id(detector_value))
        if memo is None:
            memo = self._detector_units[id(detector_value)] = (
                detector_value,
                self._unit(lambda enc: enc.enc(detector_value)),
            )
        detector = memo[1]
        if detector.opaque:
            return None
        if message is None:
            return (parent, time, detector.data, None, None)
        unit = self._message_unit(message)
        if unit.opaque:
            return None
        return (parent, time, detector.data, message.sender, unit.data)

    @staticmethod
    def _step_key(
        inputs: Tuple[Any, ...],
        shape: Tuple[int, bool],
        message: Optional[Message],
        next_op_id: int,
    ) -> Tuple[Any, ...]:
        """The lineage key: a step's inputs plus what sits outside
        ⟨m, d⟩ — the ids an incoming hook is handed and the ids of the
        operation records the step opens.  Most steps have neither and
        are keyed by their inputs alone."""
        if shape == _PLAIN:
            return inputs
        opens, hooked = shape
        handed = (
            (message.msg_id, message.send_time)
            if hooked and message is not None
            else ()
        )
        return inputs + (handed, tuple(range(next_op_id, next_op_id + opens)))

    def known_step(
        self,
        pid: int,
        inputs: Tuple[Any, ...],
        message: Optional[Message],
        next_op_id: int,
    ) -> Optional[int]:
        """The lineage the step named ``inputs`` leads to, if a step
        with this key was executed before; ``next_op_id`` is the id the
        trace would issue next."""
        shape = self._shapes[pid].get(inputs, _PLAIN)
        return self._lineage_ids[pid].get(
            self._step_key(inputs, shape, message, next_op_id)
        )

    def learn_step(
        self,
        pid: int,
        inputs: Tuple[Any, ...],
        message: Optional[Message],
        next_op_id: int,
        hooked: bool,
        effects: StepEffects,
    ) -> int:
        """Put an executed step on record; returns the lineage it led to.

        ``next_op_id`` is what the trace would have issued before the
        step ran, ``hooked`` whether the host has incoming hooks now
        that it has.
        """
        shape = (len(effects.opened), hooked)
        shapes, table = self._shapes[pid], self._lineage_ids[pid]
        recorded = shapes.get(inputs, _PLAIN if inputs in table else shape)
        if recorded != shape:
            raise RuntimeError(
                f"process {pid} took the step {inputs!r} in the shape "
                f"{shape}, not the recorded {recorded}: how many "
                f"operations a step opens must not depend on the ids it "
                f"is handed"
            )
        if shape != _PLAIN:
            shapes[inputs] = recorded
        lineage = table.setdefault(
            self._step_key(inputs, shape, message, next_op_id), len(table) + 1
        )
        if lineage > len(self._effects[pid]):
            # Many steps emit nothing; their records are one object.
            self._effects[pid].append(effects if any(effects) else _NO_EFFECTS)
            if self.counters is not None:
                self.counters.explore_fp_lineages += 1
        return lineage

    def poisoned_step(self) -> int:
        """A lineage for a step that could not be named: equal to
        nothing but itself."""
        self._last_poisoned -= 1
        return self._last_poisoned

    def effects(self, pid: int, lineage: int) -> StepEffects:
        """What the step that led ``pid`` to ``lineage`` emitted."""
        return self._effects[pid][lineage - 1]

    def advance(self, pid: int, lineage: int) -> None:
        """Journal the tick in which ``pid`` stepped to ``lineage``."""
        current = list(self._lineages[-1])
        current[pid] = lineage
        self._lineages.append(tuple(current))

    def _host_units(self) -> List[EncodedUnit]:
        counters = self.counters
        if self.cached and self._journal is not None:
            if len(self._lineages) != len(self._journal.ticks) + 1:
                raise RuntimeError(
                    f"{len(self._journal.ticks)} ticks were executed and "
                    f"{len(self._lineages) - 1} journaled: the host cache "
                    f"is keyed on lineages advanced at every step"
                )
            lineages = self._lineages[-1]
        else:
            lineages = (_POISONED,) * self.n
        units = []
        for host, lineage, cache in zip(
            self._system.hosts, lineages, self._host_cache
        ):
            unit = cache.get(lineage)
            if unit is None:
                if counters is not None:
                    counters.explore_fp_host_misses += 1
                unit = self._encode_host(host)
                if lineage >= 0:
                    cache[lineage] = unit
            elif counters is not None:
                counters.explore_fp_host_hits += 1
            units.append(unit)
        return units

    def _message_unit(self, message: Message) -> EncodedUnit:
        """The encoding of one in-flight (or just delivered) message.

        The sender and the destination are kept outside the encoded
        bytes: they are *tagged* pid positions, relabeled at assembly
        time.  ``meta`` reaches ``on_message`` and the incoming hooks,
        so it is state; an empty one emits nothing.
        """
        units = self._message_units
        msg_id = message.msg_id
        if msg_id < len(units) and units[msg_id] is not None:
            if self.counters is not None:
                self.counters.explore_fp_message_hits += 1
            return units[msg_id]
        if self.counters is not None:
            self.counters.explore_fp_message_misses += 1
        unit = self._unit(
            lambda enc: enc.enc(message.component) + enc.enc(message.payload)
        )
        if message.meta:
            meta = self._unit(lambda enc: enc.enc(message.meta))
            unit = EncodedUnit(
                unit.data + b"~" + meta.data,
                unit.ambiguous | meta.ambiguous,
                unit.opaque or meta.opaque,
            )
        if self.cached:
            units.extend([None] * (msg_id + 1 - len(units)))
            units[msg_id] = unit
        return unit

    def _buffer_entries(self, dest: int) -> List[Tuple[int, EncodedUnit]]:
        return [
            (message.sender, self._message_unit(message))
            for message in self._system.network.in_flight(dest)
        ]

    def _decision_entries(self, first_crash: Optional[int]) -> List[Tuple[int, EncodedUnit]]:
        decisions = self._system.trace.decisions
        cache = self._decision_cache if self.cached else []
        while len(cache) < len(decisions):  # append-only record
            decision = decisions[len(cache)]
            postcrash = first_crash is not None and decision.time >= first_crash
            unit = self._unit(
                lambda enc, d=decision, p=postcrash: (
                    enc.enc(d.component)
                    + enc.enc(d.value)
                    + (b"T;" if p else b"F;")
                )
            )
            cache.append((decision.pid, unit))
        return cache

    def _operation_entries(self) -> List[Tuple[int, EncodedUnit]]:
        operations = self._system.trace.operations
        cache = self._operation_cache if self.cached else []
        while len(cache) < len(operations):
            cache.append(None)
        entries: List[Tuple[int, EncodedUnit]] = []
        for index, op in enumerate(operations):
            cached = cache[index]
            if cached is not None:
                entries.append(cached)
                continue
            unit = self._unit(
                lambda enc, o=op: (
                    enc.enc(o.component)
                    + enc.enc(o.kind)
                    + enc.enc(o.args)
                    + b"@%d;" % o.invoke_time  # timestamps, never pids
                    + (
                        b"@%d;" % o.response_time
                        if o.response_time is not None
                        else b"N;"
                    )
                    + enc.enc(o.result)
                )
            )
            entry = (op.pid, unit)
            if self.cached and not op.pending:
                cache[index] = entry  # records mutate until completion
            entries.append(entry)
        return entries

    # -- assembly -------------------------------------------------------
    def _assemble(
        self,
        perm: Tuple[int, ...],
        host_units: List[EncodedUnit],
        buffer_entries: List[List[Tuple[int, EncodedUnit]]],
        decision_entries: List[Tuple[int, EncodedUnit]],
        operation_entries: List[Tuple[int, EncodedUnit]],
        time_part: bytes,
        por_part: Optional[Tuple[Optional[int], bool, List[Tuple[int, int, EncodedUnit]]]],
        cursors: Optional[Tuple[int, ...]] = None,
    ) -> bytes:
        n = self.n
        parts = [b"FP1"]
        slots: List[bytes] = [b""] * n
        for pid in range(n):
            slots[perm[pid]] = host_units[pid].data
        for data in slots:
            parts.append(_with_length(data))
        parts.append(b"|B")
        buffer_slots: List[bytes] = [b""] * n
        for dest in range(n):
            encoded = sorted(
                b"e%d;" % perm[sender] + unit.data
                for sender, unit in buffer_entries[dest]
            )
            buffer_slots[perm[dest]] = b"".join(encoded)
        for data in buffer_slots:
            parts.append(_with_length(data))
        parts.append(b"|D")
        parts.append(
            b"".join(
                sorted(
                    b"d%d;" % perm[pid] + unit.data
                    for pid, unit in decision_entries
                )
            )
        )
        parts.append(b"|O")
        for pid, unit in operation_entries:
            parts.append(b"p%d;" % perm[pid] + unit.data)
        parts.append(time_part)
        if por_part is None:
            parts.append(b"|P0")
        else:
            prev, boundary, fresh_entries = por_part
            parts.append(b"|P1")
            parts.append(b"v%d;" % perm[prev] if prev is not None else b"vN;")
            parts.append(b"T;" if boundary else b"F;")
            parts.append(
                b"".join(
                    sorted(
                        b"f%d,%d;" % (perm[sender], perm[dest]) + unit.data
                        for sender, dest, unit in fresh_entries
                    )
                )
            )
        if cursors is not None:
            # Detector-script cursors, slotted like hosts: process p's
            # stage index lands at slot perm[p].  Stage indices are
            # emitted through a dedicated branch (``c%d;``) — they are
            # structurally never pids, so they stay out of the
            # ambiguity accumulator and cannot veto a permutation.
            cursor_slots = [0] * n
            for pid in range(n):
                cursor_slots[perm[pid]] = cursors[pid]
            parts.append(b"|S")
            parts.append(b"".join(b"c%d;" % c for c in cursor_slots))
        return b"".join(parts)

    # -- the dedup key --------------------------------------------------
    def fingerprint(
        self,
        now: int,
        crashes_pending: bool,
        first_crash: Optional[int],
        prev: Optional[int],
        fresh: Sequence[Message],
        boundary: bool,
        por: bool,
        cursors: Optional[Tuple[int, ...]] = None,
    ) -> str:
        """The dedup key for the system state at the start of ``now``.

        Covers hosts, buffers, decisions, operations, absolute time
        while crashes are pending, the POR context when the POR is on,
        and the detector-script cursor vector for scripted roots (two
        states whose processes sit at different script stages read
        different detector values from here on), canonicalised under
        the valid subset of the engine's permutation group.
        """
        host_units = self._host_units()
        buffer_entries = [self._buffer_entries(d) for d in range(self.n)]
        decision_entries = self._decision_entries(first_crash)
        operation_entries = self._operation_entries()
        time_part = b"|t%d;" % now if crashes_pending else b"|tN;"
        por_part = None
        if por:
            fresh_entries = [
                (m.sender, m.dest, self._message_unit(m)) for m in fresh
            ]
            por_part = (prev, boundary, fresh_entries)

        ambiguous: set = set()
        opaque = False
        for unit in host_units:
            ambiguous |= unit.ambiguous
            opaque = opaque or unit.opaque
        for entries in buffer_entries:
            for _, unit in entries:
                ambiguous |= unit.ambiguous
                opaque = opaque or unit.opaque
        for _, unit in decision_entries:
            ambiguous |= unit.ambiguous
            opaque = opaque or unit.opaque
        for _, unit in operation_entries:
            ambiguous |= unit.ambiguous
            opaque = opaque or unit.opaque
        if por_part is not None:
            for _, _, unit in por_part[2]:
                ambiguous |= unit.ambiguous
                opaque = opaque or unit.opaque

        args = (
            host_units,
            buffer_entries,
            decision_entries,
            operation_entries,
            time_part,
            por_part,
            cursors,
        )
        best = self._assemble(self.perms[0], *args)
        for perm in self.perms[1:]:
            # Valid only when every untagged pid reference is fixed —
            # moving tagged slots around an unmoved untagged reference
            # would relabel the state inconsistently.
            if all(perm[a] == a for a in ambiguous):
                candidate = self._assemble(perm, *args)
                if candidate < best:
                    best = candidate
        if self.counters is not None:
            if opaque:
                self.counters.explore_opaque_tokens += 1
            self.counters.explore_fp_nodes += self._encoder.nodes - self._nodes_synced
            self._nodes_synced = self._encoder.nodes
        digest = hashlib.sha256(best).hexdigest()
        return OPAQUE_MARK + digest if opaque else digest
