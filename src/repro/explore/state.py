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
  ``(sender, component, payload)``.  Message ids are deliberately
  excluded (they encode the path, not the state), and so is
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
state *opaque*, and an opaque state's key is unique to the fingerprint
call that produced it, so unknown values can cause missed merges but
never a wrong one — dedup degrades toward plain DFS, never toward
unsoundness.

One implementation produces the keys: the byte engine
(:class:`FingerprintEngine` over :class:`_Encoder`).  It encodes values
bottom-up into self-delimiting byte strings (the encoded bytes double
as the stable sort keys of unordered containers), caches per-host and
per-destination encodings across ticks keyed on dirty tracking, and can
canonicalise the assembled state under a group of process-id
permutations (symmetry reduction — see :mod:`repro.explore.symmetry`
and ``docs/EXPLORER.md`` for the soundness argument).  Its ``naive``
mode runs the identical encoding with every cache disabled and its
``native`` mode serves it from the compiled encoder; tier-1 equivalence
suites assert the three produce byte-identical digest sequences.
"""

from __future__ import annotations

import hashlib
import types
from random import Random
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
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


#: Interned ambiguity sets, keyed by the compiled encoder's bit mask.
#: Real states mention only a handful of distinct pid subsets, so the
#: native unit builders (which report ambiguity as an int mask) can
#: share one frozenset per subset instead of materialising a set per
#: unit.
_MASK_SETS: Dict[int, FrozenSet[int]] = {0: frozenset()}


def _mask_set(mask: int) -> FrozenSet[int]:
    cached = _MASK_SETS.get(mask)
    if cached is None:
        cached = _MASK_SETS[mask] = frozenset(
            bit for bit in range(mask.bit_length()) if mask >> bit & 1
        )
    return cached


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

    One engine serves one :func:`~repro.explore.engine.explore_case`
    call: :meth:`begin_run` binds it to the search's live system,
    :meth:`fingerprint` produces the dedup key at the start of each
    tick, and :meth:`rewound` tells it which cache entries a rewind
    made stale — the rest survive from path to path.  Three modes share
    one encoding:

    * ``"incremental"`` — per-host encodings are reused while the
      host's ``steps_taken`` is unchanged (hosts only mutate inside
      their own ``take_step``, so the step counter self-validates the
      cache); per-destination buffer encodings are reused until the
      destination is dirtied (a message was sent to it, or its owner
      acted and may have consumed one); decision encodings are
      append-only; completed-operation encodings are frozen.
    * ``"naive"`` — the identical encoding with every cache disabled,
      the oracle the equivalence suite compares byte-for-byte against.
    * ``"native"`` — incremental caching with the value encoder served
      by the compiled core (:mod:`repro._native`).  The C encoder is a
      byte-exact port of :class:`_Encoder`, so digests stay identical
      to ``"incremental"``; when the extension is unavailable (not
      built, or ``REPRO_NATIVE=0``) the mode silently degrades to the
      pure incremental path — same digests, just slower.

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

    **Opacity.** When any encoded value is opaque the assembly gets a
    ``(run serial, tick)`` suffix — unique per fingerprint call within
    this engine, so the state can never merge with anything while
    staying deterministic, which keeps naive and incremental
    byte-identical.
    The ``explore_opaque_tokens`` counter makes the degradation
    visible.
    """

    MODES = ("incremental", "naive", "native")

    def __init__(
        self,
        n: int,
        mode: str = "incremental",
        counters: Any = None,
        perms: Optional[Sequence[Tuple[int, ...]]] = None,
    ):
        if mode not in self.MODES:
            raise ValueError(f"unknown fingerprint mode {mode!r}; have {self.MODES}")
        self.n = n
        self.mode = mode
        #: Whether per-host/buffer/decision/operation caches are live
        #: (everything but ``naive``; the caches are mode-independent
        #: of *how* values get encoded).
        self.cached = mode != "naive"
        self.counters = counters
        self.perms: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(p) for p in (perms or [tuple(range(n))])
        )
        self.native = False
        if mode == "native":
            from repro import _native

            encoder_cls = _native.encoder_class()
            if encoder_cls is not None and n <= 64:
                self._encoder = encoder_cls(n)
                self.native = True
            else:  # graceful degradation: same digests, pure Python
                self._encoder = _Encoder(n)
        else:
            self._encoder = _Encoder(n)
        self._nodes_synced = 0
        self._calls_synced = 0
        self._bytes_synced = 0
        self._run_serial = 0
        self._system: Any = None
        # caches (all modes but naive); see :meth:`rewound` for what
        # survives from one explored path to the next
        #: Per pid: ``(steps_taken, _started)`` -> the host's encoding
        #: at that version *on the current path*.
        self._host_cache: List[Dict[Tuple[int, bool], EncodedUnit]] = [
            {} for _ in range(n)
        ]
        self._buffer_cache: Dict[int, List[Tuple[int, EncodedUnit]]] = {}
        self._dirty: set = set()
        self._decision_cache: List[Tuple[int, EncodedUnit]] = []
        self._operation_cache: List[Optional[Tuple[int, EncodedUnit]]] = []

    # -- lifecycle ------------------------------------------------------
    def begin_run(self, system: Any) -> None:
        """Bind to a newly built system: nothing cached applies to it."""
        self._run_serial += 1
        self._system = system
        for versions in self._host_cache:
            versions.clear()
        self._buffer_cache.clear()
        self._dirty = set(range(self.n))
        self._decision_cache = []
        self._operation_cache = []

    def rewound(self, rebuilt: Iterable[ProcessHost], decisions: int) -> None:
        """The bound system was rewound: drop exactly what went stale.

        A process's state is a function of its own steps, so the host
        cache — keyed on ``(steps_taken, _started)`` — stays right for
        every version a host has on the path that was kept: all
        versions of a host that was not rebuilt, and the versions up to
        its re-fed step count of a ``rebuilt`` one.  Only the later
        versions of a rebuilt host go: it will pass through those
        counts again in different states.  The network was restored
        wholesale, so every destination is dirty.  Decisions are
        append-only and ``decisions`` of them were kept; operation
        records of rebuilt hosts were reset, so that cache is cleared.
        """
        self._run_serial += 1
        for host in rebuilt:
            versions = self._host_cache[host.pid]
            for version in [v for v in versions if v[0] > host.steps_taken]:
                del versions[version]
        self._dirty = set(range(self.n))
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
        if self.native:
            # The tasklet name (``"comp@pid"``) is cosmetic and
            # pid-derived, so it is excluded here exactly as in the
            # pure build below.
            data, mask, opaque = self._encoder.enc_host(
                host._started,
                sorted(host.components.items()),
                [
                    (task.started, task.wait, task.gen)
                    for task in host._driver._tasklets
                    if not task.done
                ],
            )
            return EncodedUnit(data, _mask_set(mask), opaque)

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

    def _host_units(self) -> List[EncodedUnit]:
        counters = self.counters
        units = []
        for pid, host in enumerate(self._system.hosts):
            if self.cached:
                version = (host.steps_taken, host._started)
                versions = self._host_cache[pid]
                unit = versions.get(version)
                if unit is not None:
                    if counters is not None:
                        counters.explore_fp_host_hits += 1
                    units.append(unit)
                    continue
                if counters is not None:
                    counters.explore_fp_host_misses += 1
                unit = versions[version] = self._encode_host(host)
            else:
                unit = self._encode_host(host)
            units.append(unit)
        return units

    def _buffer_entries(self, dest: int) -> List[Tuple[int, EncodedUnit]]:
        if self.cached and dest not in self._dirty:
            cached = self._buffer_cache.get(dest)
            if cached is not None:
                return cached
        entries = []
        if self.native:
            enc_pair = self._encoder.enc_pair
            for message in self._system.network.in_flight(dest):
                data, mask, opaque = enc_pair(message.component, message.payload)
                entries.append(
                    (message.sender, EncodedUnit(data, _mask_set(mask), opaque))
                )
            if self.cached:
                self._buffer_cache[dest] = entries
            return entries
        for message in self._system.network.in_flight(dest):
            # The sender is kept outside the encoded bytes: it is a
            # *tagged* pid position, relabeled at assembly time.
            unit = self._unit(
                lambda enc, m=message: enc.enc(m.component) + enc.enc(m.payload)
            )
            entries.append((message.sender, unit))
        if self.cached:
            self._buffer_cache[dest] = entries
        return entries

    def _decision_entries(self, first_crash: Optional[int]) -> List[Tuple[int, EncodedUnit]]:
        decisions = self._system.trace.decisions
        cache = self._decision_cache if self.cached else []
        while len(cache) < len(decisions):  # append-only record
            decision = decisions[len(cache)]
            postcrash = first_crash is not None and decision.time >= first_crash
            if self.native:
                data, mask, opaque = self._encoder.enc_decision(
                    decision.component, decision.value, postcrash
                )
                unit = EncodedUnit(data, _mask_set(mask), opaque)
            else:
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
            if self.native:
                data, mask, opaque = self._encoder.enc_operation(
                    op.component,
                    op.kind,
                    op.args,
                    op.invoke_time,  # timestamps, never pids
                    op.response_time,
                    op.result,
                )
                unit = EncodedUnit(data, _mask_set(mask), opaque)
            else:
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
        if self.cached:
            if prev is not None:
                self._dirty.add(prev)  # its buffer may have drained
            for message in fresh:
                self._dirty.add(message.dest)
        host_units = self._host_units()
        buffer_entries = [self._buffer_entries(d) for d in range(self.n)]
        if self.cached:
            self._dirty.clear()
        decision_entries = self._decision_entries(first_crash)
        operation_entries = self._operation_entries()
        time_part = b"|t%d;" % now if crashes_pending else b"|tN;"
        por_part = None
        if por:
            if self.native:
                enc_pair = self._encoder.enc_pair
                fresh_entries = []
                for m in fresh:
                    data, mask, opaque = enc_pair(m.component, m.payload)
                    fresh_entries.append(
                        (m.sender, m.dest, EncodedUnit(data, _mask_set(mask), opaque))
                    )
            else:
                fresh_entries = [
                    (
                        m.sender,
                        m.dest,
                        self._unit(
                            lambda enc, msg=m: enc.enc(msg.component)
                            + enc.enc(msg.payload)
                        ),
                    )
                    for m in fresh
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
        if opaque:
            best += b"!%d@%d;" % (self._run_serial, now)
            if self.counters is not None:
                self.counters.explore_opaque_tokens += 1
        if self.counters is not None:
            self.counters.explore_fp_nodes += self._encoder.nodes - self._nodes_synced
            self._nodes_synced = self._encoder.nodes
            if self.native:
                encoder = self._encoder
                self.counters.explore_native_calls += (
                    encoder.calls - self._calls_synced
                )
                self.counters.native_encode_bytes += (
                    encoder.bytes_encoded - self._bytes_synced
                )
                self._calls_synced = encoder.calls
                self._bytes_synced = encoder.bytes_encoded
        return hashlib.sha256(best).hexdigest()
