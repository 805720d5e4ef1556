"""Perf counters for the simulation hot path.

A :class:`PerfCounters` value is a flat bag of integers incremented by
the network buffers, the run loop and the detector history while a
:class:`~repro.sim.system.System` executes.  The counters are
*observability*, not semantics: two runs of the same spec on different
engine implementations (reference vs indexed buffers) produce identical
traces but legitimately different counters — so they are excluded
from every determinism digest and only ever compared as performance
evidence.

Counter semantics (see ``docs/PERF.md`` for the full story):

``ticks``
    Steps recorded by the run loop.
``lambda_steps``
    Steps in which no message was delivered.
``messages_sent`` / ``messages_delivered``
    Mirror of the network's send/deliver totals.
``messages_scanned``
    Buffer entries examined while building ready lists or picking a
    message.  The headline machine-independent metric: the reference
    buffer scans O(pending) per pick, the indexed buffer amortizes to
    O(1 + log pending); ``messages_scanned / messages_delivered`` is
    what ``tests/sim/test_network_indexed.py`` gates on.
``ready_promotions``
    Messages moved from the not-yet-ready heap into the ready pool.
``heap_pushes`` / ``heap_pops``
    Indexed-buffer heap operations (zero on the reference engine).
``fast_path_picks``
    Deliveries served by the oldest-first indexed fast path without
    materializing a ready list.
``detector_value_calls`` / ``detector_cache_hits``
    History reads (:meth:`FailureDetectorHistory.value` calls), and
    the reads answered from the process's current constant segment
    without asking the oracle.  In a lite-trace run the reads are the
    protocol's own and fewer than ``ticks``; a full trace adds one
    sample per tick.
``explore_runs`` / ``explore_states``
    Bounded model checker (:mod:`repro.explore`): controlled replays
    executed, and distinct choice-tree nodes whose post-state was
    fingerprinted.
``explore_dedup_hits`` / ``explore_por_pruned``
    Subtrees cut by the visited-state table, and scheduler/delivery
    alternatives suppressed by the partial-order reduction.
``explore_violations``
    Explored traces whose clause-level verdict broke a safety clause.
``explore_rewinds`` / ``explore_hosts_rebuilt``
    Times the explorer's live system was rewound to the divergence tick
    of the next path instead of being rebuilt (every run but the first
    of a root), and the host objects built anew and brought to their
    process's state — counted where it happens, at materialization:
    when a step never taken before, a host-encoding miss or a stop
    predicate needs an object that a rewind or a run of served steps
    left in another state (or, for a process's first object on a newly
    built system, nowhere).
``explore_replay_steps``
    Work executed a second time: process steps re-fed to rebuilt hosts
    by local replay, plus prefix choices consumed again inside the
    divergence tick (for a run that builds its system — the first of a
    root — every prefix choice).  The measurable redundancy
    left in the search (see ``docs/EXPLORER.md``).
``explore_steps_executed`` / ``explore_steps_served``
    The explorer's fresh ticks, split: steps in which a host object ran
    the protocol code, and steps whose recorded effects were emitted
    from the root's transition table because the same process had
    taken the same step ⟨m, d⟩ at the same tick from the same local
    history before.  ``naive`` mode serves nothing; on a cold table
    ``explore_steps_executed`` is the number of distinct steps.
``explore_fp_nodes``
    Value-tree nodes visited while encoding state fingerprints.  The
    headline explorer metric: the incremental engine encodes a local
    state or a message once, the naive engine re-encodes everything at
    every tick; ``tests/explore/test_fingerprint_equivalence.py``
    gates on the first staying below the second.
``explore_fp_host_hits`` / ``explore_fp_host_misses``
    Per-host canonical encodings served from the lineage cache
    (keyed on the process's own step history, kept across rewinds),
    respectively hosts encoded.
``explore_fp_lineages``
    Distinct local histories interned by the fingerprint engine, one
    per distinct step put on record.  Every state a process reaches is
    named, the leaf states included, but only the ones a fingerprint
    meets are ever encoded — so this is *not* a floor of
    ``explore_fp_host_misses`` (it is several times larger on a deep
    tree); the misses' floor is the lineages alive at some fingerprint.
``explore_fp_message_hits`` / ``explore_fp_message_misses``
    Per-message encodings served from (respectively computed into) the
    ``msg_id`` memo shared by the buffer section, the POR context and
    the lineage keys.
``explore_opaque_tokens``
    Fingerprints poisoned by an unencodable value: each one gets a
    never-matching token, so dedup silently degrades toward plain DFS.
    Nonzero values here explain a low dedup-hit rate.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

FIELDS = (
    "ticks",
    "lambda_steps",
    "messages_sent",
    "messages_delivered",
    "messages_scanned",
    "ready_promotions",
    "heap_pushes",
    "heap_pops",
    "fast_path_picks",
    "detector_value_calls",
    "detector_cache_hits",
    "explore_runs",
    "explore_states",
    "explore_dedup_hits",
    "explore_por_pruned",
    "explore_violations",
    "explore_rewinds",
    "explore_hosts_rebuilt",
    "explore_replay_steps",
    "explore_steps_executed",
    "explore_steps_served",
    "explore_fp_nodes",
    "explore_fp_host_hits",
    "explore_fp_host_misses",
    "explore_fp_lineages",
    "explore_fp_message_hits",
    "explore_fp_message_misses",
    "explore_opaque_tokens",
)


class PerfCounters:
    """A flat, mergeable registry of hot-path counters."""

    __slots__ = FIELDS

    def __init__(self) -> None:
        for name in FIELDS:
            setattr(self, name, 0)

    # -- export / aggregation ------------------------------------------
    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in FIELDS}

    def merge(self, other: Mapping[str, int]) -> None:
        """Add another counter snapshot (dict or PerfCounters) in place."""
        if isinstance(other, PerfCounters):
            other = other.as_dict()
        for name, value in other.items():
            if name in self.__slots__:
                setattr(self, name, getattr(self, name) + int(value))

    # -- derived ratios -------------------------------------------------
    def scanned_per_delivery(self) -> float:
        """Buffer entries examined per delivered message (amortized)."""
        if not self.messages_delivered:
            return 0.0
        return self.messages_scanned / self.messages_delivered

    def detector_hit_rate(self) -> float:
        if not self.detector_value_calls:
            return 0.0
        return self.detector_cache_hits / self.detector_value_calls

    def __repr__(self) -> str:
        busy = {k: v for k, v in self.as_dict().items() if v}
        return f"PerfCounters({busy})"


def aggregate(snapshots: Iterable[Mapping[str, int]]) -> Dict[str, int]:
    """Sum counter dicts (e.g. the ``perf`` field of many RunSummaries)."""
    total = PerfCounters()
    for snap in snapshots:
        if snap:
            total.merge(snap)
    return total.as_dict()
