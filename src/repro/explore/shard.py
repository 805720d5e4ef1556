"""Sharded subtree search: one case's tree as a runner campaign.

A single deep case can dwarf every other frontier root (nbac at n=3 is
thousands of runs), and one :func:`~repro.explore.engine
.explore_case` call is inherently serial.  The shard layer splits the
case's choice tree at a configurable *choice-frontier* depth and runs
the subtrees as independent :class:`~repro.runner.campaign.Campaign`
cells:

1. **Split** (:func:`split_case`): a bounded "splitter" DFS explores
   the tree with ``choice_limit`` set — any run whose recorded choice
   log reaches the limit is halted at the start of the next tick and
   its taken prefix becomes a shard root.  Leaves shallower than the
   limit are judged inline by the splitter itself.  Shard roots are
   pairwise disjoint subtrees: any two sibling prefixes differ at some
   recorded position, so no leaf is double-judged.
2. **Work** (:func:`explore_shard`): each shard re-enters
   ``explore_case`` with ``initial_stack=[root]`` — replaying into the
   subtree and exhausting it.  Module-level with primitive arguments,
   so campaign workers can import it and the result cache can
   fingerprint it.
3. **Merge** (:func:`merge_summaries`): stats are summed, decision
   vectors unioned, violations concatenated, ``complete`` AND-ed.

**Cross-shard dedup.**  Without a store, each shard deduplicates
against states recorded inside its own subtree only.  A state reached
in shard A that was already explored in shard B is *not* merged — the
walk degrades toward plain DFS across the shard boundary, re-exploring
work but never skipping it.  Passing ``store=`` to
:func:`explore_case_sharded` recovers the lost dedup: the splitter and
every shard share one visited set through the campaign database's
``fingerprints`` table (:class:`repro.store.exchange
.FingerprintExchange`) — each shard seeds its visited dict from the
table, publishes its states **once its walk completes** (deferred
publication; a cell that dies mid-walk publishes nothing, so retries
never dedup against unexhausted subtrees), and pulls the delta other
shards inserted since its last sync.  With sequential shards
(``workers=1``) the recovery is exact: the merged walk visits no more
states than the single-process one (``tests/explore/test_shared_dedup
.py`` and the BENCH_explore sharded gate pin this); parallel shards
may re-explore states a sibling has not yet published — redundancy,
never lost coverage.

The splitter's own dedup may drop a would-be shard root whose cutoff
state an earlier splitter run already recorded with at least as many
ticks remaining — sound for the same reason dedup is always sound: the
recording path's subtree (be it splitter-inline or inside the earlier
shard) covers the dropped one's continuations.  Shard roots can sit
slightly deeper than the nominal cutoff: a popped prefix that already
exceeds the limit halts at its first post-replay tick, never
mid-replay, so the deferred subtree is re-entered exactly where the
splitter left it.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.explore.cases import ExploreCase, case_from_dict, case_to_dict
from repro.explore.engine import ExploreResult, Violation, explore_case
from repro.explore.frontier import result_to_dict
from repro.runner import Campaign, call, fn_spec
from repro.sim.perf import PerfCounters


def split_case(
    case: ExploreCase,
    engine: str = "indexed",
    por: bool = True,
    dedup: bool = True,
    choice_limit: int = 6,
    symmetry: Any = None,
    fingerprint_mode: str = "incremental",
    exchange: Any = None,
) -> Tuple[ExploreResult, List[Tuple[int, ...]]]:
    """Phase 1: judge the shallow leaves, collect the shard roots."""
    shard_roots: List[Tuple[int, ...]] = []
    shallow = explore_case(
        case,
        engine=engine,
        por=por,
        dedup=dedup,
        symmetry=symmetry,
        fingerprint_mode=fingerprint_mode,
        choice_limit=choice_limit,
        shard_roots=shard_roots,
        exchange=exchange,
    )
    return shallow, shard_roots


def explore_shard(
    case_dict: Dict[str, Any],
    prefix: Sequence[int],
    engine: str = "indexed",
    por: bool = True,
    dedup: bool = True,
    symmetry: Any = None,
    fingerprint_mode: str = "incremental",
    store_path: Optional[str] = None,
    scope: Optional[str] = None,
    exchange_batch: int = 256,
) -> Dict[str, Any]:
    """One campaign cell: exhaust one shard subtree, return its summary.

    ``store_path``/``scope`` (both or neither) join the shard to the
    shared visited set: states other shards published are dedup hits
    here, and this shard's new states are published back.
    """
    from repro.sim.perf import PerfCounters
    from repro.store.exchange import open_exchange

    # The exchange shares the walk's counter bag so its store read
    # round-trips surface as ``exchange_pulls`` in the cell's summary.
    counters = PerfCounters()
    exchange = open_exchange(
        store_path, scope, batch=exchange_batch, counters=counters
    )
    try:
        result = explore_case(
            case_from_dict(case_dict),
            engine=engine,
            por=por,
            dedup=dedup,
            counters=counters,
            symmetry=symmetry,
            fingerprint_mode=fingerprint_mode,
            initial_stack=[tuple(prefix)],
            exchange=exchange,
        )
        if exchange is not None:
            # Deferred publication (see repro.store.exchange): only a
            # walk that ran to completion may claim coverage.  A cell
            # that dies mid-walk publishes nothing, so its retry (or a
            # sibling shard) never dedup-halts on unexhausted states.
            exchange.publish_pending()
    finally:
        if exchange is not None:
            exchange.store.close()
    return result_to_dict(result)


def merge_summaries(
    base: Dict[str, Any], shard_summaries: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Fold shard summaries into the splitter's summary dict.

    ``states``/``dedup_hits`` are per-visited-set figures, so the sums
    can double-count states reached in several shards — documented
    cost of the independent visited sets, never a soundness issue.
    """
    merged = dict(base)
    merged["stats"] = dict(base["stats"])
    counters = PerfCounters()
    counters.merge(base.get("counters", {}))
    vectors = {tuple(tuple(entry) for entry in v) for v in base["decision_vectors"]}
    violations = list(base["violations"])
    incidents = list(base.get("incidents", []))
    complete = base["complete"]
    for summary in shard_summaries:
        for key, value in summary["stats"].items():
            merged["stats"][key] = merged["stats"].get(key, 0) + value
        counters.merge(summary.get("counters", {}))
        vectors.update(
            tuple(tuple(entry) for entry in v)
            for v in summary["decision_vectors"]
        )
        violations.extend(summary["violations"])
        incidents.extend(summary.get("incidents", []))
        complete = complete and summary["complete"]
    counters.explore_shards += len(shard_summaries)
    merged["stats"]["shards"] = counters.explore_shards
    merged["stats"]["violations"] = len(violations)
    merged["stats"]["decision_vectors"] = len(vectors)
    merged["counters"] = counters.as_dict()
    merged["decision_vectors"] = sorted([list(e) for e in v] for v in vectors)
    merged["violations"] = violations
    merged["incidents"] = incidents
    merged["complete"] = complete
    merged["shards"] = len(shard_summaries)
    return merged


def _result_from_summary(case: ExploreCase, summary: Dict[str, Any]) -> ExploreResult:
    """Rehydrate a merged summary into an ExploreResult for API users."""
    counters = PerfCounters()
    counters.merge(summary.get("counters", {}))
    result = ExploreResult(
        case=case,
        engine=summary["engine"],
        por=summary["por"],
        dedup=summary["dedup"],
        runs=summary["stats"]["runs"],
        states=summary["stats"]["states"],
        dedup_hits=summary["stats"]["dedup_hits"],
        por_pruned=summary["stats"]["por_pruned"],
        complete=summary["complete"],
        counters=counters,
        symmetry=summary.get("symmetry", False),
        fingerprint_mode=summary.get("fingerprint_mode", "incremental"),
    )
    result.incidents = list(summary.get("incidents", []))
    result.decision_vectors = {
        tuple(tuple(entry) for entry in vector)
        for vector in summary["decision_vectors"]
    }
    for raw in summary["violations"]:
        result.violations.append(
            Violation(
                case=case,
                engine=summary["engine"],
                choices=tuple(raw["choices"]),
                violated=tuple(raw["violated"]),
                metrics={},
                decisions=tuple(tuple(d) for d in raw["decisions"]),
                final_time=raw["final_time"],
                por=summary["por"],
            )
        )
    return result


def explore_case_sharded(
    case: ExploreCase,
    engine: str = "indexed",
    por: bool = True,
    dedup: bool = True,
    shard_depth: int = 6,
    workers: Optional[int] = None,
    cache: Any = False,
    symmetry: Any = None,
    fingerprint_mode: str = "incremental",
    store: Any = None,
    exchange_batch: int = 256,
) -> ExploreResult:
    """Exhaust one case with its subtrees fanned out as campaign cells.

    ``shard_depth`` is the choice-frontier cutoff (counted in recorded
    choices, ≈ two per tick).  Equivalent to :func:`explore_case` in
    decision vectors, violations and completeness; ``runs``/``states``
    may exceed the serial walk's by the cross-shard redundancy the
    module doc describes.

    ``store`` (a :class:`~repro.store.db.ResultStore`, a store
    directory, or a ``.sqlite`` path) turns on the shared visited set:
    splitter and shards exchange fingerprints through the store, and
    with ``workers=1`` the merged ``states`` never exceeds the
    single-process walk's.  The exchange scope is salted with a fresh
    per-invocation token and its rows are cleared once the search
    merges — the shared set coordinates shards *within* one search; a
    later independent search must not dedup against a finished one
    (it would skip subtrees whose results live in the earlier run's
    report, not its own).
    """
    store_path: Optional[str] = None
    scope: Optional[str] = None
    splitter_exchange = None
    opened = None
    owned = False
    if store is not None:
        from repro.store.db import ResultStore
        from repro.store.exchange import FingerprintExchange, exchange_scope

        owned = not isinstance(store, ResultStore)
        opened = ResultStore(store) if owned else store
        store_path = str(opened.path)
        scope = "{}:{}".format(
            exchange_scope(
                case_to_dict(case), engine, por, dedup, symmetry,
                fingerprint_mode,
            ),
            os.urandom(8).hex(),
        )
        splitter_exchange = FingerprintExchange(
            opened, scope, batch=exchange_batch
        )
    try:
        shallow, shard_roots = split_case(
            case,
            engine=engine,
            por=por,
            dedup=dedup,
            choice_limit=shard_depth,
            symmetry=symmetry,
            fingerprint_mode=fingerprint_mode,
            exchange=splitter_exchange,
        )
        if splitter_exchange is not None:
            # The splitter's walk is complete (its deferred subtrees are
            # exactly the shard roots dispatched below), so its states
            # may claim coverage now — before any shard seeds its
            # visited set.
            splitter_exchange.publish_pending()
            splitter_exchange.store.flush()
        base = result_to_dict(shallow)
        if not shard_roots:
            merged = merge_summaries(base, [])
            return _result_from_summary(case, merged)
        extra: Dict[str, Any] = {}
        if store_path is not None:
            # Only present when a store is in play, so cache fingerprints
            # of store-less sharded runs are unchanged from earlier
            # releases.
            extra = {
                "store_path": store_path,
                "scope": scope,
                "exchange_batch": exchange_batch,
            }
        jobs = [
            fn_spec(
                call(
                    explore_shard,
                    case_to_dict(case),
                    list(root),
                    engine=engine,
                    por=por,
                    dedup=dedup,
                    symmetry=symmetry,
                    fingerprint_mode=fingerprint_mode,
                    **extra,
                ),
                target=case.target,
                shard=index,
                engine=engine,
            )
            for index, root in enumerate(shard_roots)
        ]
        campaign = Campaign(jobs, name="explore-shards")
        outcome = campaign.run(workers=workers, cache=cache)
        # Partial-merge semantics: a shard cell that failed even after
        # the executor's retries must not discard its siblings' finished
        # work.  Completed summaries merge as usual; each failure
        # becomes a structured incident and forces complete=False — the
        # honest verdict, since that subtree was not exhausted.
        done = [s.value for s in outcome.summaries if not s.failed]
        merged = merge_summaries(base, done)
        incidents = list(merged.get("incidents", []))
        incidents.extend(outcome.incidents)
        for failure in outcome.failures:
            incidents.append(
                {
                    "kind": "shard-failed",
                    "shard": failure.tags.get("shard"),
                    "failure_kind": failure.kind,
                    "error_type": failure.error_type,
                    "message": failure.message,
                    "attempts": failure.attempts,
                }
            )
        merged["incidents"] = incidents
        if not outcome.ok:
            merged["complete"] = False
        return _result_from_summary(case, merged)
    finally:
        if opened is not None:
            opened.release_scope(scope)
            if owned:
                opened.close()
