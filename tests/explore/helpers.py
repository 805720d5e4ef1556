"""Shared pieces of the explorer tests.

``split_roots`` cuts a root into shards with the two ``explore_case``
arguments made for it (``choice_limit`` + ``shard_roots``).
``explore_case_dynamic`` runs one case through the frontier and hands
back an ``ExploreResult``, the shape the serial walk is compared in.  ``toy_target`` registers a one-component target
built to break a weaker key or a weaker table.  ``NETWORKS`` names the
production buffer and its oracle for the suites that run on both: no
option selects a network, so they swap the class ``System`` constructs
(``with network_implementation(NETWORKS[name]):``) around a serial walk.
"""

from repro.chaos.targets import TARGETS, Target
from repro.explore import (
    ExploreCase,
    ExploreOptions,
    explore_case,
    result_from_summary,
    run_frontier,
)
from repro.explore.cases import resolve_parts
from repro.runner import call
from repro.sim.network import Network, ReferenceNetwork

NETWORKS = {"indexed": Network, "reference": ReferenceNetwork}


def never(system):
    return False


def no_metrics(system, trace):
    return {}


def never_spec():
    return never


def no_metrics_spec():
    return no_metrics


def toy_target(monkeypatch, name, factory, stop=never_spec):
    """Register a one-component target for the duration of a test;
    returns a case maker.  ``factory`` and ``stop`` are module-level
    spec functions (campaign cells import them by name)."""

    def build(n, seed, horizon, knobs):
        return dict(
            components=[(name, call(factory))],
            stop=call(stop),
            summarize=call(no_metrics_spec),
        )

    monkeypatch.setitem(TARGETS, name, Target(name, build, safety_clauses=()))
    resolve_parts.cache_clear()
    return lambda **fields: ExploreCase(
        target=name, assignment=(("sigma", (0, 1)),) * fields["n"], **fields
    )


def violation_set(result):
    """A result's violations, as comparable across walks as they get."""
    return {(v.violated, v.decisions) for v in result.violations}


def without_frontier_block(summaries):
    """The summaries minus the ``frontier`` block, which is each call's own."""
    return [{k: v for k, v in s.items() if k != "frontier"} for s in summaries]


def explore_case_dynamic(case, options=ExploreOptions(), **fleet):
    """One case through ``run_frontier``, as an ``ExploreResult``.

    ``fleet`` is ``run_frontier``'s own keywords (workers, cache, run
    bounds); the frontier block rides along as ``result.frontier``.
    """
    (summary,) = run_frontier([case], options, **fleet)
    result = result_from_summary(summary)
    result.frontier = dict(summary.get("frontier", {}))
    return result


def split_roots(case, choice_limit, options=ExploreOptions(), visited=None):
    """Judge the leaves shallower than ``choice_limit`` choices; returns
    ``(shallow result, halted prefixes)`` — the prefixes are the shard
    roots that cover the rest of the tree."""
    roots = []
    shallow = explore_case(
        case, options, choice_limit=choice_limit, shard_roots=roots,
        visited=visited,
    )
    return shallow, roots
