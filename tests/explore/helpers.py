"""Shared pieces of the explorer tests.

``prefixes`` names interior points of a root's tree, the paths a plain
walk takes cut to a length, for the oracles that start a walk mid-tree
(``explore_case``'s ``initial_stack``).
``explore_case_dynamic`` runs one case through the frontier and hands
back an ``ExploreResult``, the shape the serial walk is compared in.
``toy_target`` registers a one-component target built to break a weaker
key or a weaker table.  ``NETWORKS`` names the
production buffer and its oracle for the suites that run on both: no
option selects a network, so they swap the class ``System`` constructs
(``with network_implementation(NETWORKS[name]):``) around a serial walk.
"""

from unittest import mock

from repro.chaos.targets import TARGETS, Target
from repro.explore import engine
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



def prefixes(case, length, options=ExploreOptions()):
    """The distinct ``length``-choice prefixes of the paths a plain walk
    of ``case`` takes, in the order the walk first takes them."""
    seen = {}
    real_run = engine._LiveSystem.run

    def recording_run(live, prefix):
        trace = real_run(live, prefix)
        taken = tuple(point.chosen for point in live.controller.log)
        if len(taken) >= length:
            seen.setdefault(taken[:length], None)
        return trace

    with mock.patch.object(engine._LiveSystem, "run", recording_run):
        explore_case(case, options)
    return list(seen)
