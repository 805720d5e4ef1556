"""Shared pieces of the explorer tests.

The frontier enqueues a root as one bare item and lets starved
workers split it; tests that orchestrate the queue themselves want
several items whose prefixes they know.  ``split_roots`` and
``enqueue_case`` cut a root into shards by hand, with the same two
``explore_case`` arguments the workers' re-split uses (``choice_limit``
+ ``shard_roots``).  ``toy_target`` registers a one-component target
built to break a weaker key or a weaker table.  ``NETWORKS`` names the
production buffer and its oracle for the suites that run on both: no
option selects a network, so they swap the class ``System`` constructs
(``with network_implementation(NETWORKS[name]):``) around a serial walk.
"""

from dataclasses import asdict

from repro.chaos.targets import TARGETS, Target
from repro.explore import ExploreCase, ExploreOptions, explore_case
from repro.explore.cases import case_to_dict, resolve_parts
from repro.explore.frontier import result_to_dict
from repro.runner import call
from repro.sim.network import Network, ReferenceNetwork
from repro.store.exchange import FingerprintExchange, exchange_scope

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


def split_roots(case, choice_limit, options=ExploreOptions(), exchange=None):
    """Judge the leaves shallower than ``choice_limit`` choices; returns
    ``(shallow result, halted prefixes)`` — the prefixes are the shard
    roots that cover the rest of the tree."""
    roots = []
    shallow = explore_case(
        case, options, choice_limit=choice_limit, shard_roots=roots,
        exchange=exchange,
    )
    return shallow, roots


def enqueue_case(store, case, queue_scope, choice_limit=4,
                 options=ExploreOptions()):
    """Pre-split ``case`` and enqueue its shard roots under
    ``queue_scope``; returns ``(shallow summary, number of items)``.

    The shallow walk is complete (its deferred subtrees are exactly the
    items), so its states are published before any shard seeds.
    """
    case_dict = case_to_dict(case)
    scope = exchange_scope(case_dict, asdict(options)) + ":test"
    exchange = FingerprintExchange(store, scope)
    shallow, roots = split_roots(case, choice_limit, options, exchange)
    store.publish_fingerprints(scope, exchange.take_pending())
    store.enqueue_work(
        queue_scope,
        [
            {"case": case_dict, "prefix": list(r), "scope": scope,
             "case_index": 0}
            for r in roots
        ],
    )
    store.flush()
    return result_to_dict(shallow), len(roots)
