"""A walk shares nothing with another walk but its cell's cache entry.

Each root is one :func:`~repro.explore.frontierd.walk_root` cell of the
frontier's campaign, walked on its own visited set.  What may be served
instead of a walk is what the cell key names: the case, every field of
``ExploreOptions``, both run bounds (and the code salt the store adds),
so two searches that could differ never share a key.  Without a cache
a re-run is a whole new search.
"""

import dataclasses

from repro.explore import ExploreCase, ExploreOptions, run_frontier
from repro.runner.summary import FnSummary
from tests.explore.helpers import explore_case_dynamic


class _KeyedCache:
    """Serves every cell an empty summary and keeps the key it asked for."""

    def __init__(self):
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        return FnSummary(key, {}, {})

    def drain_events(self):
        return []


def cell_key(case, options=ExploreOptions(), **bounds):
    """The cache key ``run_frontier`` gives ``case``'s cell."""
    cache = _KeyedCache()
    run_frontier([case], options, cache=cache, **bounds)
    (key,) = cache.keys
    return key


class TestExchangeMechanics:
    def test_scope_covers_fingerprint_shaping_options(self):
        # Every field of ExploreOptions is in the key — iterated, so a
        # field added later cannot be forgotten — and so are the bounds.
        case = ExploreCase(target="nbac", n=2, depth=4)
        base = ExploreOptions()
        scope = cell_key(case, base)
        assert scope == cell_key(case, base)
        assert scope != cell_key(case.with_(target="ct"), base)
        assert scope != cell_key(case, base, max_runs=1)
        assert scope != cell_key(case, base, stop_on_first_violation=True)
        flipped = {
            "por": False,
            "dedup": False,
            "symmetry": True,
            "fingerprint_mode": "naive",
        }
        fields = [f.name for f in dataclasses.fields(ExploreOptions)]
        assert sorted(fields) == sorted(flipped), "a new option needs a flip here"
        for name in fields:
            other = dataclasses.replace(base, **{name: flipped[name]})
            assert scope != cell_key(case, other), name


class TestStoreReuse:
    def test_reruns_are_independent_complete_searches(self):
        # No visited state outlives the walk that recorded it: a re-run
        # does NOT dedup against the finished search — it reproduces
        # the whole search from scratch.
        case = ExploreCase(target="hastycommit", n=2, depth=6, seed=1)
        first = explore_case_dynamic(case, workers=1)
        again = explore_case_dynamic(case, workers=1)
        assert again.states == first.states
        assert again.runs == first.runs
        assert again.decision_vectors == first.decision_vectors
        assert again.complete
