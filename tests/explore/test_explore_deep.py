"""The deep exploration suite: full frontiers, crash schedules, both
network classes.

Opt-in twice over: marked ``explore`` + ``slow`` (select with
``pytest -m explore``) and gated on ``REPRO_EXPLORE_DEEP=1`` so a plain
``pytest tests/`` never pays for it.  ``make test-explore`` sets both.
The full paxos frontier alone is ~140k runs (minutes of CPU); the
tier-1 slices of the same guarantees live in the sibling modules.
"""

import os

import pytest

from repro.chaos.targets import CLEAN_TARGETS
from repro.explore import enumerate_roots, explore_case, run_frontier
from repro.sim.network import ReferenceNetwork
from repro.sim.system import network_implementation

pytestmark = [
    pytest.mark.explore,
    pytest.mark.slow,
    pytest.mark.skipif(
        not os.environ.get("REPRO_EXPLORE_DEEP"),
        reason="deep exploration suite; set REPRO_EXPLORE_DEEP=1",
    ),
]

#: Everything but paxos — its selfish-assignment subtrees at depth 10
#: are minutes on their own and get a dedicated (further-gated) test.
FAST_FRONTIER_TARGETS = tuple(t for t in CLEAN_TARGETS if t != "paxos")


@pytest.mark.parametrize("target", FAST_FRONTIER_TARGETS)
def test_full_assignment_frontier_is_clean(target):
    for root in enumerate_roots(target, 2):
        result = explore_case(root)
        assert result.complete
        assert not result.violations, (
            f"{root.describe()} assignment={root.assignment} violated"
        )


@pytest.mark.skipif(
    not os.environ.get("REPRO_EXPLORE_PAXOS_FULL"),
    reason="~7 CPU-minutes; set REPRO_EXPLORE_PAXOS_FULL=1",
)
def test_paxos_full_assignment_frontier_is_clean():
    for root in enumerate_roots("paxos", 2):
        result = explore_case(root)
        assert result.complete and not result.violations


@pytest.mark.parametrize("target", ("qc", "nbac"))
def test_crash_frontier_is_clean_on_both_engines(target):
    roots = enumerate_roots(target, 2, depth=6, max_crashes=1)
    assert any(root.crashes for root in roots)
    for summary in run_frontier(roots, workers=2):
        assert summary["complete"]
        assert not summary["violations"]
    # The oracle leg has one worker, which walks in this process: the
    # swap is ambient, and an ambient swap does not cross into a
    # spawned worker.
    with network_implementation(ReferenceNetwork):
        for summary in run_frontier(roots, workers=1):
            assert summary["complete"]
            assert not summary["violations"]


def test_frontier_campaign_cache_round_trip(tmp_path):
    """A finished subtree is a cache hit on the second run."""
    roots = enumerate_roots("qc", 2, depth=6)
    first = run_frontier(roots, cache=str(tmp_path))
    second = run_frontier(roots, cache=str(tmp_path))
    assert first == second
