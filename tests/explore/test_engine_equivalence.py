"""The reference network is the oracle of the indexed one, under search.

The indexed network and the reference network are two implementations
of one semantics; the explorer relies on them presenting identical
delivery menus (ready messages in ascending send order, λ last) at
every choice point.  If that holds, whole explorations are
bit-identical: same run count, same states, same decision vectors,
same violations with the same choice traces.

No option selects a network.  The oracle is reached the way the golden
determinism suite reaches it — ``with network_implementation(
ReferenceNetwork):`` around a serial walk — and every comparison here
first proves the swap took: the systems the walk built are on the class
asked for, so a ``build_system`` that named ``Network`` itself would
fail these tests instead of comparing the production network with
itself.  Covered: every clean target's frontier at depth 5, the four
seeded mutants at their smoke depths (what CI's ``--engine both`` lines
ran, which compared verdicts only), and Hypothesis-drawn small
configurations — target, depth, seed, optional crash.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.targets import CLEAN_TARGETS
from repro.explore import (
    SMOKE_DEPTHS,
    ExploreCase,
    ExploreOptions,
    enumerate_roots,
    explore_case,
)
from repro.explore import cases as cases_mod
from repro.explore import engine as engine_mod
from repro.runner import run_spec
from repro.sim.network import Network, ReferenceNetwork
from repro.sim.system import network_implementation
from tests.explore.helpers import NETWORKS

TARGETS = ("paxos", "ct", "qc", "nbac", "register", "hastycommit")


@contextmanager
def walking_on(network):
    """Swap ``network`` in for the walks inside the block; on the way
    out, require that they built systems and built them on it."""
    built = []
    real_build = engine_mod.build_system

    def recording_build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    with network_implementation(network), mock.patch.object(
        engine_mod, "build_system", recording_build
    ):
        yield
        assert built, "nothing was explored inside the block"
        for system in built:
            assert type(system.network) is network, (
                f"asked for {network.__name__}, the walk ran on "
                f"{type(system.network).__name__}"
            )


def _observed(results):
    return [
        (
            result.stats(),
            result.decision_vectors,
            [(v.choices, v.violated, v.decisions) for v in result.violations],
        )
        for result in results
    ]


def _assert_identical_on_both_networks(roots, **limits):
    with walking_on(Network):
        indexed = [explore_case(root, **limits) for root in roots]
    with walking_on(ReferenceNetwork):
        reference = [explore_case(root, **limits) for root in roots]
    assert _observed(indexed) == _observed(reference)
    return indexed


@st.composite
def cases(draw):
    target = draw(st.sampled_from(TARGETS))
    depth = draw(st.integers(min_value=3, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=1))
    crashes = ()
    if draw(st.booleans()):
        pid = draw(st.integers(min_value=0, max_value=1))
        time = draw(st.integers(min_value=1, max_value=depth))
        crashes = ((pid, time),)
    return ExploreCase(
        target=target, n=2, depth=depth, seed=seed, crashes=crashes
    )


@settings(max_examples=12, deadline=None)
@given(case=cases())
def test_exploration_identical_on_both_engines(case):
    _assert_identical_on_both_networks([case])


@pytest.mark.parametrize("target", CLEAN_TARGETS)
def test_clean_frontier_identical_on_both_networks(target):
    results = _assert_identical_on_both_networks(
        enumerate_roots(target, 2, depth=5)
    )
    assert all(r.complete and not r.violations for r in results)


@pytest.mark.parametrize(
    "target, frontier, limits",
    [
        ("eagerquit", {}, {}),
        ("hastycommit", {}, {}),
        # The clean sibling roots of the convicting one are run-capped.
        ("submajority", {}, {"max_runs": 2500}),
        # Unreachable without the switch dimension and a crash to gate
        # the FS-red script on.
        ("redcommit", {"max_crashes": 1, "detector_switches": True}, {}),
    ],
    ids=["eagerquit", "hastycommit", "submajority", "redcommit"],
)
def test_mutant_convicted_identically_on_both_networks(
    target, frontier, limits
):
    roots = enumerate_roots(target, 2, **frontier)
    assert {root.depth for root in roots} == {SMOKE_DEPTHS[target]}
    results = _assert_identical_on_both_networks(
        roots, stop_on_first_violation=True, **limits
    )
    assert any(r.violations for r in results), f"{target} not convicted"


@pytest.mark.parametrize(
    "engine, network",
    [("indexed", "Network"), ("reference", "ReferenceNetwork")],
)
def test_result_names_the_network_class_that_ran(engine, network):
    # What a walk runs on is the class ``System`` constructs at that
    # moment, and nothing the result records: the same options, the
    # same result, two networks.
    case = ExploreCase(target="qc", n=2, depth=4)
    assert NETWORKS[engine].__name__ == network
    with walking_on(NETWORKS[engine]):
        result = explore_case(case)
    assert result.options == ExploreOptions()
    assert not hasattr(result.options, "engine")


def test_a_build_system_that_names_the_network_is_caught(monkeypatch):
    """The check that gives the differential its meaning, tested: with
    ``build_system`` pinned to ``Network`` the swap silently does
    nothing, every comparison above would pass — and ``walking_on``
    refuses."""
    real_build = cases_mod.build_system

    def pinned_build(*args, **kwargs):
        with network_implementation(Network):
            return real_build(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "build_system", pinned_build)
    case = ExploreCase(target="qc", n=2, depth=4)
    with pytest.raises(AssertionError, match="asked for ReferenceNetwork"):
        _assert_identical_on_both_networks([case])


def test_unknown_engine_is_refused():
    # Every engine name is unknown now: the keyword itself is refused,
    # not accepted and ignored.
    with pytest.raises(TypeError, match="engine"):
        ExploreOptions(engine="reference")
    with pytest.raises(TypeError, match="engine"):
        run_spec(n=2, seed=0, horizon=10, engine="reference")
    with pytest.raises(TypeError, match="engine"):
        cases_mod.build_system(
            ExploreCase(target="qc", n=2, depth=4), None, engine="reference"
        )
