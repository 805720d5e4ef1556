"""Property: both network engines expose the *same* choice tree.

The indexed network and the reference network are two implementations
of one semantics; the explorer relies on them presenting identical
delivery menus (ready messages in ascending send order, λ last) at
every choice point.  If that holds, whole explorations are
bit-identical: same run count, same states, same decision vectors,
same violations with the same choice traces.  Hypothesis drives random
small configurations — target, depth, seed, optional crash — through
full exhaustion on both engines and compares everything.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.explore import ExploreCase, ExploreOptions, explore_case
from repro.sim.network import resolve_network_engine

TARGETS = ("paxos", "ct", "qc", "nbac", "register", "hastycommit")


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
    indexed = explore_case(case, ExploreOptions(engine="indexed"))
    reference = explore_case(case, ExploreOptions(engine="reference"))
    assert indexed.stats() == reference.stats()
    assert indexed.decision_vectors == reference.decision_vectors
    assert [
        (v.choices, v.violated, v.decisions) for v in indexed.violations
    ] == [
        (v.choices, v.violated, v.decisions) for v in reference.violations
    ]


@pytest.mark.parametrize(
    "engine, network",
    [("indexed", "Network"), ("reference", "ReferenceNetwork")],
)
def test_result_names_the_network_class_that_ran(engine, network):
    # Engine name and network class are one-to-one, so the name the
    # result records is the class the walk ran on.
    case = ExploreCase(target="qc", n=2, depth=4)
    result = explore_case(case, ExploreOptions(engine=engine))
    assert result.options.engine == engine
    assert resolve_network_engine(engine).__name__ == network


def test_unknown_engine_is_refused():
    case = ExploreCase(target="qc", n=2, depth=4)
    with pytest.raises(ValueError, match="unknown network engine 'bogus'"):
        explore_case(case, ExploreOptions(engine="bogus"))
