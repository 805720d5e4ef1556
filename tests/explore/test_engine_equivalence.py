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

from repro import _native
from repro.explore import ExploreCase, explore_case
from repro.explore.engine import ExploreResult
from repro.explore.frontier import result_to_dict
from repro.explore.shard import _result_from_summary

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
    indexed = explore_case(case, engine="indexed")
    reference = explore_case(case, engine="reference")
    assert indexed.stats() == reference.stats()
    assert indexed.decision_vectors == reference.decision_vectors
    assert [
        (v.choices, v.violated, v.decisions) for v in indexed.violations
    ] == [
        (v.choices, v.violated, v.decisions) for v in reference.violations
    ]


@pytest.mark.parametrize(
    "engine, network",
    [
        ("indexed", "Network"),
        ("reference", "ReferenceNetwork"),
        # Asking for the compiled core where it is not built runs on
        # the indexed engine — and the result says so.
        ("native", "NativeNetwork" if _native.available() else "Network"),
    ],
)
def test_result_names_the_network_class_that_ran(engine, network):
    case = ExploreCase(target="qc", n=2, depth=4)
    result = explore_case(case, engine=engine)
    assert result.engine == engine and result.engine_class == network
    assert result_to_dict(result)["engine_class"] == network


def test_engine_class_is_recorded_not_guessed():
    case = ExploreCase(target="qc", n=2, depth=4)
    # Nothing ran: nothing is claimed, whatever the local box would
    # resolve the engine name to.
    assert ExploreResult(case, "native", True, True).engine_class == ""
    # A summary written before the field existed stays unattributed.
    summary = result_to_dict(explore_case(case))
    del summary["engine_class"]
    assert _result_from_summary(case, summary).engine_class == ""
    # An unknown engine is still build_system's error to raise.
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        explore_case(case, engine="bogus")
