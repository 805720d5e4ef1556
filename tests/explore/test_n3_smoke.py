"""The n=3 exploration smoke pair, pinned.

PR4's explorer was n=2-bound: the PR5 hot path (incremental
fingerprints + replay-digest reuse + symmetry) is what makes a full
n=3 subtree exhaustible in seconds, and this module pins that claim so
a regression in any of the three amortizations shows up as a budget
blow-up or an outcome change.  The pairing mirrors the n=2 table:
the hastycommit mutant fires at exactly the depth where clean nbac is
silent, so the clean target's silence is evidence of reach, not of a
too-shallow search.
"""

from repro.explore import (
    SMOKE_DEPTHS_N3,
    ExploreCase,
    ExploreOptions,
    explore_case,
)

DEPTH = SMOKE_DEPTHS_N3["nbac"]


def test_n3_depths_are_pinned():
    # Mutant and clean halves must share a depth for the pairing below
    # to be an apples-to-apples statement.
    assert SMOKE_DEPTHS_N3 == {"nbac": 6, "hastycommit": 6}


def test_clean_nbac_n3_exhausts():
    case = ExploreCase(target="nbac", n=3, depth=DEPTH, seed=1)
    result = explore_case(case, ExploreOptions(symmetry=True))
    assert result.complete
    assert not result.violations
    # A real n=3 tree, not a degenerate one.
    assert result.runs > 1000


def test_hastycommit_n3_fires_at_the_same_depth():
    case = ExploreCase(target="hastycommit", n=3, depth=DEPTH, seed=1)
    result = explore_case(
        case, ExploreOptions(symmetry=True), stop_on_first_violation=True
    )
    assert result.violations
    assert result.violations[0].violated
