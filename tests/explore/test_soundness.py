"""The reductions change the cost of the search, never its answers.

POR and state-dedup are sound iff the reduced search reaches the same
set of *observable outcomes* as the unreduced one: the same decision
vectors over completed leaves, and the same set of violations (clause
set × decision vector).  These tests run the same roots under all four
reduction configurations and compare outcomes exactly — plus assert
the reductions actually reduce, so a silently disabled filter can't
pass as trivially sound.

One clean root (ct — Chandra-Toueg under mutual suspicion, lots of
genuinely concurrent message traffic) and one violating root
(hastycommit — so soundness is also checked in the presence of bugs).
Scripted roots join both matrices: the detector-switch dimension adds
``"detector"`` choice points whose menus the POR's swap argument and
the fingerprint's cursor section must treat correctly, so the same
outcome-equality is asserted on roots where switches genuinely matter
(redcommit's violation is unreachable without them).
"""

import pytest

from repro.explore import ExploreCase, ExploreOptions, explore_case
from repro.sim.network import ReferenceNetwork
from repro.sim.system import network_implementation

CONFIGS = [
    (True, True),
    (True, False),
    (False, True),
    (False, False),
]

#: The (Ψ, FS) quit-path script: ⊥ → FS-branch red, both stages uniform
#: across pids (pid-free, so the symmetry group stays nontrivial).
FSRED_SCRIPT = (
    "script",
    ("pf", ("bot",), "green"),
    ("pf", ("fsv", "red"), "red"),
)


def _outcomes(result):
    return {
        "vectors": result.decision_vectors,
        "violations": {(v.violated, v.decisions) for v in result.violations},
    }


@pytest.mark.parametrize(
    "case",
    [
        ExploreCase(
            target="ct",
            n=2,
            depth=7,
            assignment=(("susp", (1,)), ("susp", (0,))),
        ),
        ExploreCase(target="hastycommit", n=2, depth=6, seed=1),
        ExploreCase(
            target="nbac",
            n=2,
            depth=6,
            crashes=((0, 3),),
            assignment=(FSRED_SCRIPT, FSRED_SCRIPT),
        ),
        ExploreCase(
            target="redcommit",
            n=2,
            depth=6,
            seed=1,
            crashes=((0, 3),),
            assignment=(FSRED_SCRIPT, FSRED_SCRIPT),
        ),
        # The one target that reads the clock (operation records keep
        # their invoke times), so POR's commutation argument is not
        # licensed by clock independence here: pin that POR still
        # agrees with the unreduced walk on clean ABD.
        ExploreCase(target="register", n=2, depth=7),
    ],
    ids=[
        "ct-mutual-suspicion",
        "hastycommit-seed1",
        "nbac-fsred-script",
        "redcommit-fsred-script",
        "register",
    ],
)
def test_reductions_preserve_outcomes(case):
    results = {
        (por, dedup): explore_case(case, ExploreOptions(por=por, dedup=dedup))
        for por, dedup in CONFIGS
    }
    baseline = _outcomes(results[(False, False)])
    assert baseline["vectors"], "unreduced search found no leaves"
    for config, result in results.items():
        assert result.complete
        assert _outcomes(result) == baseline, (
            f"reduction config por={config[0]} dedup={config[1]} "
            "changed the observable outcomes"
        )

    full = results[(False, False)]
    reduced = results[(True, True)]
    assert reduced.runs < full.runs, "reductions did not reduce"
    assert reduced.por_pruned > 0
    assert results[(False, True)].dedup_hits >= 0
    assert results[(True, False)].por_pruned > 0
    # Dedup never fires while it is disabled.
    assert full.dedup_hits == 0 and full.states == 0


@pytest.mark.parametrize(
    "case",
    [
        ExploreCase(
            target="nbac",
            n=2,
            depth=6,
            assignment=(
                ("pf", ("os", 0, (0, 1)), "green"),
                ("pf", ("os", 1, (0, 1)), "green"),
            ),
        ),
        ExploreCase(target="hastycommit", n=3, depth=5, seed=1),
        ExploreCase(
            target="nbac",
            n=3,
            depth=5,
            crashes=((1, 1), (2, 1)),
            assignment=(FSRED_SCRIPT,) * 3,
        ),
    ],
    ids=[
        "nbac-identity-leaders",
        "hastycommit-n3-seed1",
        "nbac-n3-fsred-script",
    ],
)
def test_symmetry_dimension_preserves_outcomes(case):
    """The full matrix with the pid-symmetry reduction switched in.

    One clean root with a nontrivial group at n=2 (identity leaders —
    the default all-0-leader assignment pins pid 0), one violating
    root at n=3 (odd seed pins the No voter, leaving a 2-element
    group), and one *scripted* root at n=3 whose crash pair {1, 2}
    leaves the 1↔2 swap admissible — the perm must commute with the
    switch schedule, which the uniform pid-free script guarantees.
    All against the fully unreduced, symmetry-free baseline.  Both
    network classes are held to the same answer under full reduction.
    """
    baseline = _outcomes(explore_case(case, ExploreOptions(por=False, dedup=False)))
    assert baseline["vectors"], "unreduced search found no leaves"
    for por, dedup in CONFIGS:
        result = explore_case(
            case, ExploreOptions(por=por, dedup=dedup, symmetry="auto")
        )
        assert result.complete and result.symmetry
        assert _outcomes(result) == baseline, (
            f"symmetry over por={por} dedup={dedup} changed the outcomes"
        )
    with network_implementation(ReferenceNetwork):
        reference = explore_case(case, ExploreOptions(symmetry="auto"))
    assert reference.complete
    assert _outcomes(reference) == baseline
