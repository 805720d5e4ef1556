"""The pid-symmetry reduction: group computation, gating, collapse.

The state-level soundness (symmetric states merge only when every
ambiguous int is fixed) is exercised end-to-end by the soundness
matrix; these tests pin the *case-level* machinery — which
permutations are admissible for which roots, how assignments relabel,
how the knob resolves, and that the frontier collapse keeps exactly
one representative per symmetry class.
"""

import pytest

from repro.explore import (
    ExploreCase,
    ExploreOptions,
    enumerate_roots,
    explore_case,
)
from repro.explore.symmetry import (
    SYMMETRY_SAFE_TARGETS,
    admissible_perms,
    build_fixed_pids,
    collapse_symmetric_roots,
    identity,
    relabel_assignment,
    resolve_symmetry,
    symmetric_root_key,
)

#: Fully symmetric at n=2: process p trusts leader p.
IDENTITY_LEADERS_2 = (
    ("pf", ("os", 0, (0, 1)), "green"),
    ("pf", ("os", 1, (0, 1)), "green"),
)


def test_safe_set_is_pinned():
    """The widened gate: proposals went pid-free, so the whole
    consensus family qualifies.  ct (rotating coordinator: round mod n)
    and register (pid-tagged written values) stay out — widening to
    either would merge states with genuinely different futures."""
    assert SYMMETRY_SAFE_TARGETS == frozenset(
        {
            "paxos",
            "qc",
            "nbac",
            "submajority",
            "eagerquit",
            "hastycommit",
            "redcommit",
        }
    )
    assert "ct" not in SYMMETRY_SAFE_TARGETS
    assert "register" not in SYMMETRY_SAFE_TARGETS


class TestGroup:
    def test_identity_always_first(self):
        case = ExploreCase(target="nbac", n=3, depth=4)
        assert admissible_perms(case)[0] == identity(3)

    def test_default_assignment_pins_its_leader(self):
        # The all-0-leader default: any admissible perm must fix pid 0.
        case = ExploreCase(target="nbac", n=3, depth=4)
        perms = admissible_perms(case)
        assert perms == ((0, 1, 2), (0, 2, 1))

    def test_identity_leader_assignment_is_fully_symmetric(self):
        case = ExploreCase(
            target="nbac", n=2, depth=4, assignment=IDENTITY_LEADERS_2
        )
        assert admissible_perms(case) == ((0, 1), (1, 0))

    def test_odd_seed_pins_the_no_voter(self):
        assert build_fixed_pids("nbac", 3, 1) == frozenset({0})
        assert build_fixed_pids("nbac", 3, 0) == frozenset()
        case = ExploreCase(
            target="nbac", n=2, depth=4, seed=1, assignment=IDENTITY_LEADERS_2
        )
        assert admissible_perms(case) == ((0, 1),)

    def test_crashes_restrict_the_group(self):
        symmetric = ExploreCase(target="nbac", n=3, depth=4)
        crashed = symmetric.with_(crashes=((1, 2),))
        assert len(admissible_perms(crashed)) < len(
            admissible_perms(symmetric)
        )
        assert admissible_perms(crashed) == (identity(3),)


class TestRelabel:
    def test_assignment_relabel_moves_slots_and_contents(self):
        swapped = relabel_assignment(IDENTITY_LEADERS_2, (1, 0))
        # Process π(p) reads the relabeled constant p read — and for
        # identity leaders the two effects cancel exactly.
        assert swapped == IDENTITY_LEADERS_2

    def test_asymmetric_assignment_does_not_cancel(self):
        all_zero = (
            ("pf", ("os", 0, (0, 1)), "green"),
            ("pf", ("os", 0, (0, 1)), "green"),
        )
        assert relabel_assignment(all_zero, (1, 0)) != all_zero


class TestScriptedRoots:
    """Admissible perms must commute with the switch schedule: the
    relabeled root has to advance through the same stage values under
    the same crash gates (module doc, case-level bullet)."""

    PIDFREE_SCRIPT = ("script", ("pf", ("bot",), "green"), ("pf", ("fsv", "red"), "red"))
    LEADER_SCRIPT = ("script", ("os", 0, (0, 1)), ("os", 1, (0, 1)))

    def test_pidfree_script_is_fully_symmetric(self):
        case = ExploreCase(
            target="redcommit",
            n=2,
            depth=4,
            assignment=(self.PIDFREE_SCRIPT,) * 2,
        )
        # ⊥/fsv stages carry no pids, so swapping processes maps the
        # script vector onto itself.
        assert admissible_perms(case) == ((0, 1), (1, 0))

    def test_leader_script_pins_its_leaders(self):
        case = ExploreCase(
            target="paxos",
            n=2,
            depth=4,
            assignment=(self.LEADER_SCRIPT,) * 2,
        )
        # Swapping relabels the staged leaders 0→1/1→0, producing the
        # *other* churn script — a different root, so only identity
        # commutes.
        assert admissible_perms(case) == ((0, 1),)
        swapped = relabel_assignment((self.LEADER_SCRIPT,) * 2, (1, 0))
        assert swapped == (("script", ("os", 1, (0, 1)), ("os", 0, (0, 1))),) * 2

    def test_collapse_reduces_the_scripted_crash_frontier(self):
        # nbac enumerates seed 0 (nothing pinned), where a uniform
        # script with a one-crash schedule is π-related to the same
        # script with the other victim.  redcommit would show nothing:
        # its only seed is odd, so pid 0 is always pinned.
        roots = enumerate_roots(
            "nbac", 2, max_crashes=1, detector_switches=True
        )
        scripted = [
            r
            for r in roots
            if any(enc[0] == "script" for enc in r.assignment)
        ]
        collapsed = collapse_symmetric_roots(scripted)
        assert len(collapsed) < len(scripted)


class TestResolve:
    def test_off_values(self):
        case = ExploreCase(target="nbac", n=2, depth=4)
        assert resolve_symmetry(case, None) is False
        assert resolve_symmetry(case, False) is False

    def test_auto_gates_on_safe_targets(self):
        assert resolve_symmetry(
            ExploreCase(target="nbac", n=2, depth=4), "auto"
        )
        assert not resolve_symmetry(
            ExploreCase(target="ct", n=2, depth=4), "auto"
        )

    def test_true_raises_on_unsafe_target(self):
        case = ExploreCase(target="ct", n=2, depth=4)
        with pytest.raises(ValueError, match="pid-derived"):
            resolve_symmetry(case, True)


class TestRootCollapse:
    def test_symmetric_crash_roots_share_a_key(self):
        base = ExploreCase(
            target="nbac", n=2, depth=5, assignment=IDENTITY_LEADERS_2
        )
        assert symmetric_root_key(
            base.with_(crashes=((0, 1),))
        ) == symmetric_root_key(base.with_(crashes=((1, 1),)))

    def test_collapse_reduces_the_crash_frontier(self):
        roots = enumerate_roots("nbac", 2, max_crashes=1)
        collapsed = collapse_symmetric_roots(roots)
        assert len(collapsed) < len(roots)
        assert all(r in roots for r in collapsed)

    def test_unsafe_targets_pass_through(self):
        roots = enumerate_roots("ct", 2, max_crashes=1)
        assert collapse_symmetric_roots(roots) == roots
        assert "ct" not in SYMMETRY_SAFE_TARGETS


def test_symmetry_reduces_at_n3():
    """The reduction must reduce (not just preserve) where the group
    is nontrivial — otherwise a silently disabled merge passes."""
    case = ExploreCase(target="nbac", n=3, depth=5)
    plain = explore_case(case)
    reduced = explore_case(case, ExploreOptions(symmetry="auto"))
    assert reduced.symmetry and not plain.symmetry
    assert reduced.runs < plain.runs
    assert reduced.states < plain.states
    assert reduced.decision_vectors == plain.decision_vectors
