"""Negative-case tests: the spec checkers reject inadmissible histories.

The oracle tests establish the positive direction; these hand-craft
histories violating each clause of each definition and assert the
checker names the violated clause.
"""

import random

import pytest

from repro.core.detector import BOTTOM, GREEN, RED
from repro.core.failure_pattern import FailurePattern
from repro.core.history import SampledHistory
from repro.core.specs import (
    SpecVerdict,
    check_eventually_perfect,
    check_eventually_strong,
    check_fs,
    check_omega,
    check_omega_sigma,
    check_perfect,
    check_psi,
    check_sigma,
    check_strong,
    fs_safety,
    omega_sigma_safety,
    perfect_safety,
    psi_safety,
    sigma_safety,
)


def history(n, triples):
    return SampledHistory.from_pairs(n, triples)


class TestOmegaNegative:
    def test_disagreeing_leaders(self):
        pattern = FailurePattern.crash_free(2)
        h = history(2, [(0, 1, 0), (0, 9, 0), (1, 2, 1), (1, 8, 1)])
        verdict = check_omega(h, pattern)
        assert not verdict.ok
        assert "different leaders" in verdict.violations[0]

    def test_faulty_leader(self):
        pattern = FailurePattern(2, {1: 5})
        h = history(2, [(0, 1, 1), (0, 9, 1)])
        verdict = check_omega(h, pattern)
        assert not verdict.ok
        assert "not a correct process" in verdict.violations[0]

    def test_correct_process_without_samples(self):
        pattern = FailurePattern.crash_free(2)
        h = history(2, [(0, 1, 0)])
        verdict = check_omega(h, pattern)
        assert not verdict.ok

    def test_flapping_then_stable_is_fine(self):
        pattern = FailurePattern.crash_free(2)
        h = history(
            2,
            [(0, 1, 1), (0, 5, 0), (0, 9, 0), (1, 2, 0), (1, 8, 0)],
        )
        verdict = check_omega(h, pattern)
        assert verdict.ok
        assert verdict.holds_from == 5


class TestSigmaNegative:
    def test_disjoint_quorums(self):
        pattern = FailurePattern.crash_free(4)
        h = history(
            4,
            [
                (0, 1, frozenset({0, 1})),
                (1, 2, frozenset({2, 3})),
            ],
        )
        verdict = check_sigma(h, pattern)
        assert not verdict.ok
        assert "Intersection" in verdict.violations[0]

    def test_disjoint_across_time_same_process(self):
        pattern = FailurePattern.crash_free(4)
        h = history(
            4,
            [
                (0, 1, frozenset({0, 1})),
                (0, 9, frozenset({2, 3})),
            ],
        )
        assert not check_sigma(h, pattern).ok

    def test_final_quorum_with_faulty_member(self):
        pattern = FailurePattern(3, {2: 5})
        h = history(
            3,
            [
                (0, 1, frozenset({0, 2})),
                (0, 50, frozenset({0, 2})),
                (1, 2, frozenset({0, 1})),
                (1, 51, frozenset({0, 1})),
            ],
        )
        verdict = check_sigma(h, pattern)
        assert not verdict.ok
        assert any("Completeness" in v for v in verdict.violations)

    def test_non_set_value(self):
        pattern = FailurePattern.crash_free(2)
        h = history(2, [(0, 1, "not-a-set")])
        assert not check_sigma(h, pattern).ok


class TestFSNegative:
    def test_red_before_any_crash(self):
        pattern = FailurePattern(2, {1: 100})
        h = history(2, [(0, 5, RED), (0, 150, RED), (1, 6, GREEN)])
        verdict = check_fs(h, pattern)
        assert not verdict.ok
        assert "Accuracy" in verdict.violations[0]

    def test_red_on_crash_free_pattern(self):
        pattern = FailurePattern.crash_free(2)
        h = history(2, [(0, 5, RED), (1, 6, GREEN)])
        assert not check_fs(h, pattern).ok

    def test_correct_process_stays_green_despite_crash(self):
        pattern = FailurePattern(2, {1: 10})
        h = history(2, [(0, 5, GREEN), (0, 500, GREEN)])
        verdict = check_fs(h, pattern)
        assert not verdict.ok
        assert any("Completeness" in v for v in verdict.violations)

    def test_flicker_after_crash_is_admissible(self):
        pattern = FailurePattern(2, {1: 10})
        h = history(
            2, [(0, 15, RED), (0, 20, GREEN), (0, 30, RED), (0, 99, RED)]
        )
        assert check_fs(h, pattern).ok

    def test_non_color_value(self):
        pattern = FailurePattern.crash_free(1)
        h = history(1, [(0, 1, "blue")])
        assert not check_fs(h, pattern).ok


class TestPsiNegative:
    def _os_value(self, leader=0, quorum=frozenset({0, 1})):
        return (leader, quorum)

    def test_branch_mixing_rejected(self):
        pattern = FailurePattern(2, {1: 5})
        h = history(
            2,
            [
                (0, 10, RED),
                (0, 90, RED),
                (1, 11, self._os_value()),
            ],
        )
        verdict = check_psi(h, pattern)
        assert not verdict.ok
        assert "different branches" in verdict.violations[0]

    def test_fs_branch_without_failure_rejected(self):
        pattern = FailurePattern.crash_free(2)
        h = history(2, [(0, 10, RED), (0, 90, RED), (1, 12, RED), (1, 91, RED)])
        verdict = check_psi(h, pattern)
        assert not verdict.ok
        assert any("crash-free" in v for v in verdict.violations)

    def test_switch_before_crash_rejected(self):
        pattern = FailurePattern(2, {1: 50})
        h = history(2, [(0, 10, RED), (0, 90, RED)])
        verdict = check_psi(h, pattern)
        assert not verdict.ok
        assert any("before the first crash" in v for v in verdict.violations)

    def test_reverting_to_bottom_rejected(self):
        pattern = FailurePattern.crash_free(2)
        v = self._os_value()
        h = history(
            2,
            [(0, 10, v), (0, 20, BOTTOM), (1, 11, v)],
        )
        verdict = check_psi(h, pattern)
        assert not verdict.ok
        assert any("reverted" in s for s in verdict.violations)

    def test_forever_bottom_at_correct_process_rejected(self):
        pattern = FailurePattern.crash_free(2)
        h = history(2, [(0, 10, BOTTOM), (0, 99, BOTTOM), (1, 11, BOTTOM)])
        verdict = check_psi(h, pattern)
        assert not verdict.ok

    def test_bad_suffix_fails_subspec(self):
        # (Omega, Sigma) branch whose sigma parts are disjoint.
        pattern = FailurePattern.crash_free(2)
        h = history(
            2,
            [
                (0, 10, (0, frozenset({0}))),
                (0, 90, (0, frozenset({0}))),
                (1, 11, (0, frozenset({1}))),
                (1, 91, (0, frozenset({1}))),
            ],
        )
        verdict = check_psi(h, pattern)
        assert not verdict.ok
        assert any("suffix fails" in s for s in verdict.violations)

    def test_garbage_value_rejected(self):
        pattern = FailurePattern.crash_free(1)
        h = history(1, [(0, 1, 3.14)])
        assert not check_psi(h, pattern).ok


class TestPerfectNegative:
    def test_premature_suspicion(self):
        pattern = FailurePattern(2, {1: 50})
        h = history(2, [(0, 10, frozenset({1})), (0, 99, frozenset({1}))])
        verdict = check_perfect(h, pattern)
        assert not verdict.ok
        assert "Accuracy" in verdict.violations[0]

    def test_faulty_never_suspected(self):
        pattern = FailurePattern(2, {1: 10})
        h = history(2, [(0, 5, frozenset()), (0, 99, frozenset())])
        verdict = check_perfect(h, pattern)
        assert not verdict.ok
        assert any("Completeness" in v for v in verdict.violations)


class TestEventuallyPerfectNegative:
    def test_persistent_wrong_suspicion(self):
        pattern = FailurePattern.crash_free(2)
        h = history(2, [(0, 5, frozenset({1})), (0, 99, frozenset({1})),
                        (1, 6, frozenset()), (1, 98, frozenset())])
        verdict = check_eventually_perfect(h, pattern)
        assert not verdict.ok
        assert any("Eventual accuracy" in v for v in verdict.violations)

    def test_early_wrong_suspicion_is_fine(self):
        pattern = FailurePattern.crash_free(2)
        h = history(2, [(0, 5, frozenset({1})), (0, 99, frozenset()),
                        (1, 6, frozenset()), (1, 98, frozenset())])
        assert check_eventually_perfect(h, pattern).ok


class TestSuspectListsAreSets:
    """The suspicion-set detectors judge sets of processes: any other
    sample is reported as what it is, not read character by character
    (``"red"``) or left to raise (``7``)."""

    @pytest.mark.parametrize(
        "checker",
        [
            perfect_safety,
            check_perfect,
            check_eventually_perfect,
            check_strong,
            check_eventually_strong,
        ],
    )
    @pytest.mark.parametrize("value", ["red", 7])
    @pytest.mark.parametrize(
        "pattern", [FailurePattern.crash_free(2), FailurePattern(2, {1: 5})]
    )
    def test_a_non_set_sample_is_named(self, checker, value, pattern):
        h = history(2, [(0, 1, value), (1, 2, value)])
        verdict = checker(h, pattern)
        assert not verdict.ok
        assert verdict.violations == [
            f"H(0,1) = {value!r} is not a set of processes"
        ]


class TestOmegaSigmaProduct:
    def test_malformed_pair_rejected(self):
        pattern = FailurePattern.crash_free(1)
        h = history(1, [(0, 1, "nope")])
        assert not check_omega_sigma(h, pattern).ok

    def test_component_failures_propagate(self):
        pattern = FailurePattern.crash_free(2)
        h = history(
            2,
            [
                (0, 1, (0, frozenset({0}))),
                (0, 9, (0, frozenset({0}))),
                (1, 2, (1, frozenset({0, 1}))),
                (1, 8, (1, frozenset({0, 1}))),
            ],
        )
        verdict = check_omega_sigma(h, pattern)
        assert not verdict.ok  # leaders disagree


class TestSafetyClauses:
    """Each prefix-closed safety clause rejects what its ``check_*``
    rejects for a safety reason, and no more: a prefix still waiting on
    liveness passes the clause."""

    OS = (0, frozenset({0, 1}))

    def _both_reject(self, safety, check, h, pattern, clause):
        for verdict in (safety(h, pattern), check(h, pattern)):
            assert not verdict.ok
            assert verdict.holds_from is None
            assert any(clause in v for v in verdict.violations), verdict

    def test_return_to_bottom(self):
        pattern = FailurePattern.crash_free(2)
        h = history(2, [(0, 0, BOTTOM), (0, 1, self.OS), (0, 2, BOTTOM)])
        self._both_reject(psi_safety, check_psi, h, pattern, "reverted to ⊥")

    def test_mixed_branches(self):
        pattern = FailurePattern(2, {1: 0})
        h = history(2, [(0, 1, self.OS), (1, 1, GREEN)])
        self._both_reject(
            psi_safety, check_psi, h, pattern, "different branches"
        )

    def test_fs_switch_before_the_crash(self):
        pattern = FailurePattern(2, {1: 3})
        h = history(2, [(0, 0, BOTTOM), (0, 2, GREEN), (0, 4, RED)])
        self._both_reject(
            psi_safety, check_psi, h, pattern, "before the first crash"
        )

    def test_red_before_the_crash(self):
        pattern = FailurePattern(2, {1: 3})
        h = history(2, [(0, 1, GREEN), (0, 2, RED), (1, 1, GREEN)])
        self._both_reject(fs_safety, check_fs, h, pattern, "Accuracy violated")

    def test_premature_suspicion(self):
        pattern = FailurePattern(2, {1: 50})
        h = history(2, [(0, 10, frozenset({1})), (0, 60, frozenset({1}))])
        self._both_reject(
            perfect_safety, check_perfect, h, pattern, "Accuracy violated"
        )

    def test_disjoint_quorums(self):
        pattern = FailurePattern.crash_free(2)
        h = history(2, [(0, 0, frozenset({0})), (1, 0, frozenset({1}))])
        self._both_reject(
            sigma_safety, check_sigma, h, pattern, "Intersection violated"
        )
        pairs = history(
            2, [(0, 0, (0, frozenset({0}))), (1, 0, (0, frozenset({1})))]
        )
        self._both_reject(
            omega_sigma_safety,
            check_omega_sigma,
            pairs,
            pattern,
            "Intersection violated",
        )

    def test_all_bottom_is_safe_but_not_live(self):
        pattern = FailurePattern.crash_free(2)
        h = history(2, [(0, 0, BOTTOM), (0, 5, BOTTOM), (1, 3, BOTTOM)])
        assert psi_safety(h, pattern) == SpecVerdict(True)
        verdict = check_psi(h, pattern)
        assert not verdict.ok
        assert "switched away from ⊥" in verdict.violations[0]

    def test_liveness_is_not_safety(self):
        # Each of these fails its check only for want of an eventual
        # clause, which a longer run could still meet.
        faulty_1 = FailurePattern(2, {1: 1})
        cases = [
            (sigma_safety, check_sigma, frozenset({0, 1})),
            (fs_safety, check_fs, GREEN),
            (omega_sigma_safety, check_omega_sigma, (1, frozenset({0, 1}))),
            (psi_safety, check_psi, GREEN),
            # Process 1 crashed and is never suspected.
            (perfect_safety, check_perfect, frozenset()),
        ]
        for safety, check, value in cases:
            h = history(2, [(0, 5, value)])
            assert safety(h, faulty_1).ok, safety
            assert not check(h, faulty_1).ok, check

    @pytest.mark.parametrize(
        "safety, draw",
        [
            (fs_safety, lambda rng, pattern, t: rng.choice((GREEN, RED))),
            # Suspect what has crashed by a time near t: now and then
            # a crash still two ticks ahead, which is premature.
            (
                perfect_safety,
                lambda rng, pattern, t: frozenset(
                    p for p in range(3)
                    if pattern.crashed(p, t + rng.randrange(-2, 3))
                ),
            ),
        ],
        ids=["fs", "perfect"],
    )
    def test_prefix_closed_on_random_histories(self, safety, draw):
        # Cut a random history after each of its sample times: once a
        # prefix fails the clause, every longer prefix fails it too.
        rng = random.Random(7)
        for _ in range(200):
            crashes = {
                pid: rng.randrange(1, 30)
                for pid in rng.sample(range(3), rng.randrange(3))
            }
            pattern = FailurePattern(3, crashes)
            triples = [
                (rng.randrange(3), t, draw(rng, pattern, t))
                for t in rng.sample(range(40), rng.randrange(1, 12))
            ]
            broken = False
            for cut in sorted(t for _, t, _ in triples):
                prefix = history(3, [x for x in triples if x[1] <= cut])
                ok = safety(prefix, pattern).ok
                assert not (broken and ok), (pattern, triples, cut)
                broken = not ok
            assert safety(history(3, triples), pattern).ok == (not broken)
