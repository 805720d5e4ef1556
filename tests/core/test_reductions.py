"""Tests for the history-level detector reductions.

Each reduction's output is judged by the *target* detector's spec
checker over assorted failure patterns — reducibility, machine-checked.
"""

import random

import pytest

from repro.core.detector import BOTTOM, RED
from repro.core.detectors import (
    EventuallyPerfectOracle,
    FSOracle,
    PerfectOracle,
    PsiOracle,
    omega_sigma_oracle,
)
from repro.core.failure_pattern import FailurePattern
from repro.core.history import FailureDetectorHistory, per_tick
from repro.core.reductions import (
    fs_from_perfect,
    omega_from_eventually_perfect,
    psi_from_omega_sigma,
    psi_fs_from_psi_and_fs,
    sigma_from_perfect,
    transform_history,
)
from repro.core.specs import check_fs, check_omega, check_psi, check_sigma

PATTERNS = [
    FailurePattern.crash_free(4),
    FailurePattern(4, {3: 100}),
    FailurePattern(4, {0: 50, 1: 120, 2: 260}),
]

HORIZON = 800


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: f"f={len(p.faulty)}")
@pytest.mark.parametrize("seed", [0, 3])
class TestReductionsFromP:
    def test_sigma_from_perfect(self, pattern, seed):
        p_history = PerfectOracle().build_history(
            pattern, HORIZON, random.Random(seed)
        )
        sigma = sigma_from_perfect(p_history)
        verdict = check_sigma(sigma, pattern)
        assert verdict.ok, verdict.violations

    def test_fs_from_perfect(self, pattern, seed):
        p_history = PerfectOracle().build_history(
            pattern, HORIZON, random.Random(seed)
        )
        fs = fs_from_perfect(p_history)
        verdict = check_fs(fs, pattern)
        assert verdict.ok, verdict.violations


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: f"f={len(p.faulty)}")
@pytest.mark.parametrize("seed", [0, 3])
class TestReductionsFromEventuallyP:
    def test_omega_from_eventually_perfect(self, pattern, seed):
        dp_history = EventuallyPerfectOracle().build_history(
            pattern, HORIZON, random.Random(seed)
        )
        omega = omega_from_eventually_perfect(dp_history)
        verdict = check_omega(omega, pattern)
        assert verdict.ok, verdict.violations


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: f"f={len(p.faulty)}")
class TestReductionsIntoPsi:
    def test_psi_from_omega_sigma(self, pattern):
        os_history = omega_sigma_oracle().build_history(
            pattern, HORIZON, random.Random(1)
        )
        for switch in (0, 25, 200):
            psi = psi_from_omega_sigma(os_history, switch_time=switch)
            verdict = check_psi(psi, pattern)
            assert verdict.ok, (switch, verdict.violations)
            if switch > 0:
                assert psi.value(0, 0) is BOTTOM

    def test_psi_fs_product(self, pattern):
        rng = random.Random(2)
        psi = PsiOracle().build_history(pattern, HORIZON, rng)
        fs = FSOracle().build_history(pattern, HORIZON, rng)
        product = psi_fs_from_psi_and_fs(psi, fs)
        value = product.value(0, HORIZON - 1)
        assert isinstance(value, tuple) and len(value) == 2

    def test_product_shape_mismatch_rejected(self, pattern):
        rng = random.Random(2)
        psi = PsiOracle().build_history(pattern, HORIZON, rng)
        fs = FSOracle().build_history(pattern, HORIZON // 2, rng)
        with pytest.raises(ValueError):
            psi_fs_from_psi_and_fs(psi, fs)


class TestNoPointwiseMapFromPsi:
    """Ψ's FS branch carries no leader/quorum information: a pointwise
    Ψ → Ω transformation is impossible, because an all-red suffix gives
    a local rule nothing to distinguish correct processes with.  This
    pins down *why* the paper needs the algorithmic route (Figure 3's
    converse direction quantifies over algorithms, not local maps)."""

    def test_fs_branch_hides_the_leader(self):
        pattern_a = FailurePattern(3, {0: 10})  # correct: 1, 2
        pattern_b = FailurePattern(3, {1: 10})  # correct: 0, 2
        # One and the same post-switch output stream (all red) is
        # admissible for Ψ under both patterns...
        red_history = FailureDetectorHistory(
            3, 200, per_tick(lambda p, t: RED if t >= 20 else BOTTOM)
        )
        # ...so any pointwise map f(value) produces identical Ω outputs
        # under both patterns; but no single pid is correct in both
        # patterns' *full* crash closure if we extend the family:
        pattern_c = FailurePattern(3, {2: 10})
        patterns = [pattern_a, pattern_b, pattern_c]
        # For each candidate constant leader, some pattern falsifies it.
        for leader in range(3):
            assert any(leader in p.faulty for p in patterns)

    def test_transform_history_is_pointwise(self):
        base = FailureDetectorHistory(2, 10, per_tick(lambda p, t: t))
        doubled = transform_history(base, lambda p, v: v * 2)
        assert doubled.value(1, 3) == 6
