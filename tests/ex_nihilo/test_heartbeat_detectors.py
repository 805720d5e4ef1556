"""E9: heartbeat-based Ω / FS / P under benign and hostile timing."""

import pytest

from repro.core.detector import GREEN, RED
from repro.core.failure_pattern import FailurePattern
from repro.core.specs import check_fs, check_omega, check_perfect
from repro.ex_nihilo.fs_heartbeat import FSFromHeartbeats
from repro.ex_nihilo.omega_heartbeat import OmegaFromHeartbeats
from repro.ex_nihilo.perfect_synchronous import PerfectFromTimeouts
from repro.experiments.hooks import safety_broken
from repro.sim.network import ConstantDelay, SpikeDelay, UniformDelay
from repro.sim.probes import OutputRecorder
from repro.sim.system import SystemBuilder


def run_impl(component_factory, name, pattern, seed=0, horizon=20_000,
             delays=None, stop_when=None):
    builder = (
        SystemBuilder(n=3, seed=seed, horizon=horizon)
        .pattern(pattern)
        .component(name, component_factory)
        .component("probe", lambda pid: OutputRecorder(name, name))
    )
    if delays is not None:
        builder.delays(delays)
    system = builder.build()
    trace = system.run(stop_when=stop_when)
    return system, trace


class TestOmegaFromHeartbeats:
    @pytest.mark.parametrize(
        "pattern",
        [
            FailurePattern.crash_free(3),
            FailurePattern(3, {0: 500}),
            FailurePattern(3, {0: 300, 1: 600}),
        ],
    )
    def test_satisfies_omega_under_benign_timing(self, pattern):
        _, trace = run_impl(
            lambda pid: OmegaFromHeartbeats(), "omega-impl", pattern,
            delays=UniformDelay(1, 5),
        )
        verdict = check_omega(trace.annotations["omega-impl"], pattern)
        assert verdict.ok, verdict.violations

    def test_leader_is_smallest_correct(self):
        pattern = FailurePattern(3, {0: 200})
        _, trace = run_impl(
            lambda pid: OmegaFromHeartbeats(), "omega-impl", pattern,
            delays=ConstantDelay(2),
        )
        history = trace.annotations["omega-impl"]
        for pid in pattern.correct:
            assert history.last_value(pid) == 1

    def test_adaptive_timeouts_recover_from_spikes(self):
        """Delay spikes cause false suspicions; doubling timeouts heals
        them, and Ω still stabilises within the window."""
        pattern = FailurePattern.crash_free(3)
        system, trace = run_impl(
            lambda pid: OmegaFromHeartbeats(initial_timeout=20),
            "omega-impl", pattern, horizon=40_000,
            delays=SpikeDelay(base_hi=4, spike_hi=80, spike_probability=0.03),
        )
        verdict = check_omega(trace.annotations["omega-impl"], pattern)
        assert verdict.ok, verdict.violations


class TestFSFromHeartbeats:
    def test_behaves_as_fs_under_benign_timing(self):
        pattern = FailurePattern(3, {2: 400})
        _, trace = run_impl(
            lambda pid: FSFromHeartbeats(initial_timeout=200),
            "fs-impl", pattern, delays=ConstantDelay(2),
        )
        verdict = check_fs(trace.annotations["fs-impl"], pattern)
        assert verdict.ok, verdict.violations

    def test_stays_green_when_crash_free_and_benign(self):
        pattern = FailurePattern.crash_free(3)
        system, trace = run_impl(
            lambda pid: FSFromHeartbeats(initial_timeout=200),
            "fs-impl", pattern, delays=ConstantDelay(2),
        )
        for pid in range(3):
            assert system.component_at(pid, "fs-impl").output() == GREEN

    def test_accuracy_breaks_under_spikes_with_tight_timeout(self):
        """The irreducibility demo: an aggressive timeout plus delay
        spikes forges red with no failure — FS cannot be implemented in
        an asynchronous system, which is why (Ψ, FS) keeps it as an
        oracle."""
        pattern = FailurePattern.crash_free(3)
        forged = 0
        for seed in range(6):
            _, trace = run_impl(
                lambda pid: FSFromHeartbeats(initial_timeout=15),
                "fs-impl", pattern, seed=seed, horizon=30_000,
                delays=SpikeDelay(base_hi=5, spike_hi=400,
                                  spike_probability=0.05),
                stop_when=safety_broken("fs", "fs-impl"),
            )
            verdict = check_fs(trace.annotations["fs-impl"], pattern)
            if not verdict.ok:
                forged += 1
                assert trace.stop_reason == "stop-condition"
                assert trace.final_time < 30_000
        assert forged > 0

    def test_red_is_sticky(self):
        pattern = FailurePattern(3, {2: 100})
        _, trace = run_impl(
            lambda pid: FSFromHeartbeats(initial_timeout=100),
            "fs-impl", pattern, delays=ConstantDelay(2),
        )
        history = trace.annotations["fs-impl"]
        for pid in pattern.correct:
            values = [v for _, v in history.samples_of(pid)]
            if RED in values:
                assert values[values.index(RED):] == [RED] * (
                    len(values) - values.index(RED)
                )


class TestPerfectFromTimeouts:
    def test_satisfies_p_under_synchrony(self):
        pattern = FailurePattern(3, {1: 300})
        _, trace = run_impl(
            lambda pid: PerfectFromTimeouts(timeout=250),
            "p-impl", pattern, delays=ConstantDelay(2),
        )
        verdict = check_perfect(trace.annotations["p-impl"], pattern)
        assert verdict.ok, verdict.violations

    def test_accuracy_breaks_with_tight_timeout_and_spikes(self):
        pattern = FailurePattern.crash_free(3)
        forged = 0
        for seed in range(6):
            _, trace = run_impl(
                lambda pid: PerfectFromTimeouts(timeout=12),
                "p-impl", pattern, seed=seed,
                delays=SpikeDelay(base_hi=5, spike_hi=400,
                                  spike_probability=0.05),
                stop_when=safety_broken("perfect", "p-impl"),
            )
            verdict = check_perfect(trace.annotations["p-impl"], pattern)
            if not verdict.ok:
                forged += 1
                assert trace.stop_reason == "stop-condition"
                assert trace.final_time < 20_000
        assert forged > 0
