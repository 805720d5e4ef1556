"""E5: Figure 3 — extracting Ψ from a QC algorithm (Theorem 6).

These are the heaviest integration tests in the suite (each runs the
full extraction pipeline: DAG gossip, forest simulation, a real QC
execution, then Ω/Σ extraction loops).  Horizons are sized to the
minimum that lets the pipeline complete, and each distinct extraction
runs once for the module: the tests only read the finished system and
trace, and several read the same one.
"""

import functools

import pytest

from repro.core.detector import BOTTOM, RED
from repro.core.detectors import PsiOracle
from repro.core.detectors.psi import FS_BRANCH, OMEGA_SIGMA_BRANCH
from repro.core.failure_pattern import FailurePattern
from repro.core.specs import check_psi
from repro.protocols.base import CoreComponent
from repro.qc.extract_psi import PsiExtraction
from repro.qc.psi_qc import PsiQCCore
from repro.sim.probes import OutputRecorder
from repro.sim.system import SystemBuilder


def run_extraction(branch, pattern, seed, horizon=16_000, prefix_stride=10):
    # Positional from here on: the memo keys on how it was called, and
    # ``horizon=16_000`` spelt out is the same extraction as the default.
    return _run_extraction(branch, pattern, seed, horizon, prefix_stride)


@functools.lru_cache(maxsize=None)
def _run_extraction(branch, pattern, seed, horizon, prefix_stride):
    system = (
        SystemBuilder(n=3, seed=seed, horizon=horizon)
        .pattern(pattern)
        .detector(PsiOracle(branch=branch))
        .component(
            "xpsi",
            lambda pid: CoreComponent(
                PsiExtraction(
                    qc_factory=lambda: PsiQCCore(),
                    prefix_stride=prefix_stride,
                )
            ),
        )
        .component("probe", lambda pid: OutputRecorder("xpsi", "psi-extraction"))
        .build()
    )
    trace = system.run()
    return system, trace


@pytest.mark.slow
class TestFSBranch:
    def test_emits_red_after_failure(self):
        pattern = FailurePattern(3, {2: 300})
        system, trace = run_extraction(FS_BRANCH, pattern, seed=2, horizon=8_000)
        verdict = check_psi(trace.annotations["psi-extraction"], pattern)
        assert verdict.ok, verdict.violations
        for pid in pattern.correct:
            core = system.component_at(pid, "xpsi").core
            assert core.branch == "fs"
            assert core.output() is RED

    def test_red_switch_is_after_the_crash(self):
        pattern = FailurePattern(3, {0: 400})
        _, trace = run_extraction(FS_BRANCH, pattern, seed=3, horizon=8_000)
        history = trace.annotations["psi-extraction"]
        for pid in pattern.correct:
            for t, value in history.samples_of(pid):
                if value is RED:
                    assert t >= 400
                    break


@pytest.mark.slow
class TestOmegaSigmaBranch:
    def test_crash_free_extraction_satisfies_psi(self):
        pattern = FailurePattern.crash_free(3)
        system, trace = run_extraction(
            OMEGA_SIGMA_BRANCH, pattern, seed=1
        )
        verdict = check_psi(trace.annotations["psi-extraction"], pattern)
        assert verdict.ok, verdict.violations
        for pid in range(3):
            core = system.component_at(pid, "xpsi").core
            assert core.branch == "omega-sigma"

    @pytest.mark.parametrize(
        "pattern, seed, horizon",
        [
            (FailurePattern.crash_free(3), 1, 16_000),
            (FailurePattern(3, {1: 300}), 3, 20_000),
        ],
    )
    def test_sigma_loop_accounts_for_its_simulations(self, pattern, seed, horizon):
        """Useful outcomes / attempts of the line 28-31 loop: every
        completed Σ round is exactly one decided run per configuration
        in C; everything else was a retry."""
        system, _ = run_extraction(
            OMEGA_SIGMA_BRANCH, pattern, seed=seed, horizon=horizon
        )
        rounds = 0
        for pid in pattern.correct:
            core = system.component_at(pid, "xpsi").core
            assert core.sigma_configs > 0
            assert core.sim_decided <= core.sim_attempts
            assert core.sim_decided // core.sigma_configs == core.sigma_rounds
            assert core.sim_steps >= core.sim_decided
            rounds += core.sigma_rounds
        assert rounds > 0

    def test_e5_summary_reports_the_simulation_counters(self):
        from repro.experiments.e05_extract_psi import case_spec
        from repro.runner import Campaign

        [summary] = Campaign(
            [case_spec(OMEGA_SIGMA_BRANCH, FailurePattern.crash_free(3), 1, 14_000)]
        ).run()
        m = summary.metrics
        assert m["ok"] and m["sigma_rounds"] > 0
        assert 0 < m["sim_decided"] <= m["sim_attempts"] <= m["sim_steps"]

    def test_extraction_with_a_crash_satisfies_psi(self):
        pattern = FailurePattern(3, {1: 300})
        system, trace = run_extraction(
            OMEGA_SIGMA_BRANCH, pattern, seed=3, horizon=20_000
        )
        verdict = check_psi(trace.annotations["psi-extraction"], pattern)
        assert verdict.ok, verdict.violations
        # Σ rounds really ran and produced all-correct quorums.
        for pid in pattern.correct:
            core = system.component_at(pid, "xpsi").core
            if core.sigma_rounds:
                assert core._sigma_output <= pattern.correct

    def test_agreed_tuple_is_shared(self):
        pattern = FailurePattern.crash_free(3)
        system, _ = run_extraction(OMEGA_SIGMA_BRANCH, pattern, seed=1)
        tuples = {
            system.component_at(p, "xpsi").core.agreed_tuple for p in range(3)
        }
        tuples.discard(None)
        assert len(tuples) == 1

    def test_forest_decisions_bracket_the_critical_pair(self):
        pattern = FailurePattern.crash_free(3)
        system, _ = run_extraction(OMEGA_SIGMA_BRANCH, pattern, seed=1)
        decisions = system.component_at(0, "xpsi").core.forest_decisions
        assert decisions is not None
        assert decisions[0] == 0
        assert decisions[-1] == 1


class TestOutputStructure:
    def test_initial_output_is_bottom(self):
        core = PsiExtraction(qc_factory=lambda: PsiQCCore())
        assert core.output() is BOTTOM
        assert core.branch is None


@pytest.mark.slow
class TestExtractionFromPlainConsensus:
    """Theorem 6 quantifies over *any* QC algorithm.  A consensus
    algorithm is one (it never exercises the Q option), so feeding
    Figure 3 an (Ω, Σ) consensus core must also emit a valid Ψ — and
    the forest can never see Q, so the branch is always (Ω, Σ)."""

    def test_psi_from_consensus_algorithm(self):
        from repro.consensus.paxos import OmegaSigmaConsensusCore
        from repro.core.detectors import omega_sigma_oracle

        pattern = FailurePattern(3, {2: 250})
        system = (
            SystemBuilder(n=3, seed=6, horizon=18_000)
            .pattern(pattern)
            .detector(omega_sigma_oracle())
            .component(
                "xpsi",
                lambda pid: CoreComponent(
                    PsiExtraction(
                        qc_factory=lambda: OmegaSigmaConsensusCore(),
                        prefix_stride=10,
                    )
                ),
            )
            .component(
                "probe", lambda pid: OutputRecorder("xpsi", "psi-extraction")
            )
            .build()
        )
        trace = system.run()
        verdict = check_psi(trace.annotations["psi-extraction"], pattern)
        assert verdict.ok, verdict.violations
        for pid in pattern.correct:
            core = system.component_at(pid, "xpsi").core
            assert core.branch == "omega-sigma"
            assert core.forest_decisions is not None
            assert not any(d is None for d in core.forest_decisions)
