"""E5: Figure 3 — extracting Ψ from a QC algorithm (Theorem 6).

These are the heaviest integration tests in the suite (each runs the
full extraction pipeline: DAG gossip, forest simulation, a real QC
execution, then Ω/Σ extraction loops).  Horizons are sized to the
minimum that lets the pipeline complete, and each distinct extraction
runs once for the module: the tests only read the finished system and
trace, and several read the same one.
"""

import functools
import hashlib

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


def run_extraction(
    branch, pattern, seed, horizon=16_000, prefix_stride=10, gossip_every=4
):
    # Positional from here on: the memo keys on how it was called, and
    # ``horizon=16_000`` spelt out is the same extraction as the default.
    return _run_extraction(
        branch, pattern, seed, horizon, prefix_stride, gossip_every
    )


@functools.lru_cache(maxsize=None)
def _run_extraction(branch, pattern, seed, horizon, prefix_stride, gossip_every):
    system = (
        SystemBuilder(n=3, seed=seed, horizon=horizon)
        .pattern(pattern)
        .detector(PsiOracle(branch=branch))
        .component(
            "xpsi",
            lambda pid: CoreComponent(
                PsiExtraction(
                    qc_factory=lambda: PsiQCCore(),
                    gossip_every=gossip_every,
                    prefix_stride=prefix_stride,
                )
            ),
        )
        .component("probe", lambda pid: OutputRecorder("xpsi", "psi-extraction"))
        .build()
    )
    trace = system.run()
    return system, trace


#: The Σ loop's outcome on ``test_sigma_loop_accounts_for_its_simulations``'s
#: cells, by seed and correct process: ``sim_attempts``, ``sim_decided``,
#: ``sigma_rounds`` and the sha256 of the process's Σ outputs with the
#: times they changed.
SIGMA_LOOP_PINS = {
    1: {
        0: (1290, 224, 16, "a14ef81471725888ac8065da1cff9ac184ea89e31cb3cc05e2e2749da3b58144"),
        1: (1313, 168, 12, "b836d2dd971af135b7de868acf846c306ae0105766d1fe74252934a073349e44"),
        2: (1260, 168, 12, "6aa2f952fe984ca7a921bfa178f79a4bddf05ff9ac6ebcba9ee59fee16c14fbb"),
    },
    3: {
        0: (2408, 560, 56, "097e564fc1d4154a63375045c7dd4498eabfd7b24919a2ce151d8ad1129ea4dd"),
        2: (2408, 390, 39, "3b1acbbf70e4ee74bb10a4d2892ed6f24d065bb286de1c6570064c569acef1dc"),
    },
}


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
        "gossip_every, prefix_stride, horizon",
        [
            (2, 10, 4_000),
            (8, 10, 4_000),
            (24, 10, 10_000),
            (4, 4, 4_000),
            (4, 16, 4_000),
            (4, 64, 4_000),
        ],
    )
    def test_every_cadence_emits_valid_psi(self, gossip_every, prefix_stride, horizon):
        """Gossip cadence and prefix stride move only the cost
        (docs/PERF.md has the curves): at every setting each process
        completes a Σ round and the emitted quorums satisfy Ψ.  Each
        horizon is the cheapest at which every process completes one."""
        pattern = FailurePattern.crash_free(3)
        system, trace = run_extraction(
            OMEGA_SIGMA_BRANCH, pattern, 1, horizon, prefix_stride, gossip_every
        )
        verdict = check_psi(trace.annotations["psi-extraction"], pattern)
        assert verdict.ok, verdict.violations
        for pid in range(3):
            core = system.component_at(pid, "xpsi").core
            assert core.branch == "omega-sigma"
            assert core.sigma_rounds > 0

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
        in C; everything else was a retry.  The attempt and round
        counts and each correct process's Σ outputs (with the times
        they changed) are pinned: how the loop computes an attempt may
        change its cost, never its outcome."""
        system, trace = run_extraction(
            OMEGA_SIGMA_BRANCH, pattern, seed=seed, horizon=horizon
        )
        history = trace.annotations["psi-extraction"]
        rounds = 0
        for pid in pattern.correct:
            core = system.component_at(pid, "xpsi").core
            assert core.sigma_configs > 0
            assert core.sim_decided <= core.sim_attempts
            assert core.sim_decided // core.sigma_configs == core.sigma_rounds
            assert core.sim_steps >= core.sim_decided
            # Retries resume their kept attempt: fewer steps of A are
            # executed than the attempts' schedules hold.
            assert core.sim_steps < core.sim_path_steps
            outputs = [
                (t, tuple(sorted(value[1])))
                for t, value in history.samples_of(pid)
                if isinstance(value, tuple)
            ]
            digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
            assert (
                core.sim_attempts, core.sim_decided, core.sigma_rounds, digest
            ) == SIGMA_LOOP_PINS[seed][pid]
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
