"""E3: (Ω, Σ)-based consensus in every environment (Corollaries 2-4)."""

import pytest

from repro.analysis.properties import check_consensus
from repro.core.detectors import OmegaOracle, SigmaOracle, omega_sigma_oracle
from repro.core.detectors.combined import ProductOracle
from repro.core.environment import (
    CrashFreeEnvironment,
    FCrashEnvironment,
    MajorityCorrectEnvironment,
    OrderedCrashEnvironment,
)
from repro.core.failure_pattern import FailurePattern
from repro.sim.network import SpikeDelay
from repro.sim.scheduler import BurstScheduler, StarvationScheduler
from repro.sim.system import SystemBuilder, decided
from repro.consensus.interface import consensus_component
from repro.consensus.paxos import OmegaSigmaConsensusCore, omega_of, sigma_of

from tests.helpers import consensus_system, run_consensus


class TestExtractors:
    def test_omega_of(self):
        assert omega_of((3, frozenset({1}))) == 3
        assert omega_of(5) == 5
        assert omega_of("junk") is None
        assert omega_of(None) is None

    def test_sigma_of(self):
        assert sigma_of((3, frozenset({1}))) == frozenset({1})
        assert sigma_of(frozenset({2})) == frozenset({2})
        assert sigma_of("junk") is None


class TestEveryEnvironment:
    """The headline: consensus with (Ω, Σ) regardless of crash count."""

    @pytest.mark.parametrize("seed", range(6))
    def test_wait_free_environment(self, seed):
        proposals = {p: f"v{p}" for p in range(5)}
        trace = run_consensus(
            5, seed, proposals, environment=FCrashEnvironment(5, 4)
        )
        verdict = check_consensus(trace, proposals)
        assert verdict.ok, verdict.violations

    @pytest.mark.parametrize("seed", range(3))
    def test_majority_environment(self, seed):
        proposals = {p: p for p in range(4)}
        trace = run_consensus(
            4, seed, proposals, environment=MajorityCorrectEnvironment(4)
        )
        assert check_consensus(trace, proposals).ok

    @pytest.mark.parametrize("seed", range(3))
    def test_crash_free(self, seed):
        proposals = {p: p * 10 for p in range(3)}
        trace = run_consensus(
            3, seed, proposals, environment=CrashFreeEnvironment(3)
        )
        assert check_consensus(trace, proposals).ok

    def test_ordered_crash_environment(self):
        proposals = {p: f"v{p}" for p in range(4)}
        trace = run_consensus(
            4, 9, proposals,
            environment=OrderedCrashEnvironment(4, first=0, second=1, f=3),
        )
        assert check_consensus(trace, proposals).ok

    def test_all_but_one_crash_immediately(self):
        pattern = FailurePattern(4, {0: 1, 1: 1, 2: 1})
        proposals = {p: f"v{p}" for p in range(4)}
        trace = run_consensus(4, 2, proposals, pattern=pattern)
        verdict = check_consensus(trace, proposals)
        assert verdict.ok, verdict.violations
        assert trace.decision_of(3, "consensus").value == "v3"


class TestSafetyUnderAdversity:
    """Uniform agreement and validity must survive everything."""

    def test_burst_scheduler(self):
        proposals = {p: p for p in range(4)}
        system = consensus_system(
            4, 1, proposals, pattern=FailurePattern(4, {2: 100})
        )
        system.scheduler = BurstScheduler(burst_length=50)
        trace = system.run(stop_when=decided("consensus"))
        assert check_consensus(trace, proposals).ok

    def test_delay_spikes(self):
        proposals = {p: p for p in range(4)}
        system = consensus_system(
            4, 2, proposals, pattern=FailurePattern(4, {0: 50}),
            horizon=120_000,
        )
        system.network.delay_model = SpikeDelay(
            base_hi=5, spike_hi=300, spike_probability=0.05
        )
        trace = system.run(stop_when=decided("consensus"))
        assert check_consensus(trace, proposals).ok

    def test_starved_minority_only_blocks_liveness_for_the_starved(self):
        """Starving one process: the rest still decide; agreement holds
        for every decision that happens."""
        proposals = {p: p for p in range(4)}
        system = consensus_system(
            4, 3, proposals, pattern=FailurePattern.crash_free(4),
            horizon=40_000,
        )
        system.scheduler = StarvationScheduler({3})
        trace = system.run()
        decisions = {d.pid: d.value for d in trace.decisions}
        assert set(decisions) >= {0, 1, 2}
        assert len(set(decisions.values())) == 1

    def test_noisy_detectors_cannot_break_agreement(self):
        """Even with maximal pre-stabilization noise, no two processes
        ever decide differently (in 10 seeds)."""
        for seed in range(10):
            proposals = {p: f"v{p}" for p in range(3)}
            trace = run_consensus(
                3, seed, proposals,
                environment=FCrashEnvironment(3, 2),
                detector=ProductOracle(OmegaOracle(noisy=True),
                                       SigmaOracle(noisy=True)),
            )
            values = {repr(d.value) for d in trace.decisions}
            assert len(values) <= 1


class TestProtocolDetails:
    def test_decided_value_is_some_proposal(self):
        for seed in range(5):
            proposals = {p: ("obj", p) for p in range(3)}
            trace = run_consensus(
                3, seed, proposals, environment=FCrashEnvironment(3, 2)
            )
            for d in trace.decisions:
                assert d.value in proposals.values()

    def test_rejects_none_proposal(self):
        core = OmegaSigmaConsensusCore()
        with pytest.raises(ValueError):
            core.propose(None)

    def test_late_proposal_still_decides(self):
        """A process whose proposal arrives only via propose() after
        start participates correctly (used by multi-instance hosts)."""
        from repro.protocols.base import CoreComponent

        cores = {}

        def factory(pid):
            core = OmegaSigmaConsensusCore(
                proposal=f"v{pid}" if pid != 2 else None
            )
            cores[pid] = core
            return CoreComponent(core)

        system = (
            SystemBuilder(n=3, seed=4, horizon=60_000)
            .detector(omega_sigma_oracle())
            .component("consensus", factory)
            .build()
        )

        # Let process 2 propose late, via a side-channel tasklet.
        def late_proposal():
            from repro.sim.tasklets import WaitSteps

            yield WaitSteps(100)
            cores[2].propose("late")

        system.hosts[2].spawn(late_proposal())
        trace = system.run(stop_when=decided("consensus"))
        proposals = {0: "v0", 1: "v1", 2: "late"}
        assert check_consensus(trace, proposals).ok

    def test_ballot_numbers_are_owned(self):
        """Ballots encode their proposer: no two processes ever share a
        ballot number."""
        core_a = OmegaSigmaConsensusCore("x")
        core_b = OmegaSigmaConsensusCore("y")

        class FakeCtx:
            def __init__(self, pid):
                self.pid = pid
                self.n = 3

        core_a.ctx = FakeCtx(0)
        core_b.ctx = FakeCtx(1)
        core_a._attempt = 5
        core_b._attempt = 5
        assert core_a._current_ballot() != core_b._current_ballot()

    def test_message_cost_scales_linearly_in_n(self):
        costs = {}
        for n in (3, 5, 7, 9, 13):
            proposals = {p: p for p in range(n)}
            trace = run_consensus(
                n, 0, proposals, environment=CrashFreeEnvironment(n)
            )
            assert trace.all_correct_decided("consensus"), n
            costs[n] = trace.messages_sent
        assert costs[7] < costs[3] * 30  # sane growth, not exponential

    @pytest.mark.parametrize("retry_interval", [2, 8, 32])
    def test_every_retry_interval_decides(self, retry_interval):
        """Leader pacing trades messages for latency (docs/PERF.md has
        the curve); no setting may cost correctness."""
        proposals = {p: f"v{p}" for p in range(4)}
        trace = (
            SystemBuilder(n=4, seed=3, horizon=80_000)
            .pattern(FailurePattern(4, {0: 40}))
            .detector(omega_sigma_oracle())
            .component(
                "consensus",
                consensus_component(
                    lambda pid: OmegaSigmaConsensusCore(
                        proposals[pid], retry_interval=retry_interval
                    )
                ),
            )
            .build()
            .run(stop_when=decided("consensus"))
        )
        verdict = check_consensus(trace, proposals)
        assert verdict.ok, verdict.violations
