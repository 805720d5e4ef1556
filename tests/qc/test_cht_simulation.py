"""Tests for the virtual runtime and balanced path driver."""

import math
import random

import pytest

from repro.consensus.paxos import OmegaSigmaConsensusCore
from repro.protocols.base import ProtocolCore
from repro.qc.cht.samples import Sample, SampleDag
from repro.qc.cht.simulation import (
    BalancedPathDriver,
    SimulationAttempt,
    VirtualRuntime,
    apply_schedule,
    simulate_run,
)
from repro.qc.psi_qc import PsiQCCore


def benign_dag(n=3, rounds=120, leader=0):
    """A fully-gossiped DAG of (Ω, Σ) samples: every sample knows every
    earlier one (as if gossip were instantaneous)."""
    dag = SampleDag(n)
    quorum = frozenset(range(n))
    dags = [dag]  # single shared dag = instantaneous gossip
    for r in range(rounds):
        for q in range(n):
            dag.take_sample(q, (leader, quorum))
    return dag


class EchoCore(ProtocolCore):
    """Decides once it has heard from everyone (including itself)."""

    def __init__(self):
        super().__init__()
        self.heard = set()

    def start(self):
        self.broadcast(("hello", self.pid))

    def propose(self, value):
        pass

    def on_message(self, sender, payload):
        self.heard.add(sender)
        if len(self.heard) == self.n and not self.decided:
            self.decide(sorted(self.heard))


class TestVirtualRuntime:
    def test_lazy_start_and_messaging(self):
        rt = VirtualRuntime(2, lambda pid: EchoCore(), [None, None])
        # Stepping process 0 starts it; its broadcast lands in buffers.
        rt.step(0, d := "detector-value")
        assert rt.cores[0].heard == set()
        rt.step(1, d)  # starts 1, receives 0's hello, broadcasts its own
        rt.step(0, d)  # receives its own hello
        rt.step(0, d)  # receives 1's hello -> decides
        assert rt.decided(0)
        assert rt.decision_of(0) == [0, 1]

    def test_unstepped_process_never_starts(self):
        rt = VirtualRuntime(2, lambda pid: EchoCore(), [None, None])
        rt.step(0, None)
        assert rt.cores[1].ctx is None  # never attached

    def test_proposals_delivered_on_start(self):
        rt = VirtualRuntime(
            2, lambda pid: OmegaSigmaConsensusCore(), ["a", "b"]
        )
        rt.step(0, (0, frozenset({0, 1})))
        assert rt.cores[0].proposal == "a"

    def test_step_takers_recorded(self):
        rt = VirtualRuntime(3, lambda pid: EchoCore(), [None] * 3)
        rt.step(1, None)
        rt.step(1, None)
        rt.step(2, None)
        assert rt.step_takers == {1, 2}

    def test_mismatched_proposals_rejected(self):
        with pytest.raises(ValueError):
            VirtualRuntime(3, lambda pid: EchoCore(), [None, None])


class TestBalancedDriver:
    def _mk(self, pid, seq, know):
        return Sample(pid=pid, seq=seq, value="d", know=tuple(know))

    def test_prefers_least_applied(self):
        driver = BalancedPathDriver(2, patience=1)
        s0 = self._mk(0, 1, (0, 0))
        s1 = self._mk(1, 1, (1, 0))
        pools, used = [[s0], [s1]], [0, 0]
        assert driver.choose(pools, used) is s0  # tie: lowest pid
        # Process 1 is now strictly behind and available.
        assert driver.choose(pools, used) is s1
        assert used == [1, 1]  # both picks consumed

    def test_waits_for_laggard_within_patience(self):
        """A laggard with nothing available gets exactly ``patience``
        waits before being benched."""
        driver = BalancedPathDriver(2, patience=3)
        s0 = self._mk(0, 1, (0, 0))
        pools, used = [[s0], []], [0, 0]
        for _ in range(3):  # p1 is an empty-handed laggard: wait
            assert driver.choose(pools, used) is None
        assert used == [0, 0]  # waiting consumes nothing
        # Patience exhausted: p1 benched; p0 proceeds.
        assert driver.choose(pools, used) is s0

    def test_benched_process_returns_with_samples(self):
        driver = BalancedPathDriver(2, patience=1)
        s0 = self._mk(0, 1, (0, 0))
        pools, used = [[s0], []], [0, 0]
        assert driver.choose(pools, used) is None  # wait for p1 (patience 1)
        assert driver.choose(pools, used) is s0  # p1 benched, p0 applied
        # p1 delivers a compatible sample: unbenched and, as the least
        # applied process, immediately preferred.
        s1 = self._mk(1, 1, (2, 0))
        pools[1].append(s1)
        assert driver.choose(pools, used) is s1

    def test_scan_skips_incompatible_samples_for_good(self):
        driver = BalancedPathDriver(2, patience=1)
        s0 = self._mk(0, 1, (0, 0))
        blind = self._mk(1, 1, (0, 0))  # never saw s0
        seen = self._mk(1, 2, (1, 1))
        pools, used = [[s0], [blind, seen]], [0, 0]
        assert driver.choose(pools, used) is s0
        assert driver.scan(pools, used) == {1: seen}
        assert used == [1, 1]  # ``blind`` is behind the pool index now


class TestSimulateRun:
    def test_consensus_decides_on_benign_dag(self):
        dag = benign_dag(n=3, rounds=200)
        rt, schedule, decided = simulate_run(
            3,
            lambda pid: OmegaSigmaConsensusCore(),
            ["a", "b", "c"],
            dag,
            target=1,
        )
        assert decided
        assert rt.decision_of(1) in ("a", "b", "c")
        assert len(schedule) > 0

    def test_qc_core_decides_on_benign_dag(self):
        dag = benign_dag(n=3, rounds=200)
        rt, schedule, decided = simulate_run(
            3, lambda pid: PsiQCCore(), [0, 1, 1], dag, target=0
        )
        assert decided
        assert rt.decision_of(0) in (0, 1)

    def test_prefix_replay_reproduces_decision(self):
        dag = benign_dag(n=3, rounds=200)
        rt1, schedule, decided = simulate_run(
            3, lambda pid: OmegaSigmaConsensusCore(), ["a", "b", "c"], dag,
            target=0,
        )
        assert decided
        rt2 = VirtualRuntime(
            3, lambda pid: OmegaSigmaConsensusCore(), ["a", "b", "c"]
        )
        apply_schedule(rt2, schedule)
        assert rt2.decision_of(0) == rt1.decision_of(0)

    def test_restrict_after_excludes_old_samples(self):
        dag = SampleDag(2)
        old = dag.take_sample(0, "old")
        pivot = dag.take_sample(1, "pivot")
        fresh = dag.take_sample(0, "fresh")
        rt, schedule, _ = simulate_run(
            2, lambda pid: EchoCore(), [None, None], dag, target=0,
            restrict_after=pivot, max_steps=10,
        )
        assert all(s.descends_from(pivot) for s in schedule)

    def test_schedule_is_a_dag_path(self):
        dag = benign_dag(n=3, rounds=100)
        _, schedule, _ = simulate_run(
            3, lambda pid: OmegaSigmaConsensusCore(), ["a", "b", "c"], dag,
            target=2,
        )
        for prev, cur in zip(schedule, schedule[1:]):
            assert cur.compatible_after(prev.pid, prev.seq)


class GossipedDags:
    """``n`` DAGs of (Ω, Σ) samples grown by lossy random gossip, so
    descendance is a genuine partial order (unlike ``benign_dag``).
    :meth:`grow` adds rounds to the same DAGs."""

    def __init__(self, n=3, seed=0, leader=0):
        self.n = n
        self.rng = random.Random(seed)
        self.dags = [SampleDag(n) for _ in range(n)]
        self.sent = [[(0,) * n for _ in range(n)] for _ in range(n)]
        self.value = (leader, frozenset(range(n)))

    def grow(self, rounds):
        for _ in range(rounds):
            for p in range(self.n):
                self.dags[p].take_sample(p, self.value)
                peer = self.rng.randrange(self.n)
                if peer != p and self.rng.random() < 0.6:
                    self.dags[peer].merge(
                        self.dags[p].delta_since(self.sent[p][peer])
                    )
                    self.sent[p][peer] = self.dags[p].counts()
        return self.dags


def gossiped_dags(n=3, rounds=400, seed=0, leader=0):
    return GossipedDags(n, seed, leader).grow(rounds)


def reference_simulate_run(
    n, core_factory, proposals, dag, target,
    prefix=(), restrict_after=None, max_steps=100_000, patience=2,
):
    """``simulate_run`` from scratch: the pools built the linear way —
    one full pass over every process's samples per call — and the path
    walked with A stepped along it, nothing kept from any earlier call.
    The oracle both the windowed pools and the kept attempt's resumed
    retries are compared against."""
    runtime = VirtualRuntime(n, core_factory, proposals)
    apply_schedule(runtime, prefix)
    schedule = list(prefix)
    driver = BalancedPathDriver(n, patience=patience)
    driver.note_prefix(schedule)
    prefix_counts = {}
    for s in prefix:
        prefix_counts[s.pid] = max(prefix_counts.get(s.pid, 0), s.seq)
    pools = []
    for q in range(n):
        pool = dag.samples_of(q)
        if restrict_after is not None:
            pool = [s for s in pool if s.descends_from(restrict_after)]
        else:
            pool = [s for s in pool if s.seq > prefix_counts.get(q, 0)]
        pools.append(pool)
    used = [0] * n
    while len(schedule) - len(prefix) < max_steps and not runtime.decided(target):
        sample = driver.choose(pools, used)
        if sample is None:
            if all(used[q] == len(pools[q]) for q in range(n)):
                break  # no process has a compatible sample: dry
            continue  # the driver is waiting out a laggard's patience
        runtime.step(sample.pid, sample.value)
        schedule.append(sample)
    return runtime, schedule, runtime.decided(target)


class TestWindowedPools:
    """Pools read from the DAG's lists at a bisected index are the
    pools the linear filters built, element for element."""

    def _both(self, dag, target, **kwargs):
        args = (3, lambda pid: PsiQCCore(), [0, 1, 1], dag, target)
        rt, schedule, decided = simulate_run(*args, **kwargs)
        ref_rt, ref_schedule, ref_decided = reference_simulate_run(*args, **kwargs)
        assert (schedule, decided, rt.step_takers) == (
            ref_schedule, ref_decided, ref_rt.step_takers,
        )
        assert rt.decision_of(target) == ref_rt.decision_of(target)
        return schedule, decided

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_linear_filter_oracle(self, seed):
        dag = gossiped_dags(seed=seed)[0]
        full, decided = self._both(dag, target=0)
        assert decided
        prefix = tuple(full[: len(full) // 2])
        assert prefix
        self._both(dag, target=0, prefix=prefix)
        outcomes = set()
        for seq in (1, dag.count(0) // 2, dag.count(0) - 10, dag.count(0)):
            u = dag.sample(0, seq)
            for pre in ((), prefix):
                _, decided = self._both(
                    dag, target=0, prefix=pre, restrict_after=u
                )
                outcomes.add(decided)
        # Early pivots leave enough fresh samples to decide, the last
        # one does not: both outcomes of the Σ loop's attempt are hit.
        assert outcomes == {True, False}

    def test_prefix_beyond_the_local_dag(self):
        """A shipped schedule may mention samples this DAG has not
        received yet; those processes simply have an empty window."""
        dags = gossiped_dags(seed=3)
        full, _ = self._both(dags[0], target=0)
        behind = SampleDag(3)
        behind.merge(s for s in dags[0].all_samples() if s.seq <= 5)
        self._both(behind, target=0, prefix=tuple(full[:30]))

    def test_pool_construction_probes_logarithmically(self, monkeypatch):
        n, m = 3, 2_000
        dag = SampleDag(n)
        for _ in range(m):
            for q in range(n):
                dag.take_sample(q, None)
        probes = []
        descends_from = Sample.descends_from

        def counting(self, other):
            probes.append((self.pid, self.seq))
            return descends_from(self, other)

        monkeypatch.setattr(Sample, "descends_from", counting)
        u = dag.sample(0, m // 3)
        _, schedule, decided = simulate_run(
            n, lambda pid: EchoCore(), [None] * n, dag, target=0,
            restrict_after=u,
        )
        assert decided
        assert 0 < len(probes) <= n * (math.ceil(math.log2(m)) + 1)
        monkeypatch.undo()
        assert all(s.descends_from(u) for s in schedule)


class TestKeptAttempt:
    """The licence for resuming a failed attempt instead of re-simulating
    it: every retry of a kept :class:`SimulationAttempt`, as gossip grows
    the DAG between retries, equals a from-scratch simulation of the
    grown DAG — schedule, outcome, step takers and decision."""

    @staticmethod
    def _shipped(dag, cut):
        """The first ``cut`` steps of a run on ``dag``."""
        full = reference_simulate_run(
            3, lambda pid: PsiQCCore(), [0, 1, 1], dag, 0
        )[1]
        assert len(full) > cut
        return tuple(full[:cut])

    @pytest.mark.parametrize(
        "seed, start, pivot, prefix",
        [
            (0, 30, "early", "none"),
            (1, 30, "middle", "local"),
            (2, 30, "last", "none"),  # every window starts empty
            (3, 60, "middle", "beyond"),
            (4, 60, "last", "beyond"),
            (5, 30, None, "beyond"),  # no pivot: pools after the prefix
        ],
    )
    def test_every_retry_equals_a_fresh_run(self, seed, start, pivot, prefix):
        gossip = GossipedDags(seed=seed)
        dag = gossip.grow(start)[0]
        u = None
        if pivot is not None:
            seq = {"early": 1, "middle": dag.count(0) // 2, "last": dag.count(0)}
            u = dag.sample(0, seq[pivot])
        shipped = ()
        if prefix == "local":
            shipped = self._shipped(dag, 6)
        elif prefix == "beyond":
            # Shipped from a process that is further ahead: it mentions
            # samples this DAG has not received yet.
            shipped = self._shipped(gossiped_dags(seed=seed)[1], 40)
            assert not all(dag.contains(s.pid, s.seq) for s in shipped)
        args = (3, lambda pid: PsiQCCore(), [0, 1, 1], dag, 0)
        kwargs = dict(prefix=shipped, restrict_after=u)
        attempt = SimulationAttempt(*args, **kwargs)
        retries = path_steps = 0
        while True:
            rt, schedule, decided = attempt.run()
            ref_rt, ref_schedule, ref_decided = reference_simulate_run(
                *args, **kwargs
            )
            assert (schedule, decided, rt.step_takers) == (
                ref_schedule, ref_decided, ref_rt.step_takers,
            )
            assert rt.decision_of(0) == ref_rt.decision_of(0)
            assert rt.steps_taken == len(schedule)
            path_steps += len(schedule)
            if decided:
                break
            retries += 1
            assert retries < 200
            gossip.grow(1)
        assert retries > 0
        # The retries resumed the kept run rather than re-executing it.
        assert attempt.steps_executed < path_steps
