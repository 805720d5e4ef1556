"""Tests for the virtual runtime and balanced path driver."""

import math
import random

import pytest

from repro.consensus.paxos import OmegaSigmaConsensusCore
from repro.protocols.base import ProtocolCore
from repro.qc.cht.samples import Sample, SampleDag
from repro.qc.cht.simulation import (
    BalancedPathDriver,
    VirtualRuntime,
    _driver_waiting,
    apply_schedule,
    canonical_extension,
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
        s1 = self._mk(1, 1, (0, 0))
        pool = {0: s0, 1: s1}
        picked = driver.choose(lambda q: pool.get(q))
        assert picked is s0  # tie: lowest pid
        del pool[0]
        # Process 1 is now strictly behind and available.
        pool[1] = self._mk(1, 1, (1, 0))
        assert driver.choose(lambda q: pool.get(q)) is pool[1]

    def test_waits_for_laggard_within_patience(self):
        """A laggard with nothing available gets exactly ``patience``
        waits before being benched."""
        driver = BalancedPathDriver(2, patience=3)
        s0 = self._mk(0, 1, (0, 0))
        peek = lambda q: s0 if q == 0 else None  # noqa: E731
        for _ in range(3):  # p1 is an empty-handed laggard: wait
            assert driver.choose(peek) is None
        # Patience exhausted: p1 benched; p0 proceeds.
        assert driver.choose(peek) is s0

    def test_benched_process_returns_with_samples(self):
        driver = BalancedPathDriver(2, patience=1)
        s0 = self._mk(0, 1, (0, 0))
        peek0 = lambda q: s0 if q == 0 else None  # noqa: E731
        assert driver.choose(peek0) is None  # wait for p1 (patience 1)
        assert driver.choose(peek0) is s0  # p1 benched, p0 applied
        # p1 delivers a compatible sample: unbenched and, as the least
        # applied process, immediately preferred.
        s1 = self._mk(1, 1, (2, 0))
        picked = driver.choose(lambda q: s1 if q == 1 else None)
        assert picked is s1


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


def gossiped_dags(n=3, rounds=400, seed=0, leader=0):
    """``n`` DAGs of (Ω, Σ) samples grown by lossy random gossip, so
    descendance is a genuine partial order (unlike ``benign_dag``)."""
    rng = random.Random(seed)
    dags = [SampleDag(n) for _ in range(n)]
    sent = [[(0,) * n for _ in range(n)] for _ in range(n)]
    quorum = frozenset(range(n))
    for _ in range(rounds):
        for p in range(n):
            dags[p].take_sample(p, (leader, quorum))
            peer = rng.randrange(n)
            if peer != p and rng.random() < 0.6:
                dags[peer].merge(dags[p].delta_since(sent[p][peer]))
                sent[p][peer] = dags[p].counts()
    return dags


def reference_simulate_run(
    n, core_factory, proposals, dag, target,
    prefix=(), restrict_after=None, max_steps=100_000, patience=2,
):
    """``simulate_run`` with the pools built the linear way — one full
    pass over every process's samples per call.  The oracle the
    windowed pool construction is compared against."""
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
    used = {q: 0 for q in range(n)}
    decided = False
    while not decided and runtime.steps_taken - len(prefix) < max_steps:
        applied, decided = canonical_extension(
            runtime, pools, used, driver, target, max_steps
        )
        schedule.extend(applied)
        if not applied and not decided and not _driver_waiting(driver, pools, used):
            break
    return runtime, schedule, decided


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
