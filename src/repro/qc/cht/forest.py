"""The simulation forest Υ_p of Figure 3.

Process ``p`` organises its simulated runs of A into ``n + 1`` trees;
tree ``i`` roots at the initial configuration ``I_i`` in which processes
``p_1 .. p_i`` propose 1 and the rest propose 0 (our pids being
0-based: ``pid < i`` proposes 1).

The full CHT forest contains *every* schedule compatible with a DAG
path.  Line 8 of Figure 3 only needs, per tree, *some* run in which
``p`` decides, so :class:`SimulationForest` maintains one *canonical*
run per tree — a deterministic fair path through the DAG, extended
incrementally as gossip grows the DAG — and reports each tree's
decision when it arrives.  §6.3.1's tags, valence and critical index
reduce, over canonical runs, to :meth:`SimulationForest.critical_pair`:
the first adjacent pair of trees whose decisions differ.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from repro.protocols.base import ProtocolCore
from repro.qc.cht.samples import Sample, SampleDag
from repro.qc.cht.simulation import BalancedPathDriver, VirtualRuntime


def initial_proposals(n: int, i: int) -> Tuple[int, ...]:
    """The initial configuration I_i: first ``i`` processes propose 1."""
    if not 0 <= i <= n:
        raise ValueError(f"tree index must be in [0, n], got {i}")
    return tuple(1 if pid < i else 0 for pid in range(n))


class TreeRun:
    """The canonical run of one tree, extended as the DAG grows.

    Path selection is the balanced driver of
    :class:`~repro.qc.cht.simulation.BalancedPathDriver`: prefer the
    least-stepped process, waiting out a bounded patience for processes
    whose compatible samples have not gossiped in yet, so every process
    that keeps sampling keeps taking simulated steps — the fairness the
    simulated algorithm's Termination needs.
    """

    def __init__(
        self,
        n: int,
        core_factory: Callable[[int], ProtocolCore],
        proposals: Sequence[Any],
        target: int,
        patience: int = 25,
    ):
        self.n = n
        self.target = target
        self.runtime = VirtualRuntime(n, core_factory, proposals)
        self.schedule: List[Sample] = []
        self.driver = BalancedPathDriver(n, patience=patience)
        # Per process, the index in its sample list of the next
        # candidate: the samples before it were applied or proven
        # permanently incompatible with this path.
        self._consumed = [0] * n

    @property
    def decided(self) -> bool:
        return self.runtime.decided(self.target)

    @property
    def decision(self) -> Any:
        return self.runtime.decision_of(self.target)

    def extend(self, dag: SampleDag, max_steps: int = 10_000) -> bool:
        """Advance the canonical path with whatever the DAG now offers.

        Returns True iff the target has decided (possibly earlier).
        Samples incompatible with the current tip are skipped for good:
        once a sample fails to descend from the tip it can never lie on
        this path's future (descendance would have to be transitive
        through the tip).
        """
        pools = [dag.samples_view(q) for q in range(self.n)]
        steps = 0
        while steps < max_steps and not self.decided:
            sample = self.driver.choose(pools, self._consumed)
            if sample is None:
                break  # wait for gossip; patience ticked inside choose
            self.runtime.step(sample.pid, sample.value)
            self.schedule.append(sample)
            steps += 1
        return self.decided


class SimulationForest:
    """The n+1 canonical tree runs of Figure 3, line 6/8."""

    def __init__(
        self,
        n: int,
        core_factory: Callable[[int], ProtocolCore],
        target: int,
    ):
        self.n = n
        self.target = target
        self.trees: List[TreeRun] = [
            TreeRun(n, core_factory, initial_proposals(n, i), target)
            for i in range(n + 1)
        ]

    def extend_all(self, dag: SampleDag, max_steps: int = 10_000) -> None:
        for tree in self.trees:
            if not tree.decided:
                tree.extend(dag, max_steps)

    @property
    def all_decided(self) -> bool:
        """Line 8: p decided in some run of every tree."""
        return all(tree.decided for tree in self.trees)

    def decisions(self) -> List[Any]:
        return [tree.decision for tree in self.trees]

    def critical_pair(self) -> Tuple[int, "TreeRun", "TreeRun"]:
        """The smallest adjacent pair of trees with different decisions.

        Only meaningful once every tree decided and no decision is Q
        (line 12's "every tree of Υ_p has a run where p decides 0 or
        1"); then tree 0 decided 0 and tree n decided 1 by QC validity,
        so a boundary must exist.
        """
        decisions = self.decisions()
        for i in range(1, self.n + 1):
            if decisions[i - 1] != decisions[i]:
                return i, self.trees[i - 1], self.trees[i]
        raise RuntimeError(
            f"no critical pair: all trees decided {decisions[0]!r}"
        )
