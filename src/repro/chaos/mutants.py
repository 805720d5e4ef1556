"""Deliberately broken algorithms — the fuzz loop's positive controls.

A fuzzer that never fires might be strong or might be blind.  The
mutants here carry known, specific bugs that an in-spec adversary can
expose; the test suite asserts the chaos loop *finds* them, *shrinks*
the witness, and *replays* it deterministically.

:class:`SubMajorityConsensusCore` breaks the quorum intersection at the
heart of Paxos safety: it declares a phase complete after hearing from
``quorum_size`` processes, ignoring Σ.  With ``quorum_size = 1`` any
process that currently believes itself the Ω leader can run a whole
ballot against itself alone — two processes holding that belief at once
(routine before Ω stabilises, especially under churn) decide their own
proposals independently, violating Uniform Agreement.

:class:`EagerQuitQCCore` breaks Figure 2's branch test: it treats *any*
non-⊥ Ψ value as the failure signal and quits.  On a crash-free run Ψ
switches to (Ω, Σ) and the mutant still returns Q — a Q decision with
no prior failure, which QC Validity forbids.

:class:`HastyCommitNBACCore` breaks Figure 4's vote-gathering: it
decides straight off its *own* vote, never waiting for the others.  A
single No voter elsewhere makes its Commit violate NBAC Validity (and
the No voter's Abort then breaks Uniform Agreement too).

:class:`RedCommitNBACCore` breaks Figure 4's *quit path* only: when FS
turns red before every vote arrived, it decides unilaterally off its
own vote instead of proposing 0 to QC.  A Yes voter whose FS reddens
while a No vote is still in flight decides Commit — NBAC Validity
(Commit requires all-Yes) breaks.  The bug is unreachable under
constant detector assignments: constant FS is green on every admissible
root (red forever would claim a failure at time 0), so the red branch
never runs and the mutant is behaviourally identical to the correct
core.  Only the explorer's detector-switch dimension — a scripted
green→red transition after a crash — drives the broken path.

:class:`StaleReadRegisterBank` breaks ABD's read: it answers from the
local replica with no quorum round.  A write that completed on a
quorum the reader is not in stays invisible to a later read, which
returns the older value — linearizability breaks.  At n = 2 that needs
a Σ vector whose quorums intersect without containing the reader (the
writer's quorum is the writer alone), and a POR that keeps "the write
completes, then the read is invoked" apart from its swap.
"""

from __future__ import annotations

from typing import Any, Generator, Set

from repro.consensus.interface import consensus_component
from repro.consensus.paxos import OmegaSigmaConsensusCore
from repro.core.detector import BOTTOM
from repro.nbac.from_qc import NBACFromQCCore
from repro.nbac.spec import ABORT, COMMIT, YES
from repro.qc.psi_qc import PsiQCCore
from repro.qc.spec import Q
from repro.registers.abd import RegisterBank
from repro.sim.tasklets import WaitUntil


class SubMajorityConsensusCore(OmegaSigmaConsensusCore):
    """(Ω, Σ) consensus with Σ's quorums swapped for a fixed head-count.

    Everything else — ballots, promises, decide broadcast — is the
    parent's; only :meth:`_quorum_reached` is broken.  ``quorum_size``
    below ``n // 2 + 1`` voids the phase-1/phase-2 intersection
    guarantee that Agreement rests on.
    """

    def __init__(self, proposal: Any = None, quorum_size: int = 1, **kwargs: Any):
        if quorum_size < 1:
            raise ValueError("quorum_size must be >= 1")
        super().__init__(proposal, **kwargs)
        self.quorum_size = quorum_size

    def _quorum_reached(self, responders: Set[int]) -> bool:
        return len(responders) >= self.quorum_size


def submajority_factory(proposals_items, quorum_size: int = 1):
    """Component factory for the sub-majority mutant (spec-referenceable)."""
    proposals = dict(proposals_items)
    return consensus_component(
        lambda pid: SubMajorityConsensusCore(proposals[pid], quorum_size)
    )


class EagerQuitQCCore(PsiQCCore):
    """Figure 2 with the branch test inverted into a blanket quit.

    The correct core returns Q only when Ψ behaves like FS — which Ψ
    may do only after a failure.  This mutant decides Q on the first
    non-⊥ sample regardless of its shape, so a crash-free run (where Ψ
    necessarily behaves like (Ω, Σ)) still quits: QC Validity's "Q
    implies a prior failure" clause breaks within a couple of steps.
    """

    def _run(self):
        yield WaitUntil(
            lambda: self.proposal is not None and self._psi() is not BOTTOM
        )
        self.branch_taken = "fs"
        self.decide(Q)


def eagerquit_factory(proposals_items):
    """Component factory for the eager-quit QC mutant."""
    proposals = dict(proposals_items)
    return consensus_component(lambda pid: EagerQuitQCCore(proposals[pid]))


class HastyCommitNBACCore(NBACFromQCCore):
    """Figure 4 without the wait: decide straight off the local vote.

    The correct core gathers every vote (or an FS red) and runs QC so
    that all processes reach the same outcome for the same reason.
    This mutant broadcasts its vote and immediately decides Commit on
    its own Yes — NBAC Validity (Commit requires *all* votes Yes)
    breaks as soon as any other process voted No.
    """

    def _run(self):
        yield WaitUntil(lambda: self.vote is not None)
        self.broadcast(("VOTE", self.vote))
        self.decide(COMMIT if self.vote == YES else ABORT)


def hastycommit_nbac_core(vote=None):
    """A (Ψ, FS)-wired hasty-commit core, mirroring ``psi_fs_nbac_core``."""
    return HastyCommitNBACCore(
        vote=vote,
        qc_factory=lambda: PsiQCCore(psi_extract=lambda d: d[0]),
        fs_extract=lambda d: d[1],
    )


def hastycommit_factory(votes_items):
    """Component factory for the hasty-commit NBAC mutant."""
    votes = dict(votes_items)
    return consensus_component(lambda pid: hastycommit_nbac_core(votes[pid]))


class RedCommitNBACCore(NBACFromQCCore):
    """Figure 4 with the FS-red path short-circuited around QC.

    The correct core reacts to red by proposing 0 to QC, so every
    process funnels through the same agreement protocol whichever way
    its wait ended.  This mutant treats red as licence to decide alone:
    missing votes plus a red FS yield an immediate Commit/Abort off the
    local vote.  With a No vote still undelivered, a Yes voter's Commit
    violates NBAC Validity.  The all-votes path is byte-for-byte the
    parent's, so without an FS transition the mutant is unfalsifiable.
    """

    def _run(self):
        # Lines 1-2 exactly as the parent.
        yield WaitUntil(lambda: self.vote is not None)
        self.broadcast(("VOTE", self.vote))
        yield WaitUntil(lambda: len(self._votes) == self.n or self._fs_red())
        if len(self._votes) < self.n:
            # THE BUG: red ended the wait, and instead of proposing 0
            # to QC we decide unilaterally off the local vote.
            self.decide(COMMIT if self.vote == YES else ABORT)
            return
        # All votes arrived: the correct lines 3-11.
        self.qc_proposal = 1 if all(
            v == YES for v in self._votes.values()
        ) else 0
        qc = self.child(self.QC_TAG)
        qc.propose(self.qc_proposal)  # type: ignore[attr-defined]
        _, decision = yield qc.wait_decided()
        self.decide(COMMIT if decision == 1 else ABORT)


def redcommit_nbac_core(vote=None):
    """A (Ψ, FS)-wired red-commit core, mirroring ``psi_fs_nbac_core``."""
    return RedCommitNBACCore(
        vote=vote,
        qc_factory=lambda: PsiQCCore(psi_extract=lambda d: d[0]),
        fs_extract=lambda d: d[1],
    )


def redcommit_factory(votes_items):
    """Component factory for the red-commit NBAC mutant."""
    votes = dict(votes_items)
    return consensus_component(lambda pid: redcommit_nbac_core(votes[pid]))


class StaleReadRegisterBank(RegisterBank):
    """ABD with the read's two quorum rounds cut: the local replica's
    entry is the answer.

    Writes, the replica side and the operation records are the
    parent's, so a clean history stays linearizable until a read meets
    a completed write its own replica never received.
    """

    def read(self, reg: Any) -> Generator:
        record = (
            self.ctx.new_operation(self.name, "read", (reg,))
            if self.record_ops
            else None
        )
        # THE BUG: no query round, no write-back.
        _, value = self._entry(reg)
        self.reads_done += 1
        if record is not None:
            self.ctx.complete_operation(record, value)
        return value
        yield  # a generator, like every operation  # pragma: no cover
