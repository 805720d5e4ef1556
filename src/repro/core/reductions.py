"""History-level reductions between failure detectors.

The weakest-detector methodology compares detectors by *reducibility*:
``D' ⪯ D`` when any history of D can be transformed (possibly using
communication) into a history of D'.  This module implements the purely
local reductions that position the paper's detectors in the classical
hierarchy — each is a function applied pointwise to a stronger
detector's history, so the transformation needs no messages at all
(and, reading the value but never the time, keeps the constant segments
of the history it maps — see :func:`transform_history`):

* ``P → Σ`` — trust everyone you do not suspect.  Strong accuracy
  makes unsuspected sets supersets of ``correct(F)``, so any two
  outputs share every correct process (Intersection); strong
  completeness shrinks them to exactly ``correct(F)`` (Completeness).
* ``P → FS`` and ``◇P-style suspicion lists → FS`` requires perpetual
  accuracy: signal red as soon as anyone is suspected.
* ``◇P → Ω`` — the classical eventual-leader election: the smallest
  unsuspected process.
* ``(Ω, Σ) → Ψ`` — Ψ's (Ω, Σ) branch with an immediate switch: any
  (Ω, Σ) history is already an admissible Ψ history with switch time 0.
* ``Ψ → nothing weaker locally`` — Ψ's power is only unlocked through
  algorithms (Figures 2-4); there is no pointwise map from Ψ to Ω or Σ
  because the FS branch carries no leader/quorum information.  The
  test suite demonstrates this with a concrete Ψ history that defeats
  any pointwise extraction.

Together with the algorithmic extractions (Figures 1 and 3) and the
ex-nihilo constructions, these give the full reducibility picture the
paper's introduction sketches:

    P  ⟶  (Ω, Σ)  ⟶  Ψ        P ⟶ FS        majority ⟶ Σ (free)
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet

from repro.core.detector import BOTTOM, GREEN, RED
from repro.core.history import (
    FailureDetectorHistory,
    Segment,
    prefixed_history,
    product_history,
)


def transform_history(
    history: FailureDetectorHistory,
    fn: Callable[[int, Any], Any],
) -> FailureDetectorHistory:
    """A new history with ``H'(p, t) = fn(p, H(p, t))``.

    ``fn`` sees the process and the value but not the time, so ``H'``
    is constant wherever ``H`` is: each segment keeps its bounds and
    has its value mapped.
    """

    def segment(pid: int, t: int) -> Segment:
        start, end, value = history.segment(pid, t)
        return (start, end, fn(pid, value))

    return FailureDetectorHistory(history.n, history.horizon, segment)


# ----------------------------------------------------------------------
# From P (perfect suspicion lists)
# ----------------------------------------------------------------------
def sigma_from_perfect(history: FailureDetectorHistory) -> FailureDetectorHistory:
    """Σ out of P: the quorum is everyone not currently suspected.

    Needs P's *strong accuracy* (never suspect a live process): then
    every output contains all correct processes, so all outputs
    pairwise intersect; strong completeness gives eventual equality
    with ``correct(F)``.
    """
    everyone = frozenset(range(history.n))

    def fn(pid: int, suspects: FrozenSet[int]) -> FrozenSet[int]:
        return everyone - suspects

    return transform_history(history, fn)


def fs_from_perfect(history: FailureDetectorHistory) -> FailureDetectorHistory:
    """FS out of P: red exactly while someone is suspected.

    P-accuracy means a suspicion certifies a real crash, so red never
    precedes a failure; P-completeness makes suspicion (hence red)
    permanent at correct processes once someone crashed.
    """

    def fn(pid: int, suspects: FrozenSet[int]) -> str:
        return RED if suspects else GREEN

    return transform_history(history, fn)


# ----------------------------------------------------------------------
# From ◇P (eventually perfect suspicion lists)
# ----------------------------------------------------------------------
def omega_from_eventually_perfect(
    history: FailureDetectorHistory,
) -> FailureDetectorHistory:
    """Ω out of ◇P: the smallest unsuspected process.

    After ◇P stabilises, every correct process's suspicion list is a
    subset of the faulty processes containing all of them, so the
    smallest unsuspected pid is the same correct process everywhere,
    forever.
    """

    def fn(pid: int, suspects: FrozenSet[int]) -> int:
        for q in range(history.n):
            if q not in suspects or q == pid:
                return q
        return pid  # unreachable: a process never suspects itself here

    return transform_history(history, fn)


# ----------------------------------------------------------------------
# Into Ψ
# ----------------------------------------------------------------------
def psi_from_omega_sigma(
    history: FailureDetectorHistory, switch_time: int = 0
) -> FailureDetectorHistory:
    """Ψ out of (Ω, Σ): take the (Ω, Σ) branch, switching at a fixed
    time.  Any (Ω, Σ) history with a ⊥-prefix is an admissible Ψ
    history — the branch is unconditional (unlike FS, which demands a
    prior failure)."""
    return prefixed_history(history, [switch_time] * history.n, BOTTOM)


def psi_fs_from_psi_and_fs(
    psi_history: FailureDetectorHistory,
    fs_history: FailureDetectorHistory,
) -> FailureDetectorHistory:
    """The (Ψ, FS) product from component histories — Corollary 10's
    detector assembled from parts."""
    return product_history(psi_history, fs_history)
