"""The failure detector Ψ — the weakest to solve quittable consensus.

Definition (Section 6.1): for each failure pattern ``F``, ``H ∈ Ψ(F)``
iff one of the following holds:

* **(Ω, Σ) branch** — there is ``H' ∈ (Ω, Σ)(F)`` such that every
  process outputs ⊥ up to some (per-process) switch time and ``H'``
  afterwards; or
* **FS branch** — a failure occurs at some time ``t*``
  (``F(t*) ≠ ∅``), and there is ``H' ∈ FS(F)`` such that every process
  outputs ⊥ up to some switch time ``≥ t*`` and ``H'`` afterwards.

The switch need not be simultaneous, but all processes commit to the
*same* branch.  The FS branch is only admissible after a failure;
processes are never *obliged* to take it.
"""

from __future__ import annotations

import random

from repro.core.detector import BOTTOM, FailureDetector
from repro.core.detectors.combined import omega_sigma_oracle
from repro.core.detectors.fs import FSOracle
from repro.core.failure_pattern import FailurePattern
from repro.core.history import FailureDetectorHistory, prefixed_history

FS_BRANCH = "fs"
OMEGA_SIGMA_BRANCH = "omega-sigma"


class PsiOracle(FailureDetector):
    """Samples histories of Ψ.

    Parameters
    ----------
    branch:
        Force the branch: :data:`FS_BRANCH` or :data:`OMEGA_SIGMA_BRANCH`.
        Forcing the FS branch on a crash-free pattern raises, since that
        history would be inadmissible.  By default the oracle flips a
        (seeded) coin when a failure occurs and otherwise must take the
        (Ω, Σ) branch.
    max_switch_delay:
        Upper bound on the sampled gap between the earliest admissible
        switch time and each process's actual switch.
    """

    name = "Psi"

    def __init__(
        self,
        branch: str | None = None,
        max_switch_delay: int = 50,
        noisy: bool = True,
    ):
        if branch not in (None, FS_BRANCH, OMEGA_SIGMA_BRANCH):
            raise ValueError(f"unknown branch {branch!r}")
        if max_switch_delay < 0:
            raise ValueError("max_switch_delay must be non-negative")
        self.branch = branch
        self.max_switch_delay = max_switch_delay
        self.noisy = noisy

    def _choose_branch(self, pattern: FailurePattern, rng: random.Random) -> str:
        if self.branch is not None:
            if self.branch == FS_BRANCH and pattern.is_crash_free():
                raise ValueError(
                    "the FS branch of Psi is inadmissible on a crash-free pattern"
                )
            return self.branch
        if pattern.is_crash_free():
            return OMEGA_SIGMA_BRANCH
        return rng.choice([FS_BRANCH, OMEGA_SIGMA_BRANCH])

    def build_history(
        self,
        pattern: FailurePattern,
        horizon: int,
        rng: random.Random,
    ) -> FailureDetectorHistory:
        branch = self._choose_branch(pattern, rng)
        sub_rng = random.Random(rng.randrange(2**62))

        if branch == FS_BRANCH:
            t_star = pattern.first_crash_time()
            assert t_star is not None  # enforced by _choose_branch
            inner = FSOracle().build_history(pattern, horizon, sub_rng)
            earliest = t_star
        else:
            inner = omega_sigma_oracle(noisy=self.noisy).build_history(
                pattern, horizon, sub_rng
            )
            earliest = 0

        switch = [
            earliest + rng.randint(0, self.max_switch_delay)
            for _ in pattern.processes
        ]
        history = prefixed_history(inner, switch, BOTTOM)
        # Expose the sampled branch for tests and experiment reports.
        history.psi_branch = branch  # type: ignore[attr-defined]
        return history
