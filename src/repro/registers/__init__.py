"""Atomic registers in message-passing systems (Section 3, Theorem 1).

* :mod:`repro.registers.quorums` — quorum strategies: static majorities
  (the classical ABD assumption) vs. dynamic Σ quorums (the paper's
  generalisation);
* :mod:`repro.registers.abd` — the ABD register emulation [1], written
  against a quorum strategy, so the very same code is "ABD with
  majorities" or "ABD with Σ" (sufficiency half of Theorem 1);
* :mod:`repro.registers.multiwriter` — the classical SWMR→MWMR
  transformation [16, 23] the proof sketch appeals to;
* :mod:`repro.registers.linearizability` — an atomicity checker for
  recorded read/write histories;
* :mod:`repro.registers.workload` — open/closed-loop clients that drive
  registers and record operation intervals;
* :mod:`repro.registers.participants` — causal participant tracking
  (the P_i(k) sets of Figure 1);
* :mod:`repro.registers.extract_sigma` — Figure 1: emulating Σ from any
  register implementation (necessity half of Theorem 1).
"""

from repro.registers.quorums import (
    QuorumStrategy,
    MajorityQuorums,
    SigmaQuorums,
    FixedQuorums,
)
from repro.registers.abd import RegisterBank
from repro.registers.linearizability import check_linearizable
from repro.registers.workload import RegisterWorkload

__all__ = [
    "QuorumStrategy",
    "MajorityQuorums",
    "SigmaQuorums",
    "FixedQuorums",
    "RegisterBank",
    "check_linearizable",
    "RegisterWorkload",
]
