"""repro — an executable reproduction of
"The Weakest Failure Detectors to Solve Certain Fundamental Problems in
Distributed Computing" (Delporte-Gallet, Fauconnier, Guerraoui,
Hadzilacos, Kouznetsov, Toueg — PODC 2004).

The paper determines the weakest failure detectors for four problems in
asynchronous message-passing systems with crash failures, in *every*
environment:

======================  =========================
problem                 weakest failure detector
======================  =========================
atomic register         Σ (quorum)
consensus               (Ω, Σ)
quittable consensus     Ψ
non-blocking commit     (Ψ, FS)
======================  =========================

This library makes the whole paper executable: the computational model
(:mod:`repro.sim`), the failure detectors and their specifications
(:mod:`repro.core`), every algorithm in Figures 1-5 plus every
substrate they build on (:mod:`repro.registers`, :mod:`repro.consensus`,
:mod:`repro.qc`, :mod:`repro.nbac`, :mod:`repro.ex_nihilo`), and
property checkers turning the theorems into machine-checked experiments
(:mod:`repro.analysis`).

Quickstart::

    from repro import (SystemBuilder, decided, consensus_component,
                       OmegaSigmaConsensusCore, omega_sigma_oracle,
                       FCrashEnvironment, check_consensus)

    proposals = {pid: f"value-{pid}" for pid in range(5)}
    trace = (
        SystemBuilder(n=5, seed=42, horizon=50_000)
        .environment(FCrashEnvironment(5, 4))          # up to 4 of 5 crash
        .detector(omega_sigma_oracle())                # the weakest detector
        .component("consensus", consensus_component(
            lambda pid: OmegaSigmaConsensusCore(proposals[pid])))
        .build()
        .run(stop_when=decided("consensus"))
    )
    assert check_consensus(trace, proposals).ok
"""

from repro.core import (
    FailurePattern,
    Environment,
    CrashFreeEnvironment,
    FCrashEnvironment,
    MajorityCorrectEnvironment,
    OrderedCrashEnvironment,
    ExplicitEnvironment,
)
from repro.core.detector import BOTTOM, GREEN, RED
from repro.core.detectors import (
    OmegaOracle,
    SigmaOracle,
    MajoritySigmaOracle,
    FSOracle,
    PsiOracle,
    PerfectOracle,
    EventuallyPerfectOracle,
    EventuallyStrongOracle,
    StrongOracle,
    ProductOracle,
    omega_sigma_oracle,
)
from repro.core.specs import (
    check_omega,
    check_sigma,
    check_fs,
    check_psi,
    check_omega_sigma,
    check_perfect,
    check_eventually_perfect,
    check_eventually_strong,
)
from repro.sim import (
    System,
    SystemBuilder,
    Component,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.sim.system import decided
from repro.analysis import check_consensus, check_qc, check_nbac
from repro.consensus import (
    OmegaSigmaConsensusCore,
    MultiConsensusCore,
    ChandraTouegConsensusCore,
    BenOrConsensusCore,
    consensus_component,
)
from repro.registers import (
    RegisterBank,
    MajorityQuorums,
    SigmaQuorums,
    check_linearizable,
    RegisterWorkload,
)
from repro.sim.partition import TransientPartition
from repro.qc import Q, PsiQCCore
from repro.nbac import (
    YES,
    NO,
    COMMIT,
    ABORT,
    NBACFromQCCore,
    QCFromNBACCore,
    FSFromNBACCore,
    psi_fs_nbac_core,
    psi_fs_oracle,
)

__version__ = "1.0.0"

__all__ = [
    # model
    "FailurePattern",
    "Environment",
    "CrashFreeEnvironment",
    "FCrashEnvironment",
    "MajorityCorrectEnvironment",
    "OrderedCrashEnvironment",
    "ExplicitEnvironment",
    # detector values
    "BOTTOM",
    "GREEN",
    "RED",
    "Q",
    # oracles
    "OmegaOracle",
    "SigmaOracle",
    "MajoritySigmaOracle",
    "FSOracle",
    "PsiOracle",
    "PerfectOracle",
    "EventuallyPerfectOracle",
    "EventuallyStrongOracle",
    "StrongOracle",
    "ProductOracle",
    "omega_sigma_oracle",
    "psi_fs_oracle",
    # specs
    "check_omega",
    "check_sigma",
    "check_fs",
    "check_psi",
    "check_omega_sigma",
    "check_perfect",
    "check_eventually_perfect",
    "check_eventually_strong",
    # simulation
    "System",
    "SystemBuilder",
    "Component",
    "RandomScheduler",
    "RoundRobinScheduler",
    "decided",
    # problems
    "check_consensus",
    "check_qc",
    "check_nbac",
    "OmegaSigmaConsensusCore",
    "MultiConsensusCore",
    "ChandraTouegConsensusCore",
    "BenOrConsensusCore",
    "consensus_component",
    "RegisterBank",
    "MajorityQuorums",
    "SigmaQuorums",
    "check_linearizable",
    "RegisterWorkload",
    "TransientPartition",
    "PsiQCCore",
    "YES",
    "NO",
    "COMMIT",
    "ABORT",
    "NBACFromQCCore",
    "QCFromNBACCore",
    "FSFromNBACCore",
    "psi_fs_nbac_core",
]
