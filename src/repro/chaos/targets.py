"""Fuzz targets: the paper's algorithms wired up for chaos campaigns.

A *target* names one algorithm stack (components + detector + stop +
property hook) and a :class:`FuzzCase` pins one concrete chaos run of
it: (target, n, seed, horizon, knobs, crash schedule).  Cases are the
currency of the whole harness — the fuzz driver generates them, the
shrinker edits them, artifacts serialise them — and :func:`build_spec`
turns any case into a :class:`~repro.runner.spec.RunSpec` whose
execution is deterministic in the case alone.

The clean targets cover the paper's headline algorithms: (Ω, Σ) Paxos
consensus (Corollary 4), Chandra-Toueg ◇S consensus [4], quittable
consensus from Ψ (Figure 2), NBAC from (Ψ, FS) (Corollary 10), and
Σ-quorum ABD registers (Theorem 1).  The mutants of
:mod:`repro.chaos.mutants` (:data:`MUTANT_TARGETS`) are excluded from
:data:`CLEAN_TARGETS` and expected to *fail*.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Tuple

from repro.chaos.adversaries import make_delay, make_delivery, make_scheduler
from repro.chaos.knobs import ChaosKnobs
from repro.chaos.mutants import (
    StaleReadRegisterBank,
    eagerquit_factory,
    hastycommit_factory,
    redcommit_factory,
    submajority_factory,
)
from repro.consensus.chandra_toueg import ChandraTouegConsensusCore
from repro.consensus.interface import consensus_component
from repro.consensus.paxos import OmegaSigmaConsensusCore
from repro.core.detectors import (
    EventuallyStrongOracle,
    PsiOracle,
    SigmaOracle,
    omega_sigma_oracle,
)
from repro.core.failure_pattern import FailurePattern
from repro.experiments.hooks import agreement_summary
from repro.nbac import NO, YES, psi_fs_nbac_core, psi_fs_oracle
from repro.qc.psi_qc import PsiQCCore
from repro.registers.abd import RegisterBank
from repro.registers.linearizability import check_linearizable
from repro.registers.quorums import SigmaQuorums
from repro.registers.workload import RegisterWorkload, workload_quiescent
from repro.runner import call, run_spec
from repro.runner.spec import RunSpec
from repro.sim.system import decided


def _proposals(n: int, seed: int) -> Dict[int, str]:
    """Consensus proposals, derived from the seed like the NBAC votes:
    even seeds propose uniformly, odd seeds give pid 0 the lone
    distinct value.  The values themselves are pid-free strings —
    never ``"v{pid}"`` — so the explorer's pid-symmetry reduction can
    relabel states without chasing pids through payloads (odd seeds
    pin pid 0, exactly like the vote convention)."""
    proposals = {p: "v" for p in range(n)}
    if seed % 2 == 1:
        proposals[0] = "w"
    return proposals


def _proposal_items(n: int, seed: int) -> Tuple[Tuple[int, str], ...]:
    return tuple(sorted(_proposals(n, seed).items()))


def _votes(n: int, seed: int) -> Dict[int, str]:
    """NBAC votes, derived from the seed: mostly all-Yes, odd seeds
    carry one No so both outcomes stay exercised."""
    votes = {p: YES for p in range(n)}
    if seed % 2 == 1:
        votes[0] = NO
    return votes


def _span(knobs: ChaosKnobs):
    return knobs.stabilization_span or None


# -- component factories (module-level, spec-referenceable) ------------
def paxos_factory(proposals_items):
    proposals = dict(proposals_items)
    return consensus_component(
        lambda pid: OmegaSigmaConsensusCore(proposals[pid])
    )


def ct_factory(proposals_items):
    proposals = dict(proposals_items)
    return consensus_component(
        lambda pid: ChandraTouegConsensusCore(proposals[pid])
    )


def qc_factory(proposals_items):
    proposals = dict(proposals_items)
    return consensus_component(lambda pid: PsiQCCore(proposals[pid]))


def nbac_factory(votes_items):
    votes = dict(votes_items)
    return consensus_component(lambda pid: psi_fs_nbac_core(votes[pid]))


def _identity(d):
    return d


def register_bank_factory():
    return lambda pid: RegisterBank(SigmaQuorums(_identity), record_ops=True)


def staleread_bank_factory():
    return lambda pid: StaleReadRegisterBank(
        SigmaQuorums(_identity), record_ops=True
    )


def register_workload_factory(seed):
    return lambda pid: RegisterWorkload(
        registers=("x",), ops_per_process=3, seed=seed
    )


def register_summary():
    """Hook maker: register safety is linearizability, liveness is the
    workload draining before the horizon."""

    def hook(system, trace) -> Dict[str, Any]:
        live = trace.stop_reason == "stop-condition"
        lin = check_linearizable(trace.operations).ok
        return {
            "ok": live and lin,
            "termination": live,
            "linearizability": lin,
            "completed": len(trace.completed_operations("reg")),
            "total": len(trace.operations),
        }

    return hook


# -- target table ------------------------------------------------------
def _always_live(pattern: FailurePattern, n: int) -> bool:
    return True


def _majority_live(pattern: FailurePattern, n: int) -> bool:
    return len(pattern.faulty) <= (n - 1) // 2


@dataclass(frozen=True)
class Target:
    """One algorithm stack the fuzzer knows how to run and judge.

    ``build(n, seed, horizon, knobs)`` returns the spec kwargs specific
    to the algorithm (detector, components, stop, summarize);
    ``safety_clauses`` names the metric keys that constitute safety;
    ``live(pattern, n)`` says whether Termination is even promised for
    that crash schedule (CT ◇S legitimately blocks past a minority).
    """

    name: str
    build: Callable[[int, int, int, ChaosKnobs], Dict[str, Any]]
    safety_clauses: Tuple[str, ...] = ("agreement", "validity")
    live: Callable[[FailurePattern, int], bool] = _always_live


def _build_paxos(n, seed, horizon, knobs):
    items = _proposal_items(n, seed)
    return dict(
        detector=omega_sigma_oracle(
            churn_period=knobs.omega_churn_period,
            reshuffle_period=knobs.sigma_reshuffle_period,
            stabilization_span=_span(knobs),
        ),
        components=[("consensus", call(paxos_factory, items))],
        stop=call(decided, "consensus"),
        summarize=call(agreement_summary, "consensus", "consensus", items),
    )


def _build_ct(n, seed, horizon, knobs):
    items = _proposal_items(n, seed)
    return dict(
        detector=EventuallyStrongOracle(),
        components=[("consensus", call(ct_factory, items))],
        stop=call(decided, "consensus"),
        summarize=call(agreement_summary, "consensus", "consensus", items),
    )


def _build_qc(n, seed, horizon, knobs):
    items = _proposal_items(n, seed)
    return dict(
        detector=PsiOracle(),
        components=[("qc", call(qc_factory, items))],
        stop=call(decided, "qc"),
        summarize=call(agreement_summary, "qc", "qc", items),
    )


def _build_nbac(n, seed, horizon, knobs):
    items = tuple(sorted(_votes(n, seed).items()))
    return dict(
        detector=psi_fs_oracle(),
        components=[("nbac", call(nbac_factory, items))],
        stop=call(decided, "nbac"),
        summarize=call(agreement_summary, "nbac", "nbac", items),
    )


def _build_register(n, seed, horizon, knobs):
    return dict(
        detector=SigmaOracle(
            reshuffle_period=knobs.sigma_reshuffle_period,
            stabilization_span=_span(knobs),
        ),
        components=[
            ("reg", call(register_bank_factory)),
            ("workload", call(register_workload_factory, seed)),
        ],
        stop=call(workload_quiescent),
        summarize=call(register_summary),
    )


def _build_staleread(n, seed, horizon, knobs):
    return dict(
        _build_register(n, seed, horizon, knobs),
        components=[
            ("reg", call(staleread_bank_factory)),
            ("workload", call(register_workload_factory, seed)),
        ],
    )


def _build_submajority(n, seed, horizon, knobs):
    items = _proposal_items(n, seed)
    return dict(
        detector=omega_sigma_oracle(
            churn_period=knobs.omega_churn_period,
            reshuffle_period=knobs.sigma_reshuffle_period,
            stabilization_span=_span(knobs),
        ),
        components=[("consensus", call(submajority_factory, items, 1))],
        stop=call(decided, "consensus"),
        summarize=call(agreement_summary, "consensus", "consensus", items),
    )


def _build_eagerquit(n, seed, horizon, knobs):
    items = _proposal_items(n, seed)
    return dict(
        detector=PsiOracle(),
        components=[("qc", call(eagerquit_factory, items))],
        stop=call(decided, "qc"),
        summarize=call(agreement_summary, "qc", "qc", items),
    )


def _build_hastycommit(n, seed, horizon, knobs):
    items = tuple(sorted(_votes(n, seed).items()))
    return dict(
        detector=psi_fs_oracle(),
        components=[("nbac", call(hastycommit_factory, items))],
        stop=call(decided, "nbac"),
        summarize=call(agreement_summary, "nbac", "nbac", items),
    )


def _build_redcommit(n, seed, horizon, knobs):
    items = tuple(sorted(_votes(n, seed).items()))
    return dict(
        detector=psi_fs_oracle(),
        components=[("nbac", call(redcommit_factory, items))],
        stop=call(decided, "nbac"),
        summarize=call(agreement_summary, "nbac", "nbac", items),
    )


TARGETS: Dict[str, Target] = {
    t.name: t
    for t in (
        Target("paxos", _build_paxos),
        Target("ct", _build_ct, live=_majority_live),
        Target("qc", _build_qc),
        Target("nbac", _build_nbac),
        Target(
            "register",
            _build_register,
            safety_clauses=("linearizability",),
        ),
        Target("submajority", _build_submajority),
        Target("eagerquit", _build_eagerquit),
        Target("hastycommit", _build_hastycommit),
        Target("redcommit", _build_redcommit),
        Target(
            "staleread",
            _build_staleread,
            safety_clauses=("linearizability",),
        ),
    )
}

#: The correct algorithms: zero safety violations expected, ever.
CLEAN_TARGETS: Tuple[str, ...] = ("paxos", "ct", "qc", "nbac", "register")

#: The targets that run the register stack (a Σ-quorum bank and a
#: workload, judged by linearizability): the explorer gives them one
#: workload and one detector family.
REGISTER_TARGETS = frozenset({"register", "staleread"})

#: The seeded bugs of :mod:`repro.chaos.mutants`: every one must be
#: detectable — the chaos fuzzer and the explorer both assert it.
#: ``redcommit`` is the exception that proves the detector-switch
#: dimension: its bug hides behind an FS green→red transition, which
#: constant-assignment exploration (and the oracle-driven fuzzer only
#: rarely) lines up — the explorer asserts it *with* switches and
#: asserts clean exhaustion *without* them.  ``staleread`` needs a
#: non-uniform Σ vector (the writer's quorum without the reader) and a
#: read/write workload seed; the chaos fuzzer, whose Σ oracle keeps a
#: correct process in every quorum, has not been seen to convict it.
MUTANT_TARGETS: Tuple[str, ...] = (
    "submajority",
    "eagerquit",
    "hastycommit",
    "redcommit",
    "staleread",
)


# -- cases -------------------------------------------------------------
@dataclass(frozen=True)
class FuzzCase:
    """One fully-pinned chaos run; everything the spec needs and nothing
    the spec derives.  ``crashes`` is a sorted (pid, time) tuple so the
    case is hashable and canonicalises stably."""

    target: str
    n: int
    seed: int
    horizon: int
    knobs: ChaosKnobs = field(default_factory=ChaosKnobs)
    crashes: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(
                f"unknown target {self.target!r}; have {sorted(TARGETS)}"
            )

    def with_(self, **changes: Any) -> "FuzzCase":
        return replace(self, **changes)

    @property
    def pattern(self) -> FailurePattern:
        return FailurePattern(self.n, dict(self.crashes))

    @property
    def fair(self) -> bool:
        return self.knobs.fair

    def describe(self) -> str:
        return (
            f"{self.target}(n={self.n}, seed={self.seed}, "
            f"horizon={self.horizon}, crashes={dict(self.crashes)})"
        )


def build_spec(case: FuzzCase) -> RunSpec:
    """The deterministic RunSpec for one case."""
    target = TARGETS[case.target]
    parts = target.build(case.n, case.seed, case.horizon, case.knobs)
    return run_spec(
        n=case.n,
        seed=case.seed,
        horizon=case.horizon,
        pattern=case.pattern,
        scheduler=call(make_scheduler, case.knobs),
        delivery_policy=call(make_delivery, case.knobs),
        delay_model=call(make_delay, case.knobs),
        tags={"target": case.target, "fair": case.fair},
        **parts,
    )


def violated_safety(case: FuzzCase, metrics: Dict[str, Any]) -> List[str]:
    """The safety clauses this run's metrics show broken (usually [])."""
    target = TARGETS[case.target]
    return [c for c in target.safety_clauses if not metrics.get(c, True)]


def liveness_missed(case: FuzzCase, metrics: Dict[str, Any]) -> bool:
    """True when Termination was promised (fair adversary, live-able
    crash schedule) but the run did not decide within the horizon."""
    target = TARGETS[case.target]
    return (
        case.fair
        and target.live(case.pattern, case.n)
        and not metrics.get("termination", True)
    )
