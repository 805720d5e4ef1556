"""E5 — Theorem 6, Figure 3: extracting Ψ from a QC algorithm.

The heaviest experiment: per scenario it runs the complete Figure 3
pipeline (sample DAG gossip, the n+1-tree simulation forest with real
executions of A inside a virtual runtime, the real branch-agreement
execution of A, then the Ω and Σ extraction loops) and checks the
emitted per-process output streams against Ψ's specification.
"""

from __future__ import annotations

from typing import List

from repro.core.detectors import PsiOracle
from repro.core.detectors.psi import FS_BRANCH, OMEGA_SIGMA_BRANCH
from repro.core.failure_pattern import FailurePattern
from repro.experiments.common import ExperimentResult, experiment, verdict_cell
from repro.experiments.hooks import probe_factory
from repro.protocols.base import CoreComponent
from repro.qc.extract_psi import PsiExtraction
from repro.qc.psi_qc import PsiQCCore
from repro.runner import Campaign, call, ref, run_spec


def _xpsi_factory(prefix_stride):
    return lambda pid: CoreComponent(
        PsiExtraction(
            qc_factory=lambda: PsiQCCore(), prefix_stride=prefix_stride
        )
    )


def _summarize(system, trace):
    from repro.core.specs import check_psi

    verdict = check_psi(trace.annotations["psi-x"], trace.pattern)
    cores = [system.component_at(p, "xpsi").core for p in trace.pattern.correct]
    branches = {core.branch for core in cores}
    branches.discard(None)
    # The sim_* counters are the Σ loop's useful-outcomes / attempts
    # ratio; they stay out of the (digest-pinned) table rows.
    metrics = {"ok": verdict.ok, "branches": sorted(branches)}
    for name in ("sigma_rounds", "sim_attempts", "sim_decided", "sim_steps"):
        metrics[name] = sum(getattr(core, name) for core in cores)
    return metrics


def case_spec(branch, pattern, seed, horizon, prefix_stride=10):
    return run_spec(
        n=3,
        seed=seed,
        horizon=horizon,
        pattern=pattern,
        detector=PsiOracle(branch=branch),
        components=[
            ("xpsi", call(_xpsi_factory, prefix_stride)),
            ("probe", call(probe_factory, "xpsi", "psi-x")),
        ],
        summarize=ref(_summarize),
        tags={"branch": branch},
    )


#: (oracle branch, failure pattern, horizon, expected extracted branch).
CASES = [
    (OMEGA_SIGMA_BRANCH, FailurePattern.crash_free(3), 14_000, "omega-sigma"),
    (OMEGA_SIGMA_BRANCH, FailurePattern(3, {1: 300}), 16_000, "omega-sigma"),
    (FS_BRANCH, FailurePattern(3, {2: 300}), 8_000, "fs"),
    (FS_BRANCH, FailurePattern(3, {0: 150, 1: 250}), 8_000, "fs"),
]


def campaign(seed: int) -> Campaign:
    """E5's cells; their summaries carry the Σ loop's counters."""
    return Campaign(
        (
            case_spec(branch, pattern, seed, horizon)
            for branch, pattern, horizon, _ in CASES
        ),
        name="E5",
    )


@experiment("E5")
def run(seed: int = 1) -> ExperimentResult:
    headers = [
        "oracle branch", "crashes", "psi valid", "extracted branch",
        "sigma rounds", "as expected",
    ]
    rows: List[list] = []
    ok = True

    for (branch, pattern, _, expected_branch), summary in zip(
        CASES, campaign(seed).run()
    ):
        m = summary.metrics
        branch_ok = m["branches"] == [expected_branch]
        expected = m["ok"] and branch_ok
        ok = ok and expected
        rows.append(
            [
                branch,
                len(pattern.faulty),
                verdict_cell(m["ok"]),
                ",".join(m["branches"]) or "-",
                m["sigma_rounds"],
                verdict_cell(expected),
            ]
        )

    return ExperimentResult(
        experiment_id="E5",
        title="Figure 3: extracting Psi from QC algorithm A (n=3, "
        "A = Figure 2's Psi-based QC)",
        headers=headers,
        rows=rows,
        ok=ok,
        notes=[
            "All correct processes commit to one branch, matching the "
            "underlying detector's behaviour; on the (Omega,Sigma) branch "
            "the line 24-32 Sigma loop produces intersecting, eventually "
            "all-correct quorums.",
            "Bounded substitution: the line-22 Omega gadget walk is "
            "replaced by a convergent election over the DAG + real "
            "executions of A (see extract_psi.py docstring).",
        ],
    )
