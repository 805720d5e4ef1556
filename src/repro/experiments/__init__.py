"""The experiment suite: every theorem/figure as a regenerable table.

The paper is theory — its "evaluation" is a set of theorems and five
algorithm figures.  Each module here turns one of them into a runnable
experiment that prints a table of property verdicts and costs (see
DESIGN.md §4 for the index):

====  =========================================================
E1    Theorem 1 (sufficiency): registers from Σ vs. majorities
E2    Theorem 1 (necessity), Figure 1: Σ from registers
E3    Corollaries 2-4: consensus from (Ω, Σ); the Ω-alone crossover
E4    Theorem 5, Figure 2: QC from Ψ
E5    Theorem 6, Figure 3: Ψ from QC
E6    Theorem 8, Figures 4-5: NBAC ⇔ QC + FS
E7    Corollary 10: NBAC from (Ψ, FS), crash-timing sweep
E8    §1 remark: Σ ex nihilo under majority
E9    heartbeat detectors: stabilisation and irreducibility
E10   [20]: binary → multivalued consensus
E11   [17, 21]: registers from consensus (SMR)
E12   FLP [8]: adversarial non-termination without detectors
E13   the detector hierarchy: every reduction, spec-checked
====  =========================================================

Run them all::

    python -m repro.experiments            # every experiment
    python -m repro.experiments E3 E7      # a selection

Each ``run_*`` function is deterministic given its seed and returns an
:class:`~repro.experiments.common.ExperimentResult`; the repo
benchmark's ``sweep_e1_e13`` workload (``python3 -m e2e_bench``) times
the same functions.
"""

from repro.experiments.common import ExperimentResult, all_experiments

__all__ = ["ExperimentResult", "all_experiments"]
