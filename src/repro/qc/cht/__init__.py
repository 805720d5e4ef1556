"""CHT-style simulation machinery for the Figure 3 extraction.

The extraction of Ψ from an arbitrary QC algorithm ``A`` (Theorem 6)
follows Chandra–Hadzilacos–Toueg [3]: processes gossip *failure
detector samples* into an ever-growing DAG, and simulate runs of ``A``
that are compatible with paths of that DAG.

* :mod:`repro.qc.cht.samples` — samples and the DAG ``G_p`` (edges are
  implicit in per-sample knowledge vectors);
* :mod:`repro.qc.cht.simulation` — the virtual runtime that actually
  executes ``A``'s protocol cores inside a single real process, driven
  by DAG paths;
* :mod:`repro.qc.cht.forest` — the n+1-tree simulation forest Υ_p,
  canonical deciding runs and the critical pair of adjacent trees.
"""

from repro.qc.cht.samples import Sample, SampleDag
from repro.qc.cht.simulation import SimulationAttempt, VirtualRuntime, simulate_run
from repro.qc.cht.forest import SimulationForest, initial_proposals

__all__ = [
    "Sample",
    "SampleDag",
    "VirtualRuntime",
    "SimulationAttempt",
    "simulate_run",
    "SimulationForest",
    "initial_proposals",
]
