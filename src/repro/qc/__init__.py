"""Quittable consensus (Sections 5–6).

* :mod:`repro.qc.spec` — the QC problem and the Q sentinel;
* :mod:`repro.qc.psi_qc` — Figure 2: solving QC with Ψ (Theorem 5);
* :mod:`repro.qc.cht` — the CHT-style simulation machinery (sample
  DAGs, simulation forests and their critical pair);
* :mod:`repro.qc.extract_psi` — Figure 3: extracting Ψ from any QC
  algorithm (Theorem 6).
"""

from repro.qc.spec import Q
from repro.qc.psi_qc import PsiQCCore

__all__ = ["Q", "PsiQCCore"]
