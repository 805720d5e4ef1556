"""Chaos harness: in-spec fault injection with shrinking counterexamples.

The paper's algorithms are proved correct against *any* admissible
adversary — any fair schedule, any finite delays, any crash pattern the
environment allows, any detector history the specification admits.
This package operationalises that quantifier: it generates adversaries
at the edges of the model's latitude and checks the implementations hold
up, run after seeded run.

Layers:

* :mod:`~repro.chaos.knobs` — :class:`ChaosKnobs`, the frozen,
  JSON-able record of every fault dial;
* :mod:`~repro.chaos.adversaries` — message duplication, newest-first
  reordering, burst delays, windowed scheduler starvation;
* :mod:`~repro.chaos.crashes` — in-environment crash-schedule fuzzing;
* :mod:`~repro.chaos.targets` — the algorithms under test and
  :class:`FuzzCase`, the pinned description of one chaos run;
* :mod:`~repro.chaos.mutants` — deliberately broken algorithms (the
  fuzzer's positive controls);
* :mod:`~repro.chaos.fuzz` — the campaign driver and CLI;
* :mod:`~repro.chaos.shrink` — greedy delta-debugging of violations;
* :mod:`~repro.chaos.artifact` — replayable JSON witnesses.

See ``docs/CHAOS.md`` for the catalog and the artifact format.
"""

from repro.chaos.adversaries import (
    BurstDelay,
    DuplicatingDelivery,
    NewestFirstDelivery,
    make_delay,
    make_delivery,
    make_scheduler,
)
from repro.chaos.artifact import (
    ReplayResult,
    case_from_dict,
    case_to_dict,
    load_artifact,
    replay,
    write_artifact,
)
from repro.chaos.crashes import MODES, CrashScheduleFuzzer
from repro.chaos.fuzz import FuzzReport, Violation, generate_cases, run_fuzz
from repro.chaos.knobs import ChaosKnobs
from repro.chaos.mutants import (
    EagerQuitQCCore,
    HastyCommitNBACCore,
    SubMajorityConsensusCore,
    eagerquit_factory,
    hastycommit_factory,
    submajority_factory,
)
from repro.chaos.shrink import (
    greedy_shrink,
    run_case,
    shrink_case,
    still_violates,
)
from repro.chaos.targets import (
    CLEAN_TARGETS,
    MUTANT_TARGETS,
    TARGETS,
    FuzzCase,
    build_spec,
    liveness_missed,
    violated_safety,
)

__all__ = [
    "BurstDelay",
    "DuplicatingDelivery",
    "NewestFirstDelivery",
    "make_delay",
    "make_delivery",
    "make_scheduler",
    "ReplayResult",
    "case_from_dict",
    "case_to_dict",
    "load_artifact",
    "replay",
    "write_artifact",
    "MODES",
    "CrashScheduleFuzzer",
    "FuzzReport",
    "Violation",
    "generate_cases",
    "run_fuzz",
    "ChaosKnobs",
    "SubMajorityConsensusCore",
    "EagerQuitQCCore",
    "HastyCommitNBACCore",
    "submajority_factory",
    "eagerquit_factory",
    "hastycommit_factory",
    "run_case",
    "greedy_shrink",
    "shrink_case",
    "still_violates",
    "CLEAN_TARGETS",
    "MUTANT_TARGETS",
    "TARGETS",
    "FuzzCase",
    "build_spec",
    "liveness_missed",
    "violated_safety",
]
