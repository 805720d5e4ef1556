"""Bounded model checking of the simulator's nondeterminism.

The chaos layer (:mod:`repro.chaos`) *samples* adversarial runs; this
package *enumerates* them.  A :class:`~repro.explore.control
.ChoiceController` drives the stock :class:`~repro.sim.system.System`
through its scheduler/delivery extension points, turning every
scheduler pick and message-delivery pick into an explicit indexed
choice; :func:`~repro.explore.engine.explore_case` exhausts the
resulting bounded tree by DFS — one live system, rewound from path to
path — with partial-order, state-dedup and pid-symmetry reductions
(the incremental fingerprint engine behind dedup lives in
:mod:`repro.explore.state`, the symmetry group in
:mod:`repro.explore.symmetry`); the frontier
(:mod:`repro.explore.frontier`) enumerates detector assignments and
crash schedules across subtree roots, and
:mod:`repro.explore.frontierd` walks each root whole, as one cell of a
runner campaign (:class:`~repro.runner.campaign.Campaign`) — in the
caller's process with one worker; with more, in forked children, each
taking the next root, walking a root again if its child dies.
How a case is searched — reductions, fingerprint mode — is one
:class:`~repro.explore.cases.ExploreOptions` carried to every layer.
Violating leaves are judged by the chaos targets' own property hooks,
shrunk (:mod:`repro.explore.shrink`), and frozen as replayable
artifacts (:mod:`repro.explore.artifact`).

See ``docs/EXPLORER.md`` for the search strategy, the soundness
arguments behind the reductions, and the performance notes.
"""

from repro.explore.assignments import (
    assignment_requires_crash,
    assignments_for,
    decode_value,
    default_assignment,
    switch_scripts_for,
)
from repro.explore.cases import (
    ExploreCase,
    ExploreOptions,
    build_system,
    case_from_dict,
    case_to_dict,
    resolve_parts,
    run_controlled,
)
from repro.explore.control import (
    ChoiceController,
    ChoicePoint,
    ExploringDelivery,
    ExploringScheduler,
)
from repro.explore.engine import (
    ExploreResult,
    FingerprintSession,
    Violation,
    explore_case,
)
from repro.explore.frontier import (
    DEFAULT_SEEDS,
    SMOKE_DEPTHS,
    SMOKE_DEPTHS_N3,
    SWITCH_MUTANTS,
    crash_schedules,
    enumerate_roots,
    result_from_summary,
)
from repro.explore.frontierd import run_frontier, run_frontier_dynamic
from repro.explore.state import FingerprintEngine
from repro.explore.symmetry import (
    CLOCK_FREE_TARGETS,
    SYMMETRY_SAFE_TARGETS,
    admissible_perms,
    collapse_symmetric_roots,
    resolve_symmetry,
)

__all__ = [
    "CLOCK_FREE_TARGETS",
    "DEFAULT_SEEDS",
    "SMOKE_DEPTHS",
    "SMOKE_DEPTHS_N3",
    "SWITCH_MUTANTS",
    "SYMMETRY_SAFE_TARGETS",
    "ChoiceController",
    "ChoicePoint",
    "ExploreCase",
    "ExploreOptions",
    "ExploreResult",
    "ExploringDelivery",
    "ExploringScheduler",
    "FingerprintEngine",
    "FingerprintSession",
    "Violation",
    "admissible_perms",
    "assignment_requires_crash",
    "assignments_for",
    "build_system",
    "case_from_dict",
    "case_to_dict",
    "collapse_symmetric_roots",
    "crash_schedules",
    "decode_value",
    "default_assignment",
    "enumerate_roots",
    "explore_case",
    "resolve_parts",
    "resolve_symmetry",
    "result_from_summary",
    "run_controlled",
    "run_frontier",
    "run_frontier_dynamic",
    "switch_scripts_for",
]
