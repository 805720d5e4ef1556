"""Detector assignments: the explorer's third axis of nondeterminism.

The sim's oracle detectors sample one admissible history per run from a
seeded RNG — fine for fuzzing, wrong for exhaustive search, where the
detector's latitude must be *enumerated*, not drawn.  The explorer
therefore bypasses the oracle layer entirely: each exploration root
fixes one **constant per-process assignment** of detector values, and
every process reads its value unchanged at every step of that subtree.

What makes a value admissible
-----------------------------

The explorer only ever examines the first ``depth`` ticks of a run, so
an assignment need only be a prefix of *some* admissible infinite
history: it must pass its detector's prefix-closed safety clause in
:mod:`repro.core.specs` (``sigma_safety``, ``fs_safety``,
``omega_sigma_safety``, ``psi_safety``); the liveness remainder of each
``check_*`` says nothing about a finite prefix.  The tests hold every
constant and every script-reachable prefix below to those clauses.

History scripts
---------------

Constants miss exactly the transitions the paper's constructions hinge
on — Ψ's ⊥ → commit switch, the FS-red quit signal, Ω leader changes —
so the frontier can also enumerate **scripts**: an encoding
``("script", stage₀, stage₁, …)`` whose stages are constant encodings
(plus the script-only atoms ``("bot",)`` for ⊥ and ``("fsv", colour)``
for a Ψ that committed to the FS branch).  A script does not pin *when*
the switches happen — the controller turns each stage advance into an
enumerable choice point (see :class:`~repro.explore.control.DetectorScript`),
so one script root covers every admissible switch-time placement within
the step budget.

The one safety rule a stage's *placement* can break is a failure
claim: :func:`stage_requires_crash` marks the stages whose values claim
one (FS ``red``, any Ψ FS-branch value).  The controller only offers an
advance into such a stage at a tick ``>=`` the case's first crash time,
and the frontier only pairs crash-claiming scripts with crashy
schedules.

Encodings are nested tuples of primitives — hashable (they sit inside
frozen :class:`~repro.explore.cases.ExploreCase`), JSON-able (they ride
inside artifacts), and decoded to the live detector vocabulary of
:mod:`repro.core.detector` right before a run.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.chaos.targets import REGISTER_TARGETS
from repro.core.detector import BOTTOM, RED
from repro.core.failure_pattern import FailurePattern
from repro.core.history import SampledHistory
from repro.core.specs import sigma_safety

Encoded = Tuple[Any, ...]
Assignment = Tuple[Encoded, ...]  # one encoded value per pid


def decode_value(enc: Encoded) -> Any:
    """An encoded constant back into detector-vocabulary values."""
    kind = enc[0]
    if kind == "os":  # (Ω, Σ): (leader, quorum)
        return (enc[1], frozenset(enc[2]))
    if kind in ("susp", "sigma"):  # ◇S suspicions / Σ quorum
        return frozenset(enc[1])
    if kind == "pf":  # (Ψ, FS) product of Corollary 10
        return (decode_value(enc[1]), enc[2])
    if kind == "bot":  # Ψ's initial ⊥ (script stages only)
        return BOTTOM
    if kind == "fsv":  # Ψ committed to the FS branch (script stages only)
        return enc[1]
    raise ValueError(f"unknown assignment encoding {enc!r}")


# -- scripts -----------------------------------------------------------
def is_script(enc: Encoded) -> bool:
    """Whether an assignment entry is a history script."""
    return bool(enc) and enc[0] == "script"


def script_stages(enc: Encoded) -> Tuple[Encoded, ...]:
    """The stage sequence of an entry (a constant is its own one-stage
    script)."""
    return tuple(enc[1:]) if is_script(enc) else (enc,)


def stage_requires_crash(enc: Encoded) -> bool:
    """Whether outputting this stage's value claims a failure occurred.

    FS accuracy is perpetual: ``red`` at ``t`` requires a crash at some
    ``t* <= t``.  Ψ's FS branch carries the same claim for *either*
    colour — committing to the branch asserts a failure, so even
    ``("fsv", "green")`` is crash-gated.  Everything else (Ω leaders,
    ◇S suspicions, Σ quorums, ⊥) is admissible on any pattern.  The
    tests pin this to :mod:`repro.core.specs`: a stage is crash-gated
    iff its detector's safety clause rejects its value held from tick 0
    on a crash-free pattern.
    """
    kind = enc[0]
    if kind == "pf":  # gate on either product component
        return stage_requires_crash(enc[1]) or enc[2] == RED
    if kind == "fsv":
        return True
    return False


def assignment_requires_crash(assignment: Assignment) -> bool:
    """Whether this assignment only makes sense on a crashy pattern."""
    return any(
        stage_requires_crash(stage)
        for enc in assignment
        for stage in script_stages(enc)
    )


def _held(assignment: Assignment) -> SampledHistory:
    """The history of a constant assignment at its first tick."""
    return SampledHistory.from_pairs(
        len(assignment),
        ((pid, 0, decode_value(enc)) for pid, enc in enumerate(assignment)),
    )


def _os(leader: int, quorum: Tuple[int, ...]) -> Encoded:
    return ("os", leader, tuple(quorum))


def _os_assignments(n: int) -> List[Assignment]:
    """(Ω, Σ) vectors: every uniform leader plus the selfish split,
    crossed with all-full and shared-pivot quorums."""
    full = tuple(range(n))
    pivot = (0,)
    leader_vectors = [tuple(leader for _ in range(n)) for leader in range(n)]
    leader_vectors.append(tuple(range(n)))  # everyone believes in itself
    quorum_vectors = [tuple(full for _ in range(n)), tuple(pivot for _ in range(n))]
    return [
        tuple(_os(leaders[p], quorums[p]) for p in range(n))
        for leaders in leader_vectors
        for quorums in quorum_vectors
    ]


def _ct_assignments(n: int) -> List[Assignment]:
    """◇S suspicion vectors: trusting, mutually-suspicious, pile-on-0."""
    none: Assignment = tuple(("susp", ()) for _ in range(n))
    mutual: Assignment = tuple(
        ("susp", tuple(q for q in range(n) if q != p)) for p in range(n)
    )
    pile_on_zero: Assignment = tuple(("susp", (0,)) for _ in range(n))
    return [none, mutual, pile_on_zero]


def _psi_fs_assignments(n: int, leaders_only_zero: bool = False) -> List[Assignment]:
    """(Ψ, FS) vectors: Ψ committed to (Ω, Σ) at time 0, FS green."""
    full = tuple(range(n))
    leader_vectors = [tuple(0 for _ in range(n))]
    if not leaders_only_zero:
        leader_vectors.append(tuple(range(n)))
    return [
        tuple(("pf", _os(leaders[p], full), "green") for p in range(n))
        for leaders in leader_vectors
    ]


def _sigma_assignments(n: int) -> List[Assignment]:
    """Σ quorum vectors that pass :func:`~repro.core.specs.sigma_safety`.

    At n = 2 that is every such vector — seven of the nine over the
    non-empty subsets of {0, 1}, all but {0} against {1} — since the
    non-uniform ones are where a write's quorum can miss the reader
    (``staleread`` needs one).  Larger n keep all-full and the shared
    pivot.
    """
    full = tuple(range(n))
    if n == 2:
        quorums = [full, (0,), (1,)]
        vectors = [
            (("sigma", a), ("sigma", b)) for a in quorums for b in quorums
        ]
        return [
            vector
            for vector in vectors
            if sigma_safety(_held(vector), FailurePattern.crash_free(n))
        ]
    return [
        tuple(("sigma", full) for _ in range(n)),
        tuple(("sigma", (0,)) for _ in range(n)),
    ]


def assignments_for(target: str, n: int) -> List[Assignment]:
    """The enumerated assignment family for one target."""
    if target in ("paxos", "qc", "submajority"):
        return _os_assignments(n)
    if target == "ct":
        return _ct_assignments(n)
    if target in ("nbac", "redcommit"):
        return _psi_fs_assignments(n)
    if target == "hastycommit":
        # The vote bug fires on any assignment; one root suffices.
        return _psi_fs_assignments(n, leaders_only_zero=True)
    if target == "eagerquit":
        # Any non-⊥ Ψ triggers the bug; one (Ω, Σ)-shaped root suffices.
        full = tuple(range(n))
        return [tuple(_os(0, full) for _ in range(n))]
    if target in REGISTER_TARGETS:
        return _sigma_assignments(n)
    raise ValueError(f"no assignment family for target {target!r}")


def _script(*stages: Encoded) -> Encoded:
    return ("script",) + tuple(stages)


def _uniform(enc: Encoded, n: int) -> Assignment:
    """The same script at every process.

    Uniformity is what keeps the vector admissible wholesale: Ψ's
    branch agreement is cross-process (everyone commits to the same
    branch), and a shared script can only ever disagree on switch
    *times* — which the spec explicitly allows.
    """
    return tuple(enc for _ in range(n))


def switch_scripts_for(target: str, n: int) -> List[Assignment]:
    """The history-script family for one target (``--detector-switches``).

    Kept deliberately small — each script is a whole subtree whose
    switch times the controller enumerates.  Scripts containing
    crash-gated stages are only paired with crashy schedules by the
    frontier (:func:`~repro.explore.frontier.enumerate_roots`).
    """
    full = tuple(range(n))
    os0, os1 = _os(0, full), _os(1, full)
    if target in ("paxos", "submajority"):
        # Ω leader change mid-window (and back — churn both ways).
        return [
            _uniform(_script(os0, os1), n),
            _uniform(_script(os1, os0), n),
        ]
    if target == "ct":
        # ◇S revising its suspicions: trusting → suspect-0.
        return [
            _uniform(_script(("susp", ()), ("susp", (0,))), n),
        ]
    if target in ("qc", "eagerquit"):
        # Ψ direct: ⊥ → consensus branch; ⊥ → FS branch (quit paths,
        # crash-gated — red and the branch-asserting green alike);
        # ⊥ → consensus branch with a leader change after the switch.
        return [
            _uniform(_script(("bot",), os0), n),
            _uniform(_script(("bot",), ("fsv", "red")), n),
            _uniform(_script(("bot",), ("fsv", "green")), n),
            _uniform(_script(("bot",), os0, os1), n),
        ]
    if target in ("nbac", "hastycommit", "redcommit"):
        # (Ψ, FS) product: the quit path (Ψ turns FS-red), the ⊥-prefix
        # consensus path, and the abort-via-consensus path (Ψ stays on
        # the consensus branch while plain FS turns red — Figure 4's
        # propose-0 trigger).
        bot_green = ("pf", ("bot",), "green")
        return [
            _uniform(
                _script(bot_green, ("pf", ("fsv", "red"), "red")), n
            ),
            _uniform(_script(bot_green, ("pf", os0, "green")), n),
            _uniform(
                _script(
                    bot_green,
                    ("pf", os0, "green"),
                    ("pf", os0, "red"),
                ),
                n,
            ),
        ]
    if target in REGISTER_TARGETS:
        # Σ is perpetual: a quorum shrink keeps pairwise intersection
        # (full ∩ pivot = pivot), so the switch is admissible.
        return [
            _uniform(_script(("sigma", full), ("sigma", (0,))), n),
        ]
    raise ValueError(f"no script family for target {target!r}")


def default_assignment(target: str, n: int) -> Assignment:
    """The family's first member — used when a case pins none."""
    return assignments_for(target, n)[0]
