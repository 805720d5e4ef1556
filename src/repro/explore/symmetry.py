"""Process-id symmetry: the explorer's fourth reduction.

Our targets are (almost) pid-equivariant: relabeling the processes of
an execution by a permutation ``π`` yields another execution of the
same algorithm, provided the *inputs* — the crash schedule, the
detector assignment, and any seed-derived per-pid data — are relabeled
along with it.  Two states that differ only by such a relabeling have
π-corresponding futures, so exploring one subtree covers the
observable outcomes of both (decision vectors modulo π, violation
verdicts exactly).  :class:`~repro.explore.state.FingerprintEngine`
exploits this by hashing the lexicographic minimum of the state's
canonical bytes over the case's *admissible group* — computed here.

Admissibility has three layers, all conservative:

* **Case level** (:func:`admissible_perms`): ``π`` must map the crash
  schedule onto itself (same victims at the same times, as a set),
  must leave the detector assignment semantically unchanged
  (:func:`relabel_assignment` — assignment encodings are fully
  pid-tagged, so semantic relabeling is mechanical; for scripted
  roots this is the *commuting* condition: ``π`` must map the switch
  script vector onto itself stage by stage, so the relabeled run
  advances through the same stage values under the same crash-gate
  thresholds — which are ``π``-invariant because ``π`` fixes the
  crash schedule), and must fix
  every pid the target builder treats specially for this seed
  (:func:`build_fixed_pids` — e.g. odd NBAC seeds give pid 0 the lone
  No vote).
* **State level** (enforced by the fingerprint engine): ``π`` must fix
  every *ambiguous* int — any ``int`` in ``[0, n)`` encountered at a
  position not structurally known to be a pid (component attributes,
  tasklet locals, payload internals, decision values).  Positions that
  *are* structurally pids (host slots, buffer destinations/senders,
  decision and operation pids, the POR context) are relabeled; for
  everything else the engine cannot distinguish a pid reference from a
  round number, so it only accepts permutations that make the question
  moot.  Missed merges, never wrong ones.
* **Target level** (:data:`SYMMETRY_SAFE_TARGETS`): the int guard
  cannot see pids baked into *strings* (e.g. the consensus proposals
  ``"v0"``, ``"v1"``), so the reduction is only available for targets
  whose per-pid inputs are pid-free.  NBAC's votes are ``YES``/``NO``
  strings, commit verdicts are ``COMMIT``/``ABORT`` — safe, and
  exactly the n=3 frontier the ROADMAP wants tractable.  The soundness
  suite additionally verifies the on/off decision-vector sets agree on
  every gated target (closure under the group included).

The same group also collapses whole exploration roots: two roots whose
crash schedules and assignments are π-images of each other explore
π-corresponding trees, so the frontier keeps one representative
(:func:`collapse_symmetric_roots`) when the reduction is enabled.

The explorer's other target-level pin sits here too:
:data:`CLOCK_FREE_TARGETS`, the targets invariant under a remap of the
clock rather than of the pids.
"""

from __future__ import annotations

from itertools import permutations
from typing import Any, FrozenSet, Iterable, List, Sequence, Tuple

#: Targets whose seed-derived inputs and decision values are free of
#: pid-derived data (see module doc).  Proposals are seed-derived
#: pid-free strings ("v"/"w", odd seeds pinning pid 0 — mirroring the
#: NBAC vote convention), so the whole consensus family qualifies.
#: Still excluded: ct (the rotating coordinator — round mod n — is not
#: pid-equivariant) and register (workload writes are tagged
#: ``(pid, seq)``, baking pids into register values).
SYMMETRY_SAFE_TARGETS = frozenset(
    {
        "paxos",
        "qc",
        "nbac",
        "submajority",
        "eagerquit",
        "hastycommit",
        "redcommit",
    }
)

#: Targets whose steps never read the clock: a process handed the same
#: ⟨m, d⟩ sequence at other (strictly increasing) ticks reaches the
#: same local states and emits the same outputs, so
#: :class:`~repro.explore.state.FingerprintEngine` leaves ``time`` out
#: of their step key.  The paper's model (§2) has no clock; the pin is
#: checked, not assumed — ``tests/explore/test_clock_independence.py``
#: re-feeds every target's per-process step histories at remapped
#: ticks and asserts this set is exactly the targets that pass.
#: Excluded: register (its operation records carry ``invoke_time`` and
#: ``response_time``, and its processes hold them).
CLOCK_FREE_TARGETS = frozenset(
    {
        "paxos",
        "ct",
        "qc",
        "nbac",
        "submajority",
        "eagerquit",
        "hastycommit",
        "redcommit",
    }
)

Perm = Tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def build_fixed_pids(target: str, n: int, seed: int) -> FrozenSet[int]:
    """Pids the target builder singles out for this seed.

    The whole target table derives its per-pid inputs from the seed
    with one convention: even seeds are uniform (all-Yes votes, equal
    proposals — fully symmetric), odd seeds give pid 0 the lone
    distinct input (the single No vote, the distinct proposal) — so
    odd-seed permutations must fix 0.  Register workloads ignore the
    convention (their per-pid values are pid-tagged regardless, which
    is why the target sits outside :data:`SYMMETRY_SAFE_TARGETS`).
    """
    if target != "register" and seed % 2 == 1:
        return frozenset({0})
    return frozenset()


def relabel_encoded(enc: Tuple[Any, ...], perm: Perm) -> Tuple[Any, ...]:
    """One encoded detector constant under ``perm``, canonically sorted."""
    kind = enc[0]
    if kind == "os":  # (Ω, Σ): (leader, quorum)
        return ("os", perm[enc[1]], tuple(sorted(perm[q] for q in enc[2])))
    if kind in ("susp", "sigma"):
        return (kind, tuple(sorted(perm[q] for q in enc[1])))
    if kind == "pf":  # (Ψ, FS) product
        return ("pf", relabel_encoded(enc[1], perm), enc[2])
    if kind == "script":  # history script: relabel stage by stage
        return ("script",) + tuple(
            relabel_encoded(stage, perm) for stage in enc[1:]
        )
    if kind in ("bot", "fsv"):  # ⊥ / FS-branch values carry no pids
        return enc
    raise ValueError(f"unknown assignment encoding {enc!r}")


def relabel_assignment(
    assignment: Sequence[Tuple[Any, ...]], perm: Perm
) -> Tuple[Tuple[Any, ...], ...]:
    """The assignment of the π-relabeled system: process ``π(p)`` reads
    the relabeled constant process ``p`` read."""
    out: List[Any] = [None] * len(assignment)
    for pid, enc in enumerate(assignment):
        out[perm[pid]] = relabel_encoded(enc, perm)
    return tuple(out)


def relabel_crashes(
    crashes: Iterable[Tuple[int, int]], perm: Perm
) -> Tuple[Tuple[int, int], ...]:
    return tuple(sorted((perm[pid], t) for pid, t in crashes))


def admissible_perms(case: Any) -> Tuple[Perm, ...]:
    """The case's admissible group, identity first.

    Closed under composition and inverse: each condition is "π fixes
    this structure", and stabilizers are subgroups.
    """
    n = case.n
    ident = identity(n)
    fixed = build_fixed_pids(case.target, n, case.seed)
    assignment = relabel_assignment(case.resolved_assignment, ident)
    crashes = relabel_crashes(case.crashes, ident)
    group: List[Perm] = []
    for perm in permutations(range(n)):  # identity enumerates first
        if any(perm[p] != p for p in fixed):
            continue
        if relabel_crashes(case.crashes, perm) != crashes:
            continue
        if relabel_assignment(case.resolved_assignment, perm) != assignment:
            continue
        group.append(perm)
    return tuple(group)


def resolve_symmetry(case: Any, symmetry: Any) -> bool:
    """Normalise the ``symmetry`` knob of :func:`explore_case`.

    ``False``/``None`` — off.  ``"auto"`` — on iff the target is in
    :data:`SYMMETRY_SAFE_TARGETS`.  ``True`` — on, and an unsafe target
    is a hard error (silently degrading a requested reduction would
    mask a misconfiguration).
    """
    if symmetry in (False, None):
        return False
    if symmetry == "auto":
        return case.target in SYMMETRY_SAFE_TARGETS
    if symmetry is True:
        if case.target not in SYMMETRY_SAFE_TARGETS:
            raise ValueError(
                f"target {case.target!r} carries pid-derived values; "
                f"symmetry reduction is only sound for "
                f"{sorted(SYMMETRY_SAFE_TARGETS)}"
            )
        return True
    raise ValueError(f"symmetry must be True/False/None/'auto', got {symmetry!r}")


def symmetric_root_key(case: Any) -> Tuple[Any, ...]:
    """A canonical key equal for π-related roots of one target family.

    Minimises (relabeled crashes, relabeled assignment) over every
    permutation fixing the seed-pinned pids — the case-level conditions
    without the "fixes this very root" restriction, which is exactly
    what makes two *different* roots compare equal.
    """
    n = case.n
    fixed = build_fixed_pids(case.target, n, case.seed)
    best = None
    for perm in permutations(range(n)):
        if any(perm[p] != p for p in fixed):
            continue
        key = (
            relabel_crashes(case.crashes, perm),
            relabel_assignment(case.resolved_assignment, perm),
        )
        if best is None or key < best:
            best = key
    return (case.target, case.n, case.depth, case.seed) + best


def collapse_symmetric_roots(roots: Sequence[Any]) -> List[Any]:
    """One representative per symmetry class of roots, original order.

    Roots of targets outside :data:`SYMMETRY_SAFE_TARGETS` pass through
    untouched.  Violation verdicts are preserved exactly (a root is
    clean iff its π-images are); decision vectors of dropped roots are
    the π-images of the representative's.
    """
    seen = set()
    out = []
    for root in roots:
        if root.target not in SYMMETRY_SAFE_TARGETS:
            out.append(root)
            continue
        key = symmetric_root_key(root)
        if key in seen:
            continue
        seen.add(key)
        out.append(root)
    return out
