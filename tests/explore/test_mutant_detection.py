"""The explorer detects every seeded bug — and only the seeded bugs.

Each mutant in :mod:`repro.chaos.mutants` has one pinned exploration
root (target, size, depth, seed, detector assignment) at which the DFS
provably reaches a violating schedule; these tests pin root and depth
so a regression in the search (a pruning bug, a menu change) shows up
as "mutant no longer detected".  The clean-counterpart checks confirm
the violations come from the seeded bugs, not from the explorer: paxos
explored under the *same* adversarial assignment that convicts
submajority — and at least as many runs — stays silent.  The
convictions run once per network class (the ``network`` fixture).
"""

from repro.explore import SMOKE_DEPTHS, enumerate_roots, explore_case


def _selfish_root(target):
    # Index 4 of the (Ω, Σ) family: every process believes itself
    # leader, full quorums — the split-brain driver.
    roots = enumerate_roots(target, 2)
    root = roots[4]
    assert root.assignment == (
        ("os", 0, (0, 1)),
        ("os", 1, (0, 1)),
    )
    return root


def test_submajority_agreement_violation_found(network):
    root = _selfish_root("submajority")
    assert root.depth == SMOKE_DEPTHS["submajority"]
    result = explore_case(root, stop_on_first_violation=True)
    assert result.violations, "seeded sub-majority quorum bug not detected"
    violation = result.violations[0]
    assert "agreement" in violation.violated
    # Two leaders, two different values — the archetypal split brain.
    values = {value for _, _, value in violation.decisions}
    assert len(values) == 2


def test_eagerquit_validity_violation_found(network):
    roots = enumerate_roots("eagerquit", 2)
    assert len(roots) == 1 and roots[0].depth == SMOKE_DEPTHS["eagerquit"]
    result = explore_case(roots[0], stop_on_first_violation=True)
    assert result.violations, "seeded eager-quit QC bug not detected"
    assert "validity" in result.violations[0].violated


def test_hastycommit_violation_found(network):
    # The bug needs a No vote in the system: seed 1 carries one.
    hits = []
    for root in enumerate_roots("hastycommit", 2):
        assert root.depth == SMOKE_DEPTHS["hastycommit"]
        result = explore_case(root, stop_on_first_violation=True)
        hits.extend(result.violations)
    assert hits, "seeded hasty-commit NBAC bug not detected"
    violated = set().union(*(v.violated for v in hits))
    assert {"agreement", "validity"} & violated
    assert any(v.case.seed == 1 for v in hits)


def test_redcommit_needs_the_switch_dimension(network):
    """The tentpole's proof burden, both halves.

    Without detector switches the red-commit mutant's broken branch is
    dead code — every constant-assignment root exhausts clean.  With
    switches, the FS-reddening script plus a crashed No voter reaches
    the unilateral Commit and convicts it on Validity.
    """
    constant_roots = enumerate_roots(
        "redcommit", 2, max_crashes=1, detector_switches=False
    )
    assert constant_roots, "no constant roots enumerated"
    for root in constant_roots:
        result = explore_case(root)
        assert result.complete, "constant root did not exhaust"
        assert not result.violations, (
            "red-commit fired without switches — the coverage-gap "
            "claim is wrong"
        )

    switch_roots = enumerate_roots(
        "redcommit", 2, max_crashes=1, detector_switches=True
    )
    assert len(switch_roots) > len(constant_roots)
    hits = []
    for root in switch_roots:
        result = explore_case(root, stop_on_first_violation=True)
        hits.extend(result.violations)
    assert hits, "seeded red-commit quit-path bug not detected"
    violated = set().union(*(v.violated for v in hits))
    assert "validity" in violated
    # Every conviction rides a scripted root: the constant sweep above
    # proved the constant subset can't produce one.
    assert all(
        any(enc[0] == "script" for enc in v.case.assignment) for v in hits
    )


def test_staleread_linearizability_violation_found(network):
    """From the shipped roots, POR on: the Σ family's non-uniform
    vectors let a write complete without the reader, and the POR keeps
    "the write completes, then the read starts" on the menu."""
    roots = enumerate_roots("staleread", 2)
    assert all(root.depth == SMOKE_DEPTHS["staleread"] for root in roots)
    hits = []
    for root in roots:
        result = explore_case(root, stop_on_first_violation=True)
        hits.extend(result.violations)
    assert hits, "seeded stale-read register bug not detected"
    assert all(v.violated == ("linearizability",) for v in hits)


def test_register_silent_under_staleread_witness_root():
    """Clean ABD on the root that convicts the stale read: exhausts
    without a violation."""
    from repro.explore import ExploreCase

    result = explore_case(
        ExploreCase(
            target="register",
            n=2,
            depth=8,
            seed=4,
            assignment=(("sigma", (0, 1)), ("sigma", (1,))),
        )
    )
    assert result.complete
    assert not result.violations


def test_nbac_silent_under_redcommit_witness_roots():
    """Clean NBAC explored over the same scripted roots stays clean —
    the conviction comes from the seeded bug, not from the scripts."""
    for root in enumerate_roots(
        "nbac", 2, max_crashes=1, detector_switches=True
    ):
        result = explore_case(root)
        assert result.complete
        assert not result.violations


def test_paxos_silent_under_submajority_witness_assignment():
    """Clean paxos, same adversarial root, same depth: no violation.

    Exhausting this subtree takes minutes (the deep suite does it);
    here the DFS is capped at twice the run index where the submajority
    violation appears — the prefix of the search that convicts the
    mutant acquits the clean algorithm.
    """
    mutant_root = _selfish_root("submajority")
    found = explore_case(mutant_root, stop_on_first_violation=True)
    assert found.violations
    clean_root = _selfish_root("paxos")
    assert clean_root.depth == mutant_root.depth
    result = explore_case(clean_root, max_runs=2 * found.runs)
    assert not result.violations


def test_violation_choices_replay_to_same_verdict():
    """A violation's recorded choice trace is its own witness."""
    from repro.explore.artifact import judge

    roots = enumerate_roots("eagerquit", 2)
    result = explore_case(roots[0], stop_on_first_violation=True)
    violation = result.violations[0]
    verdict = judge(violation.case, violation.choices, por=violation.por)
    assert set(violation.violated) <= set(verdict["violated"])
    assert tuple(
        (pid, comp, val) for pid, comp, val in
        (tuple(d) for d in verdict["decisions"])
    ) == violation.decisions
