"""Unit coverage for the explorer's building blocks."""

import pickle
from unittest import mock

import pytest

from repro.explore import (
    ChoiceController,
    ExploreCase,
    assignments_for,
    case_from_dict,
    case_to_dict,
    crash_schedules,
    decode_value,
    enumerate_roots,
    frontierd,
    run_controlled,
    run_frontier,
)
from repro.explore.state import OPAQUE_MARK, FingerprintEngine, _Encoder
from repro.store import ResultStore


class TestChoiceController:
    def test_defaults_take_index_zero_and_are_logged(self):
        controller = ChoiceController()
        assert controller.choose("sched", 1, 3) == 0
        assert controller.choose("deliv", 1, 2) == 0
        assert [(p.kind, p.chosen, p.options) for p in controller.log] == [
            ("sched", 0, 3),
            ("deliv", 0, 2),
        ]

    def test_prefix_replays_then_defaults(self):
        controller = ChoiceController(prefix=(2, 1))
        assert controller.replaying
        assert controller.choose("sched", 1, 3) == 2
        assert controller.choose("deliv", 1, 2) == 1
        assert not controller.replaying
        assert controller.choose("sched", 2, 3) == 0

    def test_replay_mismatch_raises(self):
        controller = ChoiceController(prefix=(5,))
        with pytest.raises(ValueError, match="replay mismatch"):
            controller.choose("sched", 1, 3)


class TestSanitize:
    def test_equal_cycles_sanitize_equal(self):
        a = {}
        a["self"] = a
        b = {}
        b["self"] = b
        # Identity must not leak into the canonical form: two
        # structurally identical cycles are the same state.
        assert _Encoder(2).enc(a) == _Encoder(2).enc(b)

    def test_slotted_state_is_captured(self):
        class Slotted:
            __slots__ = ("x",)

            def __init__(self, x):
                self.x = x

        encoder = _Encoder(2)
        assert encoder.enc(Slotted(1)) == encoder.enc(Slotted(1))
        # Slot values are real protocol state — different values must
        # not merge.
        assert encoder.enc(Slotted(1)) != encoder.enc(Slotted(2))
        assert not encoder.opaque

    def test_undecomposable_objects_never_merge(self):
        # A bare object() has neither __dict__ nor __slots__: the
        # encoder cannot prove two of them equal, so it flags the state
        # opaque and the key of an opaque state is marked as one no
        # visited set may hold — missed merges are sound, wrong merges
        # are not.
        encoder = _Encoder(2)
        encoder.enc(object())
        assert encoder.opaque

        case = ExploreCase(target="qc", n=2, depth=6)
        system, _ = run_controlled(case)

        def keys_at_two_ticks():
            engine = FingerprintEngine(case.n)
            engine.begin_run(system)
            return [
                engine.fingerprint(now, False, None, None, (), False, False)
                for now in (3, 4)
            ]

        # No crash is pending, so the tick is not part of the state...
        first, second = keys_at_two_ticks()
        assert first == second
        # ...and an opaque state says so in its key.  The mark is what
        # keeps it from merging: the search holds marked keys out of the
        # visited set (test_lineage_cache.py walks two shards over one
        # set), since nothing an engine could append to the key is
        # unique across the engines of a sharded walk.
        assert first[0] != OPAQUE_MARK
        system.hosts[0].components["qc"].widget = object()
        first, second = keys_at_two_ticks()
        assert first[0] == second[0] == OPAQUE_MARK


class TestAssignments:
    def test_every_encoding_decodes(self):
        for target in ("paxos", "ct", "qc", "nbac", "hastycommit",
                       "eagerquit", "register"):
            for assignment in assignments_for(target, 2):
                for enc in assignment:
                    decode_value(enc)  # must not raise

    def test_sigma_families_pairwise_intersect(self):
        """Σ admissibility: every emitted quorum vector pairwise
        intersects — perpetual intersection must hold in-window."""
        for target in ("paxos", "qc", "submajority", "register"):
            for assignment in assignments_for(target, 3):
                quorums = []
                for enc in assignment:
                    if enc[0] == "os":
                        quorums.append(frozenset(enc[2]))
                    elif enc[0] == "sigma":
                        quorums.append(frozenset(enc[1]))
                for a in quorums:
                    for b in quorums:
                        assert a & b, f"{target}: disjoint quorums {a}, {b}"

    def test_no_constant_red_fs(self):
        """FS constant red claims a failure before one happened —
        inadmissible, so no family may emit it."""
        for target in ("nbac", "hastycommit"):
            for assignment in assignments_for(target, 2):
                for enc in assignment:
                    assert enc[0] == "pf" and enc[2] == "green"


class TestFrontier:
    def test_crash_schedules_leave_a_survivor(self):
        for n in (2, 3):
            for schedule in crash_schedules(n, 10, 2):
                assert len(schedule) < n

    def test_crash_times_inside_window(self):
        for schedule in crash_schedules(3, 10, 2):
            for _, t in schedule:
                assert 1 <= t <= 10

    def test_roots_cover_seeds_and_assignments(self):
        roots = enumerate_roots("nbac", 2)
        assert {root.seed for root in roots} == {0, 1}
        assert len(roots) == 2 * len(assignments_for("nbac", 2))

    @pytest.mark.parametrize("n", [0, -1])
    def test_a_system_without_processes_has_no_frontier(self, n):
        # An empty root list would exhaust as a clean verdict.
        with pytest.raises(ValueError, match="1 or more processes"):
            enumerate_roots("nbac", n)

    def test_a_finished_root_is_a_cache_hit_under_a_path(self, tmp_path):
        # ``cache=tmp_path`` — a Path, not a str — used to be taken for
        # a ready-made cache object and die on its missing ``.get``.
        roots = enumerate_roots("qc", 2, depth=4)
        first = run_frontier(roots, cache=tmp_path)
        with mock.patch.object(
            frontierd, "explore_case", side_effect=AssertionError("re-explored")
        ):
            second = run_frontier(roots, cache=tmp_path)
        assert first == second
        # Each call opened the store from the location and closed it:
        # no connection, so no -wal / -shm, outlives the call.
        assert [p.name for p in tmp_path.iterdir()] == ["store.sqlite"]
        with ResultStore(tmp_path) as store:
            (rows,) = store.read_connection().execute(
                "SELECT COUNT(*) FROM run_summaries"
            ).fetchone()
        assert rows == len(roots)


class TestCaseRoundTrip:
    def test_json_round_trip(self):
        case = ExploreCase(
            target="paxos",
            n=3,
            depth=9,
            seed=2,
            crashes=((1, 4),),
            assignment=tuple(
                ("os", 0, (0, 1, 2)) for _ in range(3)
            ),
        )
        assert case_from_dict(case_to_dict(case)) == case

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown target"):
            ExploreCase(target="nope", n=2, depth=5)

    def test_derived_values_are_resolved_once_and_stay_out_of_identity(self):
        case = ExploreCase(target="nbac", n=2, depth=5, crashes=((1, 3),))
        twin = ExploreCase(target="nbac", n=2, depth=5, crashes=((1, 3),))
        assert case.pattern is case.pattern
        assert case.resolved_assignment is case.resolved_assignment
        # The cache is not a field: equality, hashing, derived cases and
        # a pickle round trip (how cases reach workers) ignore it.
        assert case == twin and hash(case) == hash(twin)
        moved = case.with_(crashes=((0, 2),))
        assert moved.pattern.crash_time(0) == 2
        assert moved.pattern.crash_time(1) is None
        copy = pickle.loads(pickle.dumps(case))
        assert copy == case and copy.pattern.crash_time(1) == 3


class TestControlledRunDeterminism:
    def test_same_prefix_same_trace(self):
        case = ExploreCase(target="qc", n=2, depth=6)
        first, _ = run_controlled(case)
        second, _ = run_controlled(case)
        assert first.trace.digest() == second.trace.digest()

    def test_fingerprints_reproducible_across_builds(self):
        case = ExploreCase(target="qc", n=2, depth=6)
        prints = []
        for _ in range(2):
            system, _ = run_controlled(case)
            engine = FingerprintEngine(case.n)
            engine.begin_run(system)
            prints.append(
                engine.fingerprint(case.depth, False, None, None, (), False, False)
            )
        assert prints[0] == prints[1]
