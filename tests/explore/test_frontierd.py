"""The frontier walks every root whole and equals the serial walk.

* **Equivalence** — each root's summary has the serial walk's runs,
  states, decision vectors, violations and completeness, in this
  process (one worker) and in forked children alike.
* **Recovery** — a child SIGKILLed mid-walk has its root walked again
  and the frontier block counts the re-walk; a root whose child dies on
  every walk ends ``complete=False`` with a ``worker-lost`` incident
  while its siblings finish; a walk that raises ends its root the same
  way with a ``worker-exception`` incident.  No child outlives the call.
* **Bounds and refusals** — stop-on-first, max-runs and the cache act
  per root, and a cached root is served only under the bounds it was
  walked with; a negative fleet, and a fleet without ``fork``, are
  refused.
* **Forked** — children walk what the caller registered or swapped in.
"""

import dataclasses
import multiprocessing
import os
import signal
import time

import pytest

from repro.explore import (
    ExploreCase,
    enumerate_roots,
    explore_case,
    result_from_summary,
)
from repro.explore import frontierd
from repro.explore.__main__ import main
from repro.explore.frontierd import run_frontier
from repro.runner.pool import RERUN_LIMIT as REWALK_LIMIT
from tests.explore.helpers import violation_set as _violation_set
from tests.explore.helpers import without_frontier_block


def _assert_equivalent(dynamic, single):
    assert dynamic.decision_vectors == single.decision_vectors
    assert _violation_set(dynamic) == _violation_set(single)
    assert dynamic.complete == single.complete


def _assert_serial_walks(summaries, roots):
    """Every summary is its root's serial walk, count for count."""
    assert len(summaries) == len(roots)
    for summary, case in zip(summaries, roots):
        single = explore_case(case)
        walked = result_from_summary(summary)
        assert walked.case == case
        assert (walked.runs, walked.states, walked.dedup_hits,
                walked.por_pruned) == (single.runs, single.states,
                                       single.dedup_hits, single.por_pruned)
        _assert_equivalent(walked, single)
        assert summary["incidents"] == []


CASE = ExploreCase(target="hastycommit", n=2, depth=6, seed=1)
ROOTS = [CASE, CASE.with_(seed=0)]


def _no_fork():
    raise AssertionError("a child was forked")


class TestEquivalence:
    def test_dynamic_equals_serial(self):
        summaries = run_frontier(ROOTS, workers=2)
        _assert_serial_walks(summaries, ROOTS)
        block = summaries[0]["frontier"]
        assert block["workers"] == 2
        assert block["rewalks"] == 0 and block["lost"] == 0

    def test_single_worker_no_stealing(self, monkeypatch):
        # One worker walks the roots in this process.
        monkeypatch.setattr(os, "fork", _no_fork)
        summaries = run_frontier(ROOTS, workers=1)
        _assert_serial_walks(summaries, ROOTS)
        assert summaries[0]["frontier"]["workers"] == 1


def _walk_that_dies(monkeypatch, victim, marker=None):
    """Patch the walk so that a child walking ``victim`` SIGKILLs itself:
    on its first walk only when ``marker`` names a file to leave behind,
    on every walk otherwise.  Fork hands the patch to every child."""
    real = frontierd.explore_case

    def walk(case, *args, **kwargs):
        if case == victim and (marker is None or not marker.exists()):
            if marker is not None:
                marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return real(case, *args, **kwargs)

    monkeypatch.setattr(frontierd, "explore_case", walk)


class TestRecovery:
    def test_a_child_killed_on_its_first_walk_is_rewalked(
        self, tmp_path, monkeypatch
    ):
        _walk_that_dies(monkeypatch, ROOTS[1], marker=tmp_path / "killed")
        summaries = run_frontier(ROOTS, workers=2)
        assert (tmp_path / "killed").exists()
        _assert_serial_walks(summaries, ROOTS)
        block = summaries[0]["frontier"]
        assert block["rewalks"] == 1 and block["lost"] == 0

    def test_a_root_whose_child_always_dies_is_lost(
        self, monkeypatch, capsys
    ):
        roots = enumerate_roots("qc", 2, depth=3)
        victim = roots[2]
        _walk_that_dies(monkeypatch, victim)
        summaries = run_frontier(roots, workers=2)
        lost = summaries[2]
        assert lost["complete"] is False
        assert lost["stats"]["runs"] == 0
        (incident,) = lost["incidents"]
        assert incident["kind"] == "worker-lost"
        assert incident["walks"] == REWALK_LIMIT + 1
        assert f"last exit code {-signal.SIGKILL}" in incident["message"]
        siblings = summaries[:2] + summaries[3:]
        _assert_serial_walks(siblings, roots[:2] + roots[3:])
        assert all(s["complete"] for s in siblings)
        block = lost["frontier"]
        assert block["rewalks"] == REWALK_LIMIT and block["lost"] == 1
        # Its subtree was never searched: a failure whatever was expected.
        base = ["--target", "qc", "--depth", "3", "--workers", "2"]
        for extra in ([], ["--expect-violation"]):
            assert main(base + extra) == 1
            out = capsys.readouterr().out
            assert "qc depth=3 roots=6: " in out and " LOST" in out
            assert f"rewalks={REWALK_LIMIT} lost=1" in out

    def test_no_child_outlives_the_call(self, monkeypatch):
        before = set(multiprocessing.active_children())
        seen = []
        real_wait = multiprocessing.connection.wait

        def watched_wait(readers, timeout=None):
            seen.extend(set(multiprocessing.active_children()) - before)
            return real_wait(readers, timeout)

        monkeypatch.setattr(multiprocessing.connection, "wait", watched_wait)
        run_frontier(ROOTS, workers=2)
        assert len(seen) >= 2
        assert not any(child.is_alive() for child in seen)

        # The parent raises while both children are mid-walk.
        def sleepy(*args, **kwargs):
            time.sleep(600)

        def broken_wait(readers, timeout=None):
            seen[:] = set(multiprocessing.active_children()) - before
            raise RuntimeError("the parent failed")

        monkeypatch.setattr(frontierd, "explore_case", sleepy)
        monkeypatch.setattr(multiprocessing.connection, "wait", broken_wait)
        with pytest.raises(RuntimeError, match="the parent failed"):
            run_frontier(ROOTS, workers=2)
        assert len(seen) == 2
        for child in seen:
            assert not child.is_alive()
            with pytest.raises(ProcessLookupError):
                os.kill(child.pid, 0)  # killed and reaped


class TestRunBounds:
    """``stop_on_first_violation``, ``max_runs`` and ``cache``, per root,
    on two workers."""

    def test_stop_on_first_convicts_across_split_shards(self):
        summaries = run_frontier(ROOTS, workers=2, stop_on_first_violation=True)
        for summary, case in zip(summaries, ROOTS):
            serial = explore_case(case)
            if serial.violations:
                assert len(serial.violations) > 1
                assert len(summary["violations"]) == 1
                assert summary["complete"] is False
            else:
                assert summary["violations"] == []
        assert any(summary["violations"] for summary in summaries)

    def test_max_runs_truncation_is_incomplete(self):
        (summary,) = run_frontier([CASE], workers=2, max_runs=1)
        assert summary["complete"] is False
        assert summary["stats"]["runs"] == 1

    def test_a_cached_root_is_served_without_a_walk(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        first = run_frontier(ROOTS, workers=2, cache=cache)
        assert all(s["complete"] for s in first)
        # A truncated root is put under its bound: a walk is
        # deterministic, so the same bound gets the same summary.
        (truncated,) = run_frontier(
            [CASE.with_(depth=5)], workers=2, cache=cache, max_runs=1
        )
        assert truncated["complete"] is False
        monkeypatch.setattr(os, "fork", _no_fork)
        monkeypatch.setattr(frontierd, "explore_case", _raise_re_explored)
        served = run_frontier(ROOTS, workers=1, cache=cache)
        assert without_frontier_block(served) == without_frontier_block(first)
        # The frontier block is the serving call's, not the walking one's.
        assert [s["frontier"]["workers"] for s in served] == [1, 1]
        (same,) = run_frontier(
            [CASE.with_(depth=5)], workers=1, cache=cache, max_runs=1
        )
        assert without_frontier_block([same]) == without_frontier_block([truncated])
        # Another bound is another search: it is walked again.
        for bounds in ({}, {"max_runs": 2}, {"max_runs": 1,
                                              "stop_on_first_violation": True}):
            (again,) = run_frontier(
                [CASE.with_(depth=5)], workers=1, cache=cache, **bounds
            )
            assert again["incidents"][0]["message"] == "re-explored"

    def test_a_negative_fleet_is_refused(self, monkeypatch):
        monkeypatch.setattr(frontierd, "explore_case", _raise_re_explored)
        with pytest.raises(ValueError, match="need 1 or more"):
            run_frontier([CASE], workers=-1)


def _raise_re_explored(*args, **kwargs):
    raise AssertionError("re-explored")


def _poisoned(*args, **kwargs):
    raise RuntimeError("poisoned walk")


class TestQuarantine:
    def test_poison_shards_quarantine_not_raise(self, monkeypatch):
        # A walk that raises is not retried, here or in a child: its
        # root has a summary with nothing walked in it, not an exception.
        monkeypatch.setattr(frontierd, "explore_case", _poisoned)
        for workers in (1, 2):
            summaries = run_frontier(ROOTS, workers=workers)
            for summary in summaries:
                assert summary["complete"] is False
                assert summary["stats"]["runs"] == 0
                (incident,) = summary["incidents"]
                assert incident["kind"] == "worker-exception"
                assert incident["error_type"] == "RuntimeError"
                assert incident["message"] == "poisoned walk"
                assert "_poisoned" in incident["traceback"]
            block = summaries[0]["frontier"]
            assert block["rewalks"] == 0 and block["lost"] == len(ROOTS)

    def test_a_walk_past_the_runner_timeout_loses_its_root(self, monkeypatch):
        # REPRO_RUNNER_TIMEOUT bounds each root, as it bounds every
        # campaign cell, in this process and in a child alike.
        monkeypatch.setenv("REPRO_RUNNER_TIMEOUT", "0.2")
        monkeypatch.setattr(frontierd, "explore_case", _sleepy)
        for workers in (1, 2):
            summaries = run_frontier(ROOTS, workers=workers)
            for summary in summaries:
                assert summary["complete"] is False
                assert summary["stats"]["runs"] == 0
                (incident,) = summary["incidents"]
                assert incident["kind"] == "timeout"
                assert "0.2s wall-clock budget" in incident["message"]
            assert summaries[0]["frontier"]["lost"] == len(ROOTS)


def _sleepy(*args, **kwargs):
    time.sleep(600)


class TestForkedFleet:
    def test_a_target_registered_in_the_caller_is_walked(self, monkeypatch):
        # Registered in this process only: a child that re-imported the
        # library would not know the name, and its walk would raise.
        from repro.chaos.targets import TARGETS
        from repro.explore.assignments import default_assignment

        monkeypatch.setitem(
            TARGETS, "callerhasty",
            dataclasses.replace(TARGETS["hastycommit"], name="callerhasty"),
        )
        case = CASE.with_(
            target="callerhasty",
            assignment=default_assignment("hastycommit", CASE.n),
        )
        # Two roots, so that two children walk them.
        roots = [case, case.with_(seed=0)]
        summaries = run_frontier(roots, workers=2)
        assert summaries[0]["frontier"]["workers"] == 2
        for summary, root in zip(summaries, roots):
            assert summary["complete"] is True
            assert summary["incidents"] == []
            _assert_equivalent(result_from_summary(summary), explore_case(root))
        assert summaries[0]["violations"]

    def test_a_fleet_needs_fork(self, monkeypatch):
        real_context = multiprocessing.get_context

        def without_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return real_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", without_fork)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        real_walk = frontierd.explore_case
        monkeypatch.setattr(frontierd, "explore_case", _raise_re_explored)
        with pytest.raises(ValueError, match="needs the fork start method"):
            run_frontier([CASE], workers=2)
        # One worker needs no process, so it runs everywhere.
        monkeypatch.setattr(frontierd, "explore_case", real_walk)
        (summary,) = run_frontier([CASE], workers=1)
        assert summary["complete"] and summary["violations"]

    def test_a_swapped_network_class_reaches_the_workers(self):
        from repro.sim.system import network_implementation

        with network_implementation(_RefusedNetwork):
            summaries = run_frontier(ROOTS, workers=2)  # two children
        for summary in summaries:
            assert summary["complete"] is False
            (incident,) = summary["incidents"]
            assert incident["kind"] == "worker-exception"
            assert incident["message"] == _RefusedNetwork.MESSAGE


class _RefusedNetwork:
    """A network class no system can be built on."""

    MESSAGE = "built on the swapped network"

    def __init__(self, *args, **kwargs):
        raise RuntimeError(self.MESSAGE)
