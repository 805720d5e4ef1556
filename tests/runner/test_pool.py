"""The fork pool every parallel caller runs on (:mod:`repro.runner.pool`).

* **Order** — results come back in item order whatever order the
  children finish in; k children serve the items, a free one taking
  the next; one worker runs every item in this process.
* **Recovery** — a child that SIGKILLs itself once has its item run
  again; an item whose child dies on every run is yielded as ``Lost``
  while its siblings finish; ``fn`` raising is not re-run and surfaces
  as ``ChildError`` at that item's turn.
* **Deadline** — an item still running ``timeout`` seconds after its
  child was handed it is yielded as ``Expired``, not re-run, and a
  fresh child serves the items after it; with a timeout, one worker
  runs its items in a child too.
* **Hygiene** — no child outlives the iteration, whether it is
  exhausted, closed early, expires an item, or the parent raises or is
  interrupted.
"""

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import signal
import time

import pytest

from repro.runner import call, fn_spec
from repro.runner.campaign import Campaign
from repro.runner.pool import (
    RERUN_LIMIT,
    ChildError,
    Expired,
    Lost,
    fork_imap,
    pool_size,
)
from tests.runner.helpers import fn_square

pytestmark = pytest.mark.skipif(os.name != "posix", reason="needs fork")


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def test_results_come_back_in_item_order():
    # The first item finishes last.
    def fn(item):
        time.sleep(0.3 if item == 0 else 0.0)
        return item * item, os.getpid()

    outcomes = list(fork_imap(fn, range(5), 2))
    assert [value for (value, _), _ in outcomes] == [0, 1, 4, 9, 16]
    assert all(runs == 1 for _, runs in outcomes)
    pids = [pid for (_, pid), _ in outcomes]
    # Two children, reused; the free one takes every item the busy one
    # could not.
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert pids[1:] == [pids[1]] * 4 and pids[0] != pids[1]


def test_one_worker_runs_every_item_here(monkeypatch):
    def no_fork():
        raise AssertionError("a child was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert list(fork_imap(lambda item: (item, os.getpid()), "ab", 1)) == [
        (("a", os.getpid()), 1), (("b", os.getpid()), 1),
    ]


def test_a_child_killed_on_its_first_run_is_rerun(tmp_path):
    marker = tmp_path / "killed"

    def fn(item):
        if item == 1 and not marker.exists():
            marker.touch()
            _kill_self()
        return item

    assert list(fork_imap(fn, range(3), 2)) == [(0, 1), (1, 2), (2, 1)]
    assert marker.exists()


def test_an_item_whose_child_always_dies_is_lost():
    def fn(item):
        if item == 2:
            _kill_self()
        return item

    outcomes = list(fork_imap(fn, range(4), 2))
    lost, runs = outcomes[2]
    assert isinstance(lost, Lost)
    assert lost.exitcode == -signal.SIGKILL
    assert runs == RERUN_LIMIT + 1
    assert [outcomes[i] for i in (0, 1, 3)] == [(0, 1), (1, 1), (3, 1)]


def test_a_raise_is_not_rerun_and_surfaces_at_its_turn(tmp_path):
    def fn(item):
        if item == 1:
            (tmp_path / f"run-{os.getpid()}").touch()
            raise ValueError("deliberate failure on 1")
        return item

    outcomes = fork_imap(fn, range(3), 2)
    assert next(outcomes) == (0, 1)
    with pytest.raises(ChildError, match="deliberate failure on 1") as raised:
        next(outcomes)
    assert "ValueError" in str(raised.value)  # the child's traceback
    assert len(list(tmp_path.iterdir())) == 1


def test_an_unpicklable_result_is_a_child_error():
    with pytest.raises(ChildError, match="pickle"):
        list(fork_imap(lambda item: lambda: item, range(2), 2))


def test_an_overrunning_item_expires_and_a_fresh_child_serves_the_rest(tmp_path):
    def fn(item):
        (tmp_path / f"{item}-{os.getpid()}").touch()
        if item == 1:
            time.sleep(600)
        return item

    outcomes = list(fork_imap(fn, range(4), 1, timeout=0.3))
    assert outcomes == [(0, 1), (Expired(0.3), 1), (2, 1), (3, 1)]
    pids = dict(path.name.split("-") for path in tmp_path.iterdir())
    assert len(pids) == 4  # the overrunning item ran once
    # One child ran items 0 and 1 and was killed on 1; a replacement
    # served the rest.
    assert pids["0"] == pids["1"] != pids["2"] == pids["3"]


def test_one_worker_with_a_timeout_runs_in_a_child():
    [(pid, runs)] = fork_imap(lambda item: os.getpid(), [0], 1, timeout=60)
    assert pid != os.getpid() and runs == 1


def _children_seen(monkeypatch):
    """Record the live children each time the parent waits on them."""
    before = set(multiprocessing.active_children())
    seen = []
    real_wait = multiprocessing.connection.wait

    def watched_wait(readers, timeout=None):
        seen.extend(set(multiprocessing.active_children()) - before)
        return real_wait(readers, timeout)

    monkeypatch.setattr(multiprocessing.connection, "wait", watched_wait)
    return seen


def _assert_gone(children):
    for child in children:
        assert not child.is_alive()
        with pytest.raises(ProcessLookupError):
            os.kill(child.pid, 0)  # killed and reaped


def test_no_child_outlives_a_finished_or_closed_iteration(monkeypatch):
    seen = _children_seen(monkeypatch)
    list(fork_imap(lambda item: time.sleep(0.2), range(4), 2))
    assert len(seen) >= 2
    _assert_gone(seen)

    # Stopping after the first result kills the child still sleeping.
    seen.clear()
    with contextlib.closing(
        fork_imap(lambda item: time.sleep(600 * item), range(3), 2)
    ) as outcomes:
        assert next(outcomes) == (None, 1)
    assert seen
    _assert_gone(seen)


def test_no_child_outlives_an_iteration_that_expired_an_item(monkeypatch):
    seen = _children_seen(monkeypatch)
    outcomes = list(fork_imap(
        lambda item: time.sleep(600 if item == 0 else 0.1), range(3), 2,
        timeout=0.3,
    ))
    assert outcomes == [(Expired(0.3), 1), (None, 1), (None, 1)]
    assert len(seen) >= 2
    _assert_gone(seen)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_no_child_outlives_a_parent_that_raises(monkeypatch, error):
    before = set(multiprocessing.active_children())
    seen = []

    def broken_wait(readers, timeout=None):
        seen[:] = set(multiprocessing.active_children()) - before
        raise error("the parent failed")

    monkeypatch.setattr(multiprocessing.connection, "wait", broken_wait)
    with pytest.raises(error, match="the parent failed"):
        list(fork_imap(lambda item: time.sleep(600), range(3), 2))
    assert len(seen) == 2
    _assert_gone(seen)


def test_a_pool_needs_fork(monkeypatch, tmp_path):
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    # A timeout is kept by killing a child, so it needs fork too.
    for workers, timeout in ((2, None), (1, 5)):
        with pytest.raises(ValueError, match="needs the fork start method"):
            pool_size(workers, timeout)
    assert pool_size(1) == 1
    jobs = [fn_spec(call(fn_square, i)) for i in range(3)]
    store = tmp_path / "store"
    for workers, timeout in ((2, None), (1, 5)):
        with pytest.raises(ValueError, match="needs the fork start method"):
            Campaign(jobs).run(workers=workers, timeout=timeout, cache=store)
    assert not store.exists()  # refused before the cache was opened
    assert [s.value for s in Campaign(jobs).run(workers=1)] == [0, 1, 4]
