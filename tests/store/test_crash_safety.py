"""Crash safety: a killed writer loses only its uncommitted tail.

A child process puts summaries through a ``StoreResultCache`` whose
buffered writer flushes every ``batch`` rows, then dies with
``os._exit`` — no flush, no close, no atexit.  The parent reopens the
same store and asserts every *committed* batch survived intact and a
resumed campaign re-runs exactly the lost cells.
"""

import os
import subprocess
import sys
import textwrap

from repro.runner import Campaign, call, fn_spec
from repro.store import ResultStore, StoreResultCache

from tests.store import helpers

CELLS = 5
BATCH = 2  # 5 puts → two committed batches (4 rows) + 1 buffered (lost)
COMMITTED = (CELLS // BATCH) * BATCH
# The child's exit code: one no uncaught exception produces (those exit
# 1), so a child that broke before the kill cannot pass for one that
# lost its tail.
KILLED = 86

CHILD = textwrap.dedent(
    """
    import os, sys
    from repro.runner import call, fn_spec
    from repro.store import StoreResultCache
    from tests.store import helpers

    root, cells, batch, killed = sys.argv[1], *map(int, sys.argv[2:5])
    cache = StoreResultCache(root, batch=batch)
    for i in range(cells):
        spec = fn_spec(call(helpers.square, i), i=i)
        cache.put(spec.fingerprint(), spec.execute())
    os._exit(killed)  # die mid-batch: no flush, no close
    """
)


def _jobs():
    return [fn_spec(call(helpers.square, i), i=i) for i in range(CELLS)]


def _run_child(tmp_path):
    env = dict(os.environ)
    repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(repo, "src"), repo,
                    env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), str(CELLS), str(BATCH),
         str(KILLED)],
        env=env,
        cwd=repo,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == KILLED, proc.stderr
    assert proc.stderr == ""
    return proc


def test_committed_rows_survive_the_kill(tmp_path):
    _run_child(tmp_path)
    cache = StoreResultCache(tmp_path)
    survived = [
        cache.get(job.fingerprint()) for job in _jobs()
    ]
    present = [s for s in survived if s is not None]
    # Exactly the committed batches are readable — and readable means
    # the checksummed frame verified, not just that a row exists.
    assert len(present) == COMMITTED
    assert survived[-1] is None  # the buffered tail is gone
    assert [s.value for s in present] == [i * i for i in range(COMMITTED)]
    assert cache.drain_events() == []  # nothing corrupt, just absent


def test_resume_reruns_exactly_the_lost_cells(tmp_path):
    _run_child(tmp_path)
    result = Campaign(_jobs(), name="resume").run(
        cache=StoreResultCache(tmp_path)
    )
    assert result.ok
    assert result.hits == COMMITTED
    assert result.executed == CELLS - COMMITTED
    # And after the resume the campaign is fully cached.
    warm = Campaign(_jobs(), name="resume").run(
        cache=StoreResultCache(tmp_path)
    )
    assert warm.executed == 0 and warm.hits == CELLS


def test_killed_writer_never_corrupts_the_file(tmp_path):
    _run_child(tmp_path)
    # The schema is intact and the store keeps working.
    store = ResultStore(tmp_path)
    store.put_summary("post-crash", "salt",
                      fn_spec(call(helpers.cube, 2)).execute())
    store.flush()
    assert store.get_summary("post-crash", "salt").value == 8
    store.close()
