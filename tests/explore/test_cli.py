"""The ``python -m repro.explore`` entry point, end to end."""

import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.explore import ExploreOptions, enumerate_roots, run_frontier
from repro.explore import __main__ as cli
from repro.explore.__main__ import main
from repro.explore.frontierd import CHAOS_FAIL_ENV, CHAOS_STALL_ENV


def test_clean_target_exits_zero(capsys):
    assert main(["--target", "qc", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "qc depth=10 roots=6: ok" in out
    assert "runs=" in out and "por_pruned=" in out
    # the fresh ticks, split into protocol code run and effects served,
    # and the host objects that had to be brought to a state
    split = re.search(
        r"rewinds=\d+ steps=(\d+)/(\d+) \(executed/served\) hosts_rebuilt=(\d+)",
        out,
    )
    assert split and int(split.group(1)) > 0 and int(split.group(3)) > 0
    # host and message cache traffic, next to the work they save
    assert re.search(
        r"fp_nodes=\d+ fp_host=\d+/\d+ fp_message=\d+/\d+ \(hits/misses\) "
        r"fp_lineages=\d+",
        out,
    )


def test_stats_split_the_fresh_ticks_by_mode(capsys):
    """Same walk, same ticks: the ``naive`` oracle (not a command-line
    mode; driven through the library) executes every one, the default
    mode serves the steps it has seen."""
    assert main(["--target", "nbac", "--depth", "4", "--stats"]) == 0
    (total,) = (
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("nbac depth=4 ")
    )
    runs, executed, served = (
        int(count)
        for count in re.search(
            r"runs=(\d+) .* steps=(\d+)/(\d+) \(executed/served\)", total
        ).groups()
    )
    naive = run_frontier(
        enumerate_roots("nbac", 2, depth=4),
        ExploreOptions(fingerprint_mode="naive"),
    )
    naive_runs, naive_executed, naive_served = (
        sum(summary["counters"].get(f"explore_{name}", 0) for summary in naive)
        for name in ("runs", "steps_executed", "steps_served")
    )
    assert runs == naive_runs and naive_served == 0
    assert executed + served == naive_executed and 0 < executed and 0 < served


def test_clean_target_fails_expectation_of_violation(capsys):
    assert main(["--target", "qc", "--expect-violation"]) == 1
    assert "no violation (UNEXPECTED)" in capsys.readouterr().out


def test_mutant_with_expect_violation_exits_zero(capsys):
    code = main(
        ["--target", "eagerquit", "--expect-violation", "--stop-on-first"]
    )
    assert code == 0
    assert "VIOLATION FOUND" in capsys.readouterr().out


def test_mutant_without_expectation_exits_nonzero():
    assert (
        main(["--target", "eagerquit", "--stop-on-first"]) == 1
    )


def test_artifact_emission_and_replay(tmp_path, capsys):
    code = main(
        [
            "--target",
            "eagerquit",
            "--expect-violation",
            "--stop-on-first",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    written = sorted(tmp_path.glob("*.json"))
    assert written, "no artifact written"
    from repro.chaos.artifact import load_artifact, replay

    document = load_artifact(written[0])
    assert document["shrink"]["evals"] >= 1
    assert replay(document).ok
    # The shrunk witness is committed to disk smaller than (or equal
    # to) the raw hit the search produced.
    raw = json.loads(written[0].read_text())
    assert raw["case"]["depth"] <= 10


def test_no_por_and_no_dedup_flags(capsys):
    assert main(["--target", "qc", "--no-por", "--no-dedup", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "dedup_hits=0" in out and "por_pruned=0" in out


def test_detector_switches_flag_widens_the_frontier(capsys):
    base = ["--target", "qc", "--depth", "4", "--crashes", "1"]
    assert main(base) == 0
    constant = capsys.readouterr().out
    assert main(base + ["--detector-switches"]) == 0
    switched = capsys.readouterr().out

    def roots(out):
        return int(out.rsplit("roots=", 1)[1].split(":", 1)[0])

    assert roots(switched) > roots(constant)


def test_switch_mutant_auto_enables_the_dimension(capsys):
    # No --detector-switches, no --crashes: the CLI turns both on for
    # redcommit, whose bug is unreachable without them.
    code = main(
        ["--target", "redcommit", "--depth", "5",
         "--expect-violation", "--stop-on-first"]
    )
    assert code == 0
    assert "VIOLATION FOUND" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--engine", "native"),
        ("--engine", "reference"),
        ("--cache-backend", "sqlite"),
        ("--fingerprint-mode", "legacy"),
        ("--fingerprint-mode", "naive"),
        ("--fingerprint-mode", "native"),
        ("--fingerprint-mode", "incremental"),
    ],
)
def test_removed_choices_are_argparse_errors(flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--target", "qc", flag, value])
    assert exit_info.value.code == 2
    # a flag that is gone, or a value its flag no longer offers
    assert re.search(
        "unrecognized arguments|invalid choice", capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "workers", [[], ["--workers", "1"]], ids=["default", "one-worker"]
)
def test_chaos_without_a_fleet_is_refused_not_dropped(
    workers, tmp_path, monkeypatch, capsys
):
    # One worker walks in this process: a kill rate there could kill
    # nothing, and a run that printed "ok" would read as "recovery
    # proven".
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["--target", "qc", "--depth", "3", "--chaos-kill-rate", "0.3"]
             + workers)
    assert exit_info.value.code == 2  # a usage error, not a verdict
    assert "chaos_kill_rate=0.3 needs 2 or more workers" in (
        capsys.readouterr().err
    )
    assert list(tmp_path.iterdir()) == []  # refused before any work


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--workers", "-1"], "workers=-1: need 1 or more"),
        (["--procs", "0"], "n=0: a system needs 1 or more processes"),
        (["--depth", "0"], "depth must be >= 1"),
        (["--workers", "2", "--lease-ttl", "0"], "lease_ttl=0.0: need"),
        (["--workers", "2", "--lease-ttl", "-1"], "lease_ttl=-1.0: need"),
    ],
)
def test_nonsense_input_is_a_usage_error(
    argv, message, tmp_path, monkeypatch, capsys
):
    # Not a verdict: `--procs 0` used to print "ok" over an empty
    # search, and `--depth 0` to exit 1 with a traceback.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["--target", "nbac", "--store", str(tmp_path / "d")] + argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # refused before any work


def test_a_quarantined_frontier_fails_whatever_was_expected(
    monkeypatch, capsys
):
    # Every worker raises: each root fails through its retry budget
    # into quarantine, with 0 runs.  That used to print "ok" and exit 0.
    monkeypatch.setenv(CHAOS_FAIL_ENV, "1")
    base = ["--target", "qc", "--depth", "3", "--workers", "1"]
    for extra in ([], ["--expect-violation"]):
        assert main(base + extra) == 1
        out = capsys.readouterr().out
        assert re.search(r"qc depth=3 roots=6: .* QUARANTINED", out)
        assert "quarantined=6" in out


def test_driver_flags_still_reach_their_own_driver(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(
        ["--target", "qc", "--depth", "3", "--cache", cache,
         "--workers", "1", "--lease-ttl", "2", "--chaos-seed", "3",
         "--max-runs", "100000", "--stop-on-first",
         "--store", str(tmp_path / "store")]
    ) == 0
    assert (tmp_path / "cache").is_dir()
    assert "frontier: workers=1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag", ["--shard-depth", "--shard-budget", "--frontier"]
)
def test_removed_frontier_knobs_are_argparse_errors(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--target", "qc", flag, "3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_help_lists_the_flags_that_are_left(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    flags = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M))
    assert len(flags) == 20


def test_unknown_target_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--target", "nonsense", "--store", str(tmp_path / "d")])
    assert exit_info.value.code == 2
    assert "unknown target 'nonsense'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()  # refused before a store is made


def test_store_is_closed_when_a_later_target_raises(tmp_path, monkeypatch):
    """A witness is a buffered row until the store flushes; the one
    filed for the first target must survive the second one's crash."""
    calls = []

    def second_call_raises(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("walk died")
        return run_frontier(*args, **kwargs)

    monkeypatch.setattr(cli, "run_frontier", second_call_raises)
    monkeypatch.setattr(cli, "_targets", lambda name: ["eagerquit", "qc"])
    with pytest.raises(RuntimeError, match="walk died"):
        main(
            ["--target", "all", "--expect-violation", "--stop-on-first",
             "--store", str(tmp_path)]
        )
    db = tmp_path / "store.sqlite"
    assert not list(tmp_path.glob("store.sqlite-*"))  # -wal / -shm: closed
    con = sqlite3.connect(db)
    try:
        assert con.execute(
            "SELECT target FROM witnesses"
        ).fetchall() == [("eagerquit",)]
    finally:
        con.close()


COORDINATION_TABLES = (
    "work_queue", "leases", "exchange_scopes", "fingerprints",
)


def _rows(db, table):
    """Rows in ``table`` of the store file ``db``; 0 if it has none."""
    con = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    try:
        return con.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
    except sqlite3.DatabaseError:
        return 0  # no such table, or a file still being created
    finally:
        con.close()


def _leases_held(root):
    return any(_rows(db, "leases") for db in root.rglob("store.sqlite"))


def test_killed_run_leaves_no_coordination_rows_in_the_store(tmp_path):
    """``--store`` is the campaign database witnesses are filed into; a
    run's queue, leases and fingerprints live in a file of its own, so a
    coordinator SIGKILLed while its workers hold leases leaves none of
    them behind in it."""
    campaign = tmp_path / "campaign"
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch))
    env[CHAOS_STALL_ENV] = "5"  # workers park inside their claimed batch
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.explore", "--target", "nbac",
         "--procs", "3", "--depth", "6", "--workers", "2",
         "--store", str(campaign)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not _leases_held(tmp_path) and time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    assert _leases_held(tmp_path)  # killed mid-run, not after it
    db = campaign / "store.sqlite"
    assert db.exists()
    assert {t: _rows(db, t) for t in COORDINATION_TABLES} == dict.fromkeys(
        COORDINATION_TABLES, 0
    )
