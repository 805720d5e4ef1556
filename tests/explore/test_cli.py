"""The ``python -m repro.explore`` entry point, end to end."""

import json
import re

import pytest

from repro.explore import ExploreOptions, enumerate_roots, run_frontier
from repro.explore import frontierd
from repro.explore.__main__ import main


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
    "argv, message",
    [
        (["--workers", "-1"], "workers=-1: need 1 or more"),
        (["--procs", "0"], "n=0: a system needs 1 or more processes"),
        (["--depth", "0"], "depth must be >= 1"),
        (["--max-runs", "0"], "max-runs=0: need 1 or more"),
        (["--max-runs", "-1"], "max-runs=-1: need 1 or more"),
        (["--crashes", "-1"], "crashes=-1: need 0 or more"),
    ],
)
def test_nonsense_input_is_a_usage_error(
    argv, message, tmp_path, monkeypatch, capsys
):
    # Not a verdict: `--procs 0` used to print "ok" over an empty
    # search, `--max-runs 0` "ok (truncated)" over no walk, `--crashes
    # -1` to mean 0, and `--depth 0` to exit 1 with a traceback.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["--target", "nbac", "--cache", str(tmp_path / "d")] + argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []  # refused before any work


@pytest.mark.parametrize("env", ["-1", "nan", "inf"])
def test_a_bad_runner_timeout_is_a_usage_error(env, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_RUNNER_TIMEOUT", env)
    with pytest.raises(SystemExit) as exit_info:
        main(["--target", "nbac", "--cache", str(tmp_path / "d")])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"REPRO_RUNNER_TIMEOUT={env}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []  # refused before any work


def _poisoned(*args, **kwargs):
    raise RuntimeError("poisoned walk")


def test_a_quarantined_frontier_fails_whatever_was_expected(
    monkeypatch, capsys
):
    # Every walk raises: each root is lost, with 0 runs, and nothing
    # was searched whatever was expected.
    monkeypatch.setattr(frontierd, "explore_case", _poisoned)
    base = ["--target", "qc", "--depth", "3", "--workers", "1"]
    for extra in ([], ["--expect-violation"]):
        assert main(base + extra) == 1
        out = capsys.readouterr().out
        assert re.search(r"qc depth=3 roots=6: .* LOST", out)
        assert "rewalks=0 lost=6" in out


def test_driver_flags_still_reach_their_own_driver(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(
        ["--target", "qc", "--depth", "3", "--cache", cache,
         "--workers", "1", "--max-runs", "100000", "--stop-on-first"]
    ) == 0
    assert (tmp_path / "cache").is_dir()
    assert "frontier: workers=1" in capsys.readouterr().out


def test_a_cached_run_prints_its_own_frontier_line(tmp_path, capsys):
    # The second run is served whole from the cache: its frontier line
    # is its own (one worker, nothing walked), not the first run's.
    base = ["--target", "qc", "--depth", "3", "--cache", str(tmp_path / "d")]
    lines = []
    for workers in ("2", "1"):
        assert main(base + ["--workers", workers]) == 0
        (line,) = (
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  frontier: ")
        )
        lines.append(line)
    assert lines[0].startswith("  frontier: workers=2 rewalks=0 lost=0 ")
    assert lines[1].startswith("  frontier: workers=1 rewalks=0 lost=0 ")


def test_a_frontier_is_an_audited_campaign(tmp_path, capsys):
    # Each run files a campaign row; the second is served whole.
    from repro.store.__main__ import main as store_main

    db = str(tmp_path / "d")
    for _ in range(2):
        assert main(["--target", "qc", "--depth", "3", "--cache", db]) == 0
    capsys.readouterr()
    assert store_main(["--db", db, "summarise"]) == 0
    out = capsys.readouterr().out
    assert "campaigns: 2 recorded, 1 fully cached re-run(s) (executed 0 cells)" in out
    rows = [line for line in out.splitlines() if " frontier: " in line]
    assert len(rows) == 2
    assert "6 cells, 0 hits, 6 executed" in rows[0]
    assert "6 cells, 6 hits, 0 executed" in rows[1]


@pytest.mark.parametrize(
    "flag",
    [
        "--shard-depth", "--shard-budget", "--frontier", "--lease-ttl",
        "--chaos-kill-rate", "--chaos-seed",
    ],
)
def test_removed_frontier_knobs_are_argparse_errors(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--target", "qc", flag, "3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "workers", [[], ["--workers", "1"]], ids=["default", "one-worker"]
)
def test_chaos_without_a_fleet_is_refused_not_dropped(
    workers, tmp_path, monkeypatch, capsys
):
    # The worker killer is gone: a kill rate that was quietly ignored
    # would let a run print "ok" and read as "recovery proven", so the
    # flag must stay a usage error, with or without a worker count.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["--target", "qc", "--depth", "3", "--chaos-kill-rate", "0.3"]
             + workers)
    assert exit_info.value.code == 2  # a usage error, not a verdict
    assert "unrecognized arguments: --chaos-kill-rate 0.3" in (
        capsys.readouterr().err
    )
    assert list(tmp_path.iterdir()) == []  # refused before any work


def test_help_lists_the_flags_that_are_left(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    flags = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M))
    assert len(flags) == 16
    assert "--store" not in flags


def test_unknown_target_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--target", "nonsense", "--cache", str(tmp_path / "d")])
    assert exit_info.value.code == 2
    assert "unknown target 'nonsense'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()  # refused before a store is made
