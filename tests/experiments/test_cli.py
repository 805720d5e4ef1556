"""The ``python -m repro.experiments`` entry point: exit codes and
--fail-fast, with a stubbed registry so no real experiment runs, at
``--jobs 1`` (the spy sees each call in this process) and forked (the
output says what ran); then a cheap real subset, byte for byte at every
``--jobs``."""

import json
import re

import pytest

from repro.experiments import __main__ as cli
from repro.runner.config import reset, resolve_cache, resolve_workers
from repro.runner.pool import ChildError


class FakeResult:
    def __init__(self, ok):
        self.ok = ok

    def render(self):
        return f"fake verdict: {'OK' if self.ok else 'MISMATCH'}"


@pytest.fixture
def registry(monkeypatch):
    calls = []

    def make(experiment_id, ok):
        def run(seed=0):
            calls.append(experiment_id)
            return FakeResult(ok)

        return run

    fake = {
        "E1": make("E1", True),
        "E2": make("E2", False),
        "E3": make("E3", True),
    }
    monkeypatch.setattr(cli, "all_experiments", lambda: fake)
    monkeypatch.setenv("REPRO_RUNNER_JOBS", "1")
    yield calls
    reset()


def test_all_ok_exits_zero(registry, monkeypatch):
    monkeypatch.setattr(
        cli, "all_experiments", lambda: {"E1": lambda seed=0: FakeResult(True)}
    )
    assert cli.main([]) == 0


def test_mismatch_exits_nonzero_and_runs_everything(registry):
    assert cli.main([]) == 1
    assert registry == ["E1", "E2", "E3"]


def test_fail_fast_stops_at_first_mismatch(registry, capsys):
    assert cli.main(["--fail-fast"]) == 1
    assert registry == ["E1", "E2"]
    assert "skipping ['E3']" in capsys.readouterr().err


def test_profile_does_not_swallow_an_experiment_id(registry, capsys, tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--profile", "E1"])
    assert exit_info.value.code == 2
    assert "E1 --profile" in capsys.readouterr().err
    assert registry == []
    # Ids first, then the flag (with or without a path), is the way.
    path = tmp_path / "counters.json"
    assert cli.main(["E1", "--profile", str(path)]) == 0
    assert registry == ["E1"] and path.exists()


def test_fail_fast_with_no_mismatch_runs_everything(registry):
    assert cli.main(["--fail-fast", "E1", "E3"]) == 0
    assert registry == ["E1", "E3"]


def test_main_leaves_the_runner_defaults_as_it_found_them(
    registry, monkeypatch, tmp_path
):
    """The CLI's worker count and cache hold for its own call only: a
    campaign run later in the same process, or a second ``main``, sees
    the defaults it saw before."""
    monkeypatch.delenv("REPRO_RUNNER_JOBS")
    monkeypatch.delenv("REPRO_RUNNER_CACHE", raising=False)
    for argv in (
        ["E1", "E3"],  # forked, campaigns serial in the children
        ["E1"],  # in-process, the campaign's cells on every core
        ["E1", "E3", "--jobs", "2", "--cache", str(tmp_path)],
        ["E1", "--jobs", "1"],
    ):
        assert cli.main(argv) == 0
        assert resolve_workers() is None
        assert resolve_cache() == (None, False)


def test_unknown_experiment_is_an_argument_error(registry):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["E99"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv,env", [(["--jobs", "-1"], None), ([], "-3")], ids=["flag", "env"]
)
def test_negative_jobs_is_an_argument_error(
    registry, monkeypatch, capsys, argv, env
):
    if env is not None:
        monkeypatch.setenv("REPRO_RUNNER_JOBS", env)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv + ["E1"])
    assert excinfo.value.code == 2
    assert "need 1 or more" in capsys.readouterr().err
    assert registry == []


@pytest.mark.parametrize("env", ["-1", "nan", "inf"])
def test_a_bad_runner_timeout_is_an_argument_error(
    registry, monkeypatch, capsys, env
):
    monkeypatch.setenv("REPRO_RUNNER_TIMEOUT", env)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["E1", "E2", "--jobs", "2"])
    assert excinfo.value.code == 2
    assert f"REPRO_RUNNER_TIMEOUT={env}" in capsys.readouterr().err
    assert registry == []


def _untimed(text):
    return [line for line in text.splitlines() if not re.match(r"^\(\d+\.\ds\)$", line)]


def _run_at(capsys, argv, jobs):
    code = cli.main(argv + ["--jobs", jobs])
    captured = capsys.readouterr()
    return code, _untimed(captured.out), captured.err


def test_forked_mismatch_exits_nonzero_and_prints_every_table(registry, capsys):
    code, out, err = _run_at(capsys, [], "2")
    assert code == 1
    assert [line for line in out if line.startswith("fake verdict")] == [
        "fake verdict: OK", "fake verdict: MISMATCH", "fake verdict: OK",
    ]
    assert "MISMATCHES: ['E2']" in err
    assert registry == []  # every experiment ran in a child


@pytest.mark.parametrize(
    "argv", [["--fail-fast"], ["--fail-fast", "E1", "E3"], ["E1", "E3"]],
    ids=["stops", "no-mismatch", "plain"],
)
def test_forked_run_prints_what_the_serial_run_prints(registry, capsys, argv):
    serial = _run_at(capsys, argv, "1")
    assert _run_at(capsys, argv, "2") == serial
    assert _run_at(capsys, argv, "0") == serial


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_experiment_that_raises_fails_the_cli(registry, monkeypatch, jobs):
    def broken(seed=0):
        raise RuntimeError("the experiment broke")

    fake = {"E1": lambda seed=0: FakeResult(True), "E2": broken}
    monkeypatch.setattr(cli, "all_experiments", lambda: fake)
    with pytest.raises((RuntimeError, ChildError), match="the experiment broke"):
        cli.main(["--jobs", jobs])


def _budgeted_campaign(seed=0):
    from repro.runner import Campaign, call, fn_spec
    from tests.runner.helpers import fn_square

    result = Campaign([fn_spec(call(fn_square, seed + 3))]).run()
    return FakeResult(result.summaries[0].value == 9)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_runner_timeout_holds_inside_forked_experiments(
    registry, monkeypatch, capsys, jobs
):
    # Each experiment's campaign keeps REPRO_RUNNER_TIMEOUT by forking
    # a child of its own, from the experiment's child at --jobs 2.
    fake = {"E1": _budgeted_campaign, "E2": _budgeted_campaign}
    monkeypatch.setattr(cli, "all_experiments", lambda: fake)
    monkeypatch.setenv("REPRO_RUNNER_TIMEOUT", "60")
    assert cli.main(["E1", "E2", "--jobs", jobs]) == 0
    assert capsys.readouterr().out.count("fake verdict: OK") == 2


def test_a_cheap_subset_is_byte_identical_at_every_jobs_count(
    tmp_path, monkeypatch, capsys
):
    outputs, totals = [], []
    for jobs in ("1", "2", "0"):
        (tmp_path / jobs).mkdir()
        monkeypatch.chdir(tmp_path / jobs)  # the same --profile line
        argv = ["E4", "E7", "E10", "E11", "E13", "--seed", "0",
                "--jobs", jobs, "--profile", "profile.json"]
        assert cli.main(argv) == 0
        outputs.append(_untimed(capsys.readouterr().out))
        payload = json.loads((tmp_path / jobs / "profile.json").read_text())
        totals.append(payload["total"])
        assert [r["campaign"] for r in payload["campaigns"]] == [
            "E4", "E7", "E10", "E11", "E13",
        ]
    reset()
    assert outputs[0] == outputs[1] == outputs[2]
    assert totals[0] == totals[1] == totals[2]
    assert totals[0]["ticks"] > 0
