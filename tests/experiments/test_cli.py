"""The ``python -m repro.experiments`` entry point: exit codes and
--fail-fast, with a stubbed registry so no real experiment runs."""

import pytest

from repro.experiments import __main__ as cli
from repro.runner.config import reset


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


def test_unknown_experiment_is_an_argument_error(registry):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["E99"])
    assert excinfo.value.code == 2
