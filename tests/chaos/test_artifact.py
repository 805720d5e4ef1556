"""Artifact round-trip and replay mechanics, independent of the fuzz
loop (which has its own end-to-end test in test_fuzz.py)."""

import json

import pytest

from repro.chaos.artifact import (
    FORMAT,
    case_from_dict,
    case_to_dict,
    load_artifact,
    replay,
    write_artifact,
)
from repro.chaos.knobs import ChaosKnobs
from repro.chaos.shrink import run_case
from repro.chaos.targets import FuzzCase, violated_safety

CASE = FuzzCase(
    target="paxos",
    n=3,
    seed=2,
    horizon=20_000,
    knobs=ChaosKnobs(dup_probability=0.2, omega_churn_period=1),
    crashes=((1, 40),),
)


class TestCaseRoundTrip:
    def test_dict_round_trip(self):
        assert case_from_dict(case_to_dict(CASE)) == CASE

    def test_json_round_trip(self):
        wire = json.dumps(case_to_dict(CASE))
        assert case_from_dict(json.loads(wire)) == CASE

    def test_unknown_target_rejected(self):
        data = case_to_dict(CASE)
        data["target"] = "nonesuch"
        with pytest.raises(ValueError):
            case_from_dict(data)


class TestWriteLoadReplay:
    def test_written_artifact_replays_ok(self, tmp_path):
        summary = run_case(CASE)
        violated = violated_safety(CASE, summary.metrics)
        assert violated == []  # paxos is a clean target
        path = tmp_path / "witness.json"
        document = write_artifact(path, CASE, violated, summary)
        assert document["format"] == FORMAT
        loaded = load_artifact(path)
        assert loaded == document
        result = replay(loaded)
        assert result.reproduced
        assert result.deterministic
        assert result.ok

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            load_artifact(path)

    def test_digest_drift_detected(self, tmp_path):
        summary = run_case(CASE)
        path = tmp_path / "witness.json"
        write_artifact(path, CASE, [], summary)
        document = load_artifact(path)
        document["expected"]["stable_digest"] = "0" * 16
        result = replay(document)
        assert result.reproduced
        assert not result.deterministic
        assert not result.ok


class TestFormatVersioning:
    """A recognised family at a foreign version is refused with a
    version diagnosis, not mistaken for "not an artifact"."""

    def test_parse_format(self):
        from repro.chaos.artifact import parse_format

        assert parse_format("repro-chaos-artifact/1") == (
            "repro-chaos-artifact", 1,
        )
        assert parse_format("repro-chaos-artifact/oops") == (None, None)
        assert parse_format("no-slash") == (None, None)
        assert parse_format(None) == (None, None)

    def test_future_chaos_version_refused_with_version_error(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format": "repro-chaos-artifact/2"}))
        with pytest.raises(ValueError, match="version 2 is not supported"):
            load_artifact(path)

    def test_future_explore_version_refused_with_version_error(self, tmp_path):
        from repro.explore.artifact import load_artifact as load_explore

        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format": "repro-explore-artifact/9"}))
        with pytest.raises(ValueError, match="version 9 is not supported"):
            load_explore(path)

    def test_alien_format_still_not_an_artifact(self, tmp_path):
        path = tmp_path / "alien.json"
        path.write_text(json.dumps({"format": "someone-elses-format/3"}))
        with pytest.raises(ValueError, match="not a repro artifact"):
            load_artifact(path)


class TestReplayCli:
    """``--replay`` exit codes: 0 reproduced, 1 no longer reproduces
    (test_fuzz.py), 2 the file is not a readable artifact."""

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "{not json",
            "[1, 2]",
            json.dumps({"format": "repro-explore-artifact/9"}),
            json.dumps({"format": "someone-elses-format/3"}),
        ],
        ids=["missing", "not-json", "not-an-object", "future-version", "alien"],
    )
    def test_unreadable_input_exits_2(self, tmp_path, capsys, content):
        from repro.chaos.fuzz import main

        path = tmp_path / "witness.json"
        if content is not None:
            path.write_text(content)
        assert main(["--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


class TestFuzzCliRefusals:
    """Nonsense input is a usage error (exit 2) before any artifact
    directory is made or any run starts: exit 1 is the verdict "safety
    violated", and an empty campaign must not read as a clean one."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--targets", "nosuch"], "--targets 'nosuch'"),
            (["--targets", ""], "--targets ''"),
            (["--n", "0"], "--n 0"),
            (["--horizon", "0"], "--horizon 0"),
            (["--rounds", "0"], "--rounds 0"),
            (["--rounds", "-1"], "--rounds -1"),
            (["--timeout", "-1"], "timeout=-1"),
            (["--timeout", "nan"], "timeout=nan"),
            (["--timeout", "inf"], "timeout=inf"),
            (["--jobs", "-2"], "workers=-2"),
        ],
        ids=[
            "unknown-target", "no-target", "n-0", "horizon-0", "rounds-0",
            "rounds-negative", "timeout-negative", "timeout-nan",
            "timeout-inf", "jobs-negative",
        ],
    )
    def test_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        self._refused(tmp_path, capsys, monkeypatch, argv, message)

    def test_negative_jobs_from_the_environment(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RUNNER_JOBS", "-3")
        self._refused(tmp_path, capsys, monkeypatch, [], "REPRO_RUNNER_JOBS=-3")

    @pytest.mark.parametrize("bad", ["-1", "nan", "inf"])
    def test_a_bad_budget_from_the_environment(
        self, tmp_path, capsys, monkeypatch, bad
    ):
        monkeypatch.setenv("REPRO_RUNNER_TIMEOUT", bad)
        self._refused(
            tmp_path, capsys, monkeypatch, [], f"REPRO_RUNNER_TIMEOUT={bad}"
        )

    def test_the_store_flag_is_gone(self, tmp_path, capsys, monkeypatch):
        # Witnesses are the --out files; there is no database to file
        # them into.
        self._refused(
            tmp_path, capsys, monkeypatch, ["--store", str(tmp_path / "db")],
            "unrecognized arguments: --store",
        )

    @staticmethod
    def _refused(tmp_path, capsys, monkeypatch, argv, message):
        from repro.chaos import fuzz

        def no_run(**kwargs):
            raise AssertionError("a refused campaign started")

        monkeypatch.setattr(fuzz, "run_fuzz", no_run)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            fuzz.main(argv + ["--out", str(out)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
