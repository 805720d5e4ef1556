"""The native-core status surface: loader, env kill switch, CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import _native

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run_status(extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPRO_NATIVE", None)
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.native_status"],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, json.loads(proc.stdout)


def test_status_reports_this_process():
    report = _native.status()
    assert set(report) == {
        "available",
        "reason",
        "version",
        "extension",
        "disabled_by_env",
    }
    if report["available"]:
        assert report["reason"] is None
        assert report["version"] == 1
        assert report["extension"]
    else:
        assert report["reason"]


def test_cli_exit_code_tracks_availability():
    code, report = _run_status()
    assert code == (0 if report["available"] else 1)


def test_repro_native_env_var_disables():
    code, report = _run_status({"REPRO_NATIVE": "0"})
    assert code == 1
    assert report["available"] is False
    assert report["disabled_by_env"] is True
    assert "REPRO_NATIVE=0" in report["reason"]


def test_forced_pure_explorer_still_runs():
    """REPRO_NATIVE=0 + --fingerprint-mode native must silently fall
    back to the pure incremental path, not fail."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_NATIVE"] = "0"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.explore",
            "--target",
            "ct",
            "--depth",
            "4",
            "--fingerprint-mode",
            "native",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(
    not _native.available(),
    reason=f"native core unavailable: {_native.reason()}",
)
def test_extension_holds_the_encoder_and_nothing_else():
    assert _native.encoder_class() is _native._core.Encoder
    types = {
        name for name, value in vars(_native._core).items()
        if isinstance(value, type)
    }
    assert types == {"Encoder"}
