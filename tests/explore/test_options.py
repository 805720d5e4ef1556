"""One options object, validated once, accepted in one shape.

A misspelt option used to reach a spawned frontier worker, fail the
root through its whole retry budget and come back as a quarantine
(``complete=False``, ``runs=0``) instead of an error.  Now the value
cannot be built: :class:`~repro.explore.ExploreOptions` refuses it by
name, before any driver runs — and no driver takes the loose keywords
beside it any more.
"""

import dataclasses
import os
import re

import pytest

from repro.explore import (
    ExploreCase,
    ExploreOptions,
    explore_case,
    frontierd,
    run_frontier,
    run_frontier_dynamic,
)
from repro.explore.state import FingerprintEngine

CASE = ExploreCase(target="qc", n=2, depth=4)


@pytest.mark.parametrize(
    "field, accepted",
    [
        ("fingerprint_mode", FingerprintEngine.MODES),
        ("symmetry", (False, True)),
    ],
)
def test_a_misspelt_option_is_an_error_naming_the_accepted_values(
    field, accepted
):
    with pytest.raises(ValueError) as refusal:
        ExploreOptions(**{field: "bogus"})
    assert "'bogus'" in str(refusal.value)
    for value in accepted:
        assert repr(value) in str(refusal.value)


def test_every_accepted_value_constructs():
    for mode in FingerprintEngine.MODES:
        for symmetry in (False, True):
            ExploreOptions(fingerprint_mode=mode, symmetry=symmetry)


def test_symmetry_is_off_in_one_spelling():
    # The options dict is part of a root's search key: two spellings of
    # "off" would give one search two cache keys.
    assert ExploreOptions().symmetry is False
    for other in (None, 0, 1, "auto"):
        with pytest.raises(ValueError, match=re.escape(f"got {other!r}")):
            ExploreOptions(symmetry=other)


def test_options_round_trip_through_their_dict():
    options = ExploreOptions(
        por=False, dedup=False, symmetry=True, fingerprint_mode="naive"
    )
    assert ExploreOptions(**dataclasses.asdict(options)) == options
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.por = True


@pytest.mark.parametrize(
    "driver, subject",
    [
        (explore_case, CASE),
        (run_frontier, [CASE]),
        # The repo benchmark's name for run_frontier.
        pytest.param(run_frontier_dynamic, [CASE], id="run_frontier_dynamic-"),
    ],
    ids=lambda value: getattr(value, "__name__", ""),
)
@pytest.mark.parametrize(
    "loose",
    [{"por": False}, {"engine": "reference"}, {"fingerprint_mode": "bogus"}],
    ids=lambda loose: next(iter(loose)),
)
def test_no_driver_takes_a_loose_option_keyword(
    driver, subject, loose, monkeypatch
):
    monkeypatch.setattr(os, "fork", _no_fork)
    with pytest.raises(TypeError, match="unexpected keyword"):
        driver(subject, **loose)


def _no_fork():
    raise AssertionError("a child was forked for options that cannot run")


def test_symmetry_on_an_unsafe_target_runs_without_it(monkeypatch):
    # ``symmetry=True`` means "on where sound": this target carries
    # pid-derived values, so its walk is the plain one.
    monkeypatch.setattr(os, "fork", _no_fork)
    unsafe = ExploreCase(target="ct", n=2, depth=4)
    (asked,) = run_frontier([unsafe], ExploreOptions(symmetry=True), workers=1)
    (plain,) = run_frontier([unsafe], ExploreOptions(), workers=1)
    assert asked["symmetry"] is False
    assert asked["stats"] == plain["stats"]
    assert asked["complete"] and asked["stats"]["runs"] > 0
