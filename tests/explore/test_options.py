"""One options object, validated once, accepted in one shape.

A misspelt option used to reach a spawned frontier worker, fail the
root through its whole retry budget and come back as a quarantine
(``complete=False``, ``runs=0``) instead of an error.  Now the value
cannot be built: :class:`~repro.explore.ExploreOptions` refuses it by
name, before any driver runs — and no driver takes the loose keywords
beside it any more.
"""

import dataclasses

import pytest

from repro.explore import (
    ExploreCase,
    ExploreOptions,
    explore_case,
    explore_case_dynamic,
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
        ("symmetry", ("auto",)),
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
        for symmetry in (None, False, "auto", True):
            ExploreOptions(fingerprint_mode=mode, symmetry=symmetry)


def test_options_round_trip_through_their_dict():
    options = ExploreOptions(
        por=False, dedup=False, symmetry="auto", fingerprint_mode="naive"
    )
    assert ExploreOptions(**dataclasses.asdict(options)) == options
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.por = True


@pytest.mark.parametrize(
    "driver, subject",
    [
        (explore_case, CASE),
        (run_frontier, [CASE]),
        # The same function as run_frontier under its second public name.
        pytest.param(run_frontier_dynamic, [CASE], id="run_frontier_dynamic-"),
        (explore_case_dynamic, CASE),
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
    monkeypatch.setattr(frontierd._FrontierWorkers, "spawn", _no_spawn)
    with pytest.raises(TypeError, match="unexpected keyword"):
        driver(subject, **loose)


def _no_spawn(self, how_many):
    raise AssertionError("a worker was spawned for options that cannot run")


def test_unsound_symmetry_is_refused_before_a_store_or_a_worker(
    tmp_path, monkeypatch
):
    # ``symmetry=True`` is a valid option that this target cannot
    # honour: the one refusal that needs the case, so it comes from the
    # driver — still before anything is opened or spawned.
    monkeypatch.setattr(frontierd._FrontierWorkers, "spawn", _no_spawn)
    unsafe = ExploreCase(target="ct", n=2, depth=4)
    with pytest.raises(ValueError, match="symmetry reduction is only sound"):
        run_frontier(
            [unsafe], ExploreOptions(symmetry=True), workers=1, store=tmp_path
        )
    assert list(tmp_path.iterdir()) == []
