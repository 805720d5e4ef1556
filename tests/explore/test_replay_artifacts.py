"""Committed counterexamples replay forever.

``tests/data/explore-*.json`` holds one shrunk witness per seeded
mutant, produced by the explorer and its shrinker.  Replaying them
re-executes the recorded choice trace against today's code and
re-checks the verdict: the seeded bug still breaks the recorded
clauses (``reproduced``) and the run is still byte-for-byte the same
(``deterministic``).  A failure here means either a mutant was
"fixed", the controlled-run semantics drifted, or the artifact format
broke — all worth knowing immediately.
"""

import json
from pathlib import Path

import pytest

from repro.chaos.artifact import load_artifact, replay
from repro.explore.artifact import EXPLORE_FORMAT, write_artifact
from repro.explore.cases import case_from_dict

DATA = Path(__file__).parent.parent / "data"
ARTIFACTS = sorted(DATA.glob("explore-*.json"))
EXPECTED = {
    "explore-submajority",
    "explore-eagerquit",
    "explore-hastycommit",
    "explore-redcommit",  # scripted: detector choices ride in the trace
}


def test_one_artifact_per_mutant_is_committed():
    assert {path.stem for path in ARTIFACTS} == EXPECTED


@pytest.mark.parametrize(
    "path", ARTIFACTS, ids=[path.stem for path in ARTIFACTS]
)
def test_artifact_replays_and_reconfirms(path):
    document = load_artifact(path)  # chaos loader dispatches on format
    assert document["format"] == EXPLORE_FORMAT
    assert document["violated"], "artifact records no violated clauses"
    result = replay(document)
    assert result.reproduced, (
        f"{path.name}: clauses {document['violated']} no longer violated "
        f"(now: {result.violated_now})"
    )
    assert result.deterministic, (
        f"{path.name}: trace digest drifted — controlled-run semantics "
        "changed"
    )
    assert result.ok


@pytest.mark.parametrize(
    "path", ARTIFACTS, ids=[path.stem for path in ARTIFACTS]
)
def test_the_engine_key_of_older_witnesses_is_not_read(path, tmp_path):
    """The committed witnesses were written when a search named its
    network engine; both networks are trace-identical, the key is no
    longer written, and whatever it says a witness replays the same."""
    committed = load_artifact(path)
    assert committed["engine"] == "indexed"
    on_reference = dict(committed, engine="reference")
    assert replay(on_reference) == replay(committed)
    assert replay(on_reference).ok
    # Written again by today's code: the same document minus the key —
    # the format did not change, so neither did its version.
    rewritten = write_artifact(
        tmp_path / path.name,
        case_from_dict(committed["case"]),
        committed["choices"],
        committed["violated"],
        por=committed["por"],
        shrink_stats=committed["shrink"],
    )
    assert "engine" not in rewritten
    assert dict(rewritten, engine="indexed") == committed
    assert json.loads((tmp_path / path.name).read_text()) == rewritten


def test_loader_rejects_unknown_format(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"format": "not-an-artifact/9"}')
    with pytest.raises(ValueError, match="not a repro artifact"):
        load_artifact(bogus)


def test_explore_loader_rejects_chaos_format(tmp_path):
    from repro.explore.artifact import load_artifact as load_explore

    bogus = tmp_path / "chaos.json"
    bogus.write_text('{"format": "repro-chaos-artifact/1"}')
    with pytest.raises(ValueError, match="not an explore artifact"):
        load_explore(bogus)
