"""Content fingerprints: the cache key must track run-relevant content."""

import random

import pytest

from repro.core.detectors.fs import FSOracle
from repro.core.failure_pattern import FailurePattern
from repro.runner import call, canonical, fingerprint
from repro.runner.spec import RunSpec
from repro.sim.system import decided

from tests.runner import helpers


class TestCanonical:
    def test_primitives_pass_through(self):
        assert canonical(3) == 3
        assert canonical("x") == "x"
        assert canonical(None) is None

    def test_float_uses_repr(self):
        assert canonical(0.1) == ("float", repr(0.1))

    def test_sets_are_order_insensitive(self):
        assert canonical({3, 1, 2}) == canonical({2, 3, 1})

    def test_dicts_are_order_insensitive(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_config_objects_canonicalise_by_state(self):
        a = FailurePattern(3, {0: 5})
        b = FailurePattern(3, {0: 5})
        assert canonical(a) == canonical(b)
        assert canonical(a) != canonical(FailurePattern(3, {0: 6}))

    def test_lambda_is_rejected(self):
        with pytest.raises(TypeError):
            canonical(lambda: 1)

    def test_rng_is_rejected(self):
        with pytest.raises(TypeError, match="RNG"):
            canonical(random.Random(0))

    def test_slotted_object_canonicalises_to_its_attribute_map(self):
        # Not ``('seq', (None, map))``, the form Python 3.11's default
        # ``object.__getstate__`` gives a slotted object.
        tag, _, state = canonical(FailurePattern(2, {1: 4}))
        assert tag == "obj"
        assert state[0] == "map"


class TestSpecFingerprints:
    def test_equal_specs_share_a_fingerprint(self):
        assert (
            helpers.consensus_spec(seed=3).fingerprint()
            == helpers.consensus_spec(seed=3).fingerprint()
        )

    def test_seed_change_invalidates(self):
        assert (
            helpers.consensus_spec(seed=0).fingerprint()
            != helpers.consensus_spec(seed=1).fingerprint()
        )

    def test_horizon_change_invalidates(self):
        assert (
            helpers.consensus_spec(horizon=10_000).fingerprint()
            != helpers.consensus_spec(horizon=20_000).fingerprint()
        )

    def test_pattern_change_invalidates(self):
        assert (
            helpers.consensus_spec(f=0).fingerprint()
            != helpers.consensus_spec(f=1).fingerprint()
        )

    def test_tags_participate(self):
        a = helpers.consensus_spec()
        assert a.fingerprint() != a.tagged(extra=1).fingerprint()

    def test_salt_separates_namespaces(self):
        payload = {"x": 1}
        assert fingerprint(payload, salt="a") != fingerprint(payload, salt="b")

    def test_a_spec_key_is_the_same_on_every_python(self):
        # Pinned literal: the same on Python 3.10, 3.11 and 3.12.  A
        # change here is a changed cache key for every stored run.
        spec = RunSpec(
            n=3,
            seed=7,
            horizon=500,
            pattern=FailurePattern(3, {2: 10}),
            detector=FSOracle(),
            stop=call(decided, "nbac"),
            tags=(("row", "pinned"),),
        )
        assert spec.fingerprint() == (
            "d6cc794c56c681b91e9ff541b86b599a9408890d2afe969d5b5cb83eb23f9fd7"
        )
