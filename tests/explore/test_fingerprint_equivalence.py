"""The fingerprint engines are interchangeable, byte for byte.

The incremental engine's whole value proposition is that its caching
is *invisible*: every dedup key it produces must equal — as a string —
the key the uncached naive encoder produces for the same state, on
every state of a real search, or the caches are lying about dirtiness
somewhere.  ``explore_case(digest_log=...)`` collects every key in
hook order, so equality of the logs pins both the per-state bytes and
the search trajectory at once.
"""

import pytest

from repro.explore import ExploreCase, ExploreOptions, explore_case
from repro.explore.state import FingerprintEngine, _Encoder

CASES = [
    ExploreCase(
        target="ct",
        n=2,
        depth=6,
        assignment=(("susp", (1,)), ("susp", (0,))),
    ),
    ExploreCase(target="nbac", n=2, depth=5, seed=1),
    ExploreCase(target="nbac", n=2, depth=5, crashes=((1, 2),)),
    ExploreCase(target="register", n=2, depth=5),
    ExploreCase(target="paxos", n=2, depth=6),
    # A scripted root: detector cursors ride in the fingerprint's
    # trailing section, and the caches must stay honest across runs
    # whose "detector" choices advance them at different ticks.
    ExploreCase(
        target="redcommit",
        n=2,
        depth=6,
        seed=1,
        crashes=((0, 3),),
        assignment=(
            (
                "script",
                ("pf", ("bot",), "green"),
                ("pf", ("fsv", "red"), "red"),
            ),
        )
        * 2,
    ),
]
IDS = ["ct", "nbac-seed1", "nbac-crash", "register", "paxos", "fsred-script"]
CASES = [pytest.param(case, {}, id=name) for case, name in zip(CASES, IDS)]
# Roots on which a host cache keyed on anything less than the process's
# whole step history goes wrong.  Three registers: every process opens
# an operation whose record (``invoke_time``, and the run-wide
# ``op_id``) sits in a tasklet frame, and the same local history occurs
# with different ids.  A crash root, a scripted-detector root (``d``
# changes mid-run, at different ticks on different paths) and a
# symmetry root (cached units are relabeled at assembly).
CASES += [
    pytest.param(ExploreCase(target="register", n=3, depth=5), {}, id="register3"),
    pytest.param(
        ExploreCase(target="register", n=3, depth=5, crashes=((2, 3),)),
        {},
        id="register3-crash",
    ),
    pytest.param(
        ExploreCase(
            target="paxos",
            n=2,
            depth=6,
            assignment=(("script", ("os", 0, (0, 1)), ("os", 1, (0, 1))),) * 2,
        ),
        {},
        id="paxos-script",
    ),
    pytest.param(
        ExploreCase(target="nbac", n=3, depth=5), {"symmetry": True}, id="nbac3-symmetry"
    ),
]


@pytest.mark.parametrize("case, options", CASES)
def test_naive_and_incremental_digests_byte_identical(case, options):
    naive_log, incr_log = [], []
    naive = explore_case(
        case,
        ExploreOptions(fingerprint_mode="naive", **options),
        digest_log=naive_log,
    )
    incr = explore_case(
        case,
        ExploreOptions(fingerprint_mode="incremental", **options),
        digest_log=incr_log,
    )
    assert naive_log, "no digests collected — dedup never ran"
    assert naive_log == incr_log
    assert naive.runs == incr.runs and naive.states == incr.states
    assert naive.dedup_hits == incr.dedup_hits
    assert naive.decision_vectors == incr.decision_vectors
    assert (
        naive.counters.explore_opaque_tokens
        == incr.counters.explore_opaque_tokens
    )
    # The caches must actually have saved encoder work, not just agreed.
    assert incr.counters.explore_fp_nodes < naive.counters.explore_fp_nodes


def test_removed_mode_is_refused_by_name():
    # Neither accepted-and-ignored nor silently degraded: both entry
    # points name the two modes there are.
    assert FingerprintEngine.MODES == ("incremental", "naive")
    for mode in ("legacy", "native"):
        with pytest.raises(ValueError, match="'incremental', 'naive'"):
            ExploreOptions(fingerprint_mode=mode)
        with pytest.raises(ValueError, match="'incremental', 'naive'"):
            FingerprintEngine(3, mode=mode)


class TestEncoder:
    def test_deterministic_and_discriminating(self):
        value = {"a": (1, 2), "b": {3, 4}, "c": None}
        assert _Encoder(2).enc(value) == _Encoder(2).enc(value)
        assert _Encoder(2).enc({"a": 1}) != _Encoder(2).enc({"a": 2})

    def test_bool_is_not_an_ambiguous_int(self):
        enc = _Encoder(2)
        data = enc.enc((True, False, 1))
        assert enc.ambig == {1}
        # And True must not encode like 1 (True == 1 in Python).
        assert _Encoder(2).enc((True,)) != _Encoder(2).enc((1,))
        assert data

    def test_out_of_range_ints_are_unambiguous(self):
        enc = _Encoder(2)
        enc.enc((5, -1, 0))
        assert enc.ambig == {0}

    def test_undecomposable_objects_flag_opaque(self):
        enc = _Encoder(2)
        enc.enc(object())
        assert enc.opaque
        # Opaque encodings are deterministic (the nonce that prevents
        # merging is appended at assembly, keyed on run and tick) —
        # that is what keeps naive and incremental byte-identical.
        assert _Encoder(2).enc(object()) == _Encoder(2).enc(object())
