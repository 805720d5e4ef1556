"""Differential tests: the compiled core vs its pure-Python references.

The native extension's entire contract is *bit-indistinguishability*:
``repro._native._core.Encoder`` must produce the same bytes — and the
same ``ambig`` / ``opaque`` / ``nodes`` side effects — as
:class:`repro.explore.state._Encoder` on every value either can see,
including the adversarial corners (big ints, nan, surrogates, cycles,
over-depth nesting, live generator frames, detector-script cursors).

Hypothesis drives the value space; a hand-picked corpus pins the
corners random generation is unlikely to hit.  The whole module skips
cleanly when the extension is not built (or ``REPRO_NATIVE=0``), so the
forced-pure CI leg stays green.
"""

from random import Random

import pytest

from repro import _native
from repro.explore.state import _Encoder

pytestmark = pytest.mark.skipif(
    not _native.available(),
    reason=f"native core unavailable: {_native.reason()}",
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


# ---------------------------------------------------------------------------
# Value strategies


def _slots_obj(a, b):
    class SlotState:
        __slots__ = ("a", "b")

        def __init__(self):
            self.a = a
            self.b = b

    return SlotState()


def _dict_obj(attrs):
    class DictState:
        pass

    obj = DictState()
    obj.__dict__.update(attrs)
    return obj


def _skip_attr_obj(payload):
    """Attributes in _SKIP_ATTRS must be elided identically."""
    obj = _dict_obj({"state": payload})
    obj._network = object()  # skipped
    obj.ctx = object()  # skipped
    return obj


def _gen_pair(k):
    """A live and an exhausted generator over the same code object."""

    def tasklet(limit):
        acc = 0
        for i in range(limit):
            acc += i
            yield acc

    live = tasklet(k + 2)
    next(live)
    dead = tasklet(1)
    for _ in dead:
        pass
    return live, dead


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.binary(max_size=12),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(_scalars, max_size=4).map(
            lambda xs: {s for s in xs if _hashable(s)}
        ),
        st.dictionaries(
            st.one_of(st.integers(), st.text(max_size=6)), children, max_size=4
        ),
        st.builds(_slots_obj, children, children),
        st.dictionaries(st.text(max_size=6), children, max_size=3).map(
            _dict_obj
        ),
    ),
    max_leaves=25,
)


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _encode_both(values, n=3):
    """Encode the same sequence on both encoders, one instance each.

    Sequencing matters: ambig/opaque/nodes accumulate across calls (the
    fingerprint engine's ``_unit`` protocol depends on it), so a shared
    instance per side exercises the stateful contract, not just one-shot
    encoding.
    """
    py = _Encoder(n)
    nat = _native.encoder_class()(n)
    for value in values:
        got_py = py.enc(value)
        got_nat = nat.enc(value)
        assert got_py == got_nat, value
    assert py.ambig == nat.ambig
    assert py.opaque == nat.opaque
    assert py.nodes == nat.nodes


@settings(max_examples=120, deadline=None)
@given(st.lists(_values, min_size=1, max_size=4))
def test_encoder_byte_identical_on_random_values(values):
    _encode_both(values)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.lists(_scalars, max_size=6))
def test_encoder_ambig_tracking_matches_for_every_n(n, values):
    _encode_both(values, n=n)


def test_encoder_corner_corpus():
    live, dead = _gen_pair(3)
    rng = Random(42)
    rng.random()
    cycle = []
    cycle.append(cycle)
    deep = value = []
    for _ in range(60):  # beyond _MAX_DEPTH → opaque on both sides
        inner = []
        value.append(inner)
        value = inner
    corpus = [
        (True, False, 1, 0, -1, 2**80, -(2**80)),
        (float("nan"), float("inf"), -0.0, 1e-309),
        "\udcff surrogate \x00",
        b"\x00\xff",
        {"k": {1, 2, frozenset({3})}},
        cycle,
        deep,
        _slots_obj(1, (2, 3)),
        _skip_attr_obj({"x": 1}),
        _dict_obj({"self": "kept-in-dicts", "y": 2}),
        live,
        dead,
        rng,
        lambda x: x + 1,
        rng.shuffle,  # bound method
        object(),  # opaque
    ]
    _encode_both(corpus)


def test_encoder_save_restore_protocol():
    """FingerprintEngine._unit saves/restores ambig and opaque by
    attribute assignment — the native getsets must round-trip that."""
    nat = _native.encoder_class()(4)
    nat.enc((1, 2, object()))
    assert nat.ambig == {1, 2} and nat.opaque
    saved_ambig, saved_opaque = nat.ambig, nat.opaque
    nat.ambig = set()
    nat.opaque = False
    nat.enc((3,))
    assert nat.ambig == {3} and not nat.opaque
    nat.ambig = saved_ambig
    nat.opaque = saved_opaque
    assert nat.ambig == {1, 2} and nat.opaque


def _pure_unit(py, build):
    """The exact FingerprintEngine._unit protocol on the pure encoder."""
    saved_ambig, saved_opaque = py.ambig, py.opaque
    py.ambig, py.opaque = set(), False
    data = build(py)
    unit = (data, frozenset(py.ambig), py.opaque)
    py.ambig, py.opaque = saved_ambig, saved_opaque
    return unit


def _mask_to_set(mask):
    return {bit for bit in range(mask.bit_length()) if mask >> bit & 1}


@settings(max_examples=80, deadline=None)
@given(_values, _values, st.booleans())
def test_unit_builders_match_pure_unit_protocol(a, b, postcrash):
    """enc_pair / enc_decision against the _unit save/encode/restore
    cycle they replace, including accumulator isolation: the outer
    accumulators must be untouched by the unit crossing."""
    py = _Encoder(3)
    nat = _native.encoder_class()(3)
    py.enc((0, 1, 2))  # dirty the outer accumulators on both sides
    nat.enc((0, 1, 2))

    data_p, ambig_p, opaque_p = _pure_unit(
        py, lambda enc: enc.enc(a) + enc.enc(b)
    )
    data_n, mask_n, opaque_n = nat.enc_pair(a, b)
    assert data_p == data_n
    assert ambig_p == _mask_to_set(mask_n)
    assert opaque_p == opaque_n

    data_p, ambig_p, opaque_p = _pure_unit(
        py,
        lambda enc: enc.enc(a) + enc.enc(b) + (b"T;" if postcrash else b"F;"),
    )
    data_n, mask_n, opaque_n = nat.enc_decision(a, b, postcrash)
    assert data_p == data_n
    assert ambig_p == _mask_to_set(mask_n)
    assert opaque_p == opaque_n

    assert py.ambig == nat.ambig == {0, 1, 2}
    assert py.opaque == nat.opaque


@settings(max_examples=60, deadline=None)
@given(
    _values,
    _values,
    st.integers(min_value=0, max_value=10**6),
    st.none() | st.integers(min_value=0, max_value=10**6),
    _values,
)
def test_enc_operation_matches_pure_unit_protocol(
    args, result, invoke, response, component
):
    py = _Encoder(3)
    nat = _native.encoder_class()(3)
    data_p, ambig_p, opaque_p = _pure_unit(
        py,
        lambda enc: (
            enc.enc(component)
            + enc.enc("kind")
            + enc.enc(args)
            + b"@%d;" % invoke
            + (b"@%d;" % response if response is not None else b"N;")
            + enc.enc(result)
        ),
    )
    data_n, mask_n, opaque_n = nat.enc_operation(
        component, "kind", args, invoke, response, result
    )
    assert data_p == data_n
    assert ambig_p == _mask_to_set(mask_n)
    assert opaque_p == opaque_n


@settings(max_examples=60, deadline=None)
@given(
    st.booleans(),
    st.lists(st.tuples(st.text(max_size=5), _values), max_size=3),
    st.lists(st.tuples(st.booleans(), _values, _values), max_size=3),
)
def test_enc_host_matches_pure_unit_protocol(started, items, tasks):
    py = _Encoder(3)
    nat = _native.encoder_class()(3)

    def build(enc):
        parts = [b"H", b"T;" if started else b"F;"]
        for name, comp in items:
            parts.append(enc.enc(name))
            parts.append(enc.enc(comp))
        parts.append(b"|")
        for task_started, wait, gen in tasks:
            parts.append(b"t")
            parts.append(b"T;" if task_started else b"F;")
            parts.append(enc.enc(wait))
            parts.append(enc.enc(gen))
        return b"".join(parts)

    data_p, ambig_p, opaque_p = _pure_unit(py, build)
    data_n, mask_n, opaque_n = nat.enc_host(started, items, tasks)
    assert data_p == data_n
    assert ambig_p == _mask_to_set(mask_n)
    assert opaque_p == opaque_n


def test_unit_builders_feed_counters():
    nat = _native.encoder_class()(3)
    data, _, _ = nat.enc_pair("a", (1, 2))
    assert nat.calls == 2
    assert nat.bytes_encoded == len(data)
    data2, _, _ = nat.enc_operation("c", "read", (), 4, None, "ok")
    assert nat.calls == 6
    assert nat.bytes_encoded == len(data) + len(data2)


def test_encoder_counters_sync_fields():
    nat = _native.encoder_class()(2)
    out = nat.enc((1, "a"))
    assert nat.calls == 1
    assert nat.bytes_encoded == len(out)
    out2 = nat.enc(None)
    assert nat.calls == 2
    assert nat.bytes_encoded == len(out) + len(out2)


# ---------------------------------------------------------------------------
# Whole-search digest identity (cursors and symmetry included)


EXPLORE_CASES = [
    ("nbac", dict(target="nbac", n=2, depth=5, seed=1), "auto"),
    (
        "redcommit-script",
        dict(
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
        None,
    ),
]


@pytest.mark.parametrize(
    "kwargs,symmetry",
    [c[1:] for c in EXPLORE_CASES],
    ids=[c[0] for c in EXPLORE_CASES],
)
def test_native_mode_digest_log_identical(kwargs, symmetry):
    from repro.explore import ExploreCase, ExploreOptions, explore_case

    case = ExploreCase(**kwargs)
    logs, outcomes = {}, {}
    for mode in ("naive", "incremental", "native"):
        log = []
        result = explore_case(
            case,
            ExploreOptions(fingerprint_mode=mode, symmetry=symmetry),
            digest_log=log,
        )
        logs[mode] = log
        outcomes[mode] = (
            result.runs,
            result.states,
            result.dedup_hits,
            frozenset(result.decision_vectors),
            result.counters.explore_opaque_tokens,
        )
    assert logs["native"] == logs["incremental"] == logs["naive"]
    assert outcomes["native"] == outcomes["incremental"] == outcomes["naive"]


def test_native_mode_counters_flow():
    from repro.explore import ExploreCase, ExploreOptions, explore_case

    result = explore_case(
        ExploreCase(target="ct", n=2, depth=5),
        ExploreOptions(fingerprint_mode="native"),
    )
    assert result.counters.explore_native_calls > 0
    assert result.counters.native_encode_bytes > 0
    pure = explore_case(
        ExploreCase(target="ct", n=2, depth=5),
        ExploreOptions(fingerprint_mode="incremental"),
    )
    assert pure.counters.explore_native_calls == 0
    assert pure.counters.native_encode_bytes == 0


def test_native_mode_degrades_when_n_exceeds_mask():
    """n > 64 exceeds the C ambig bitmask; the engine silently keeps
    the pure encoder and the digests stay incremental-identical."""
    from repro.explore.state import FingerprintEngine

    engine = FingerprintEngine(65, "native")
    assert not engine.native
    assert isinstance(engine._encoder, _Encoder)
