"""The value encoder under the dedup key, at its corners.

``_Encoder`` is the one place a protocol state is written down, so its
mistakes are wrong merges.  The whole-search suites only feed it what
the bundled targets hold; this module feeds it the values they do not:
cycles, nesting beyond ``_MAX_DEPTH``, surrogate strings, NaN and
−0.0, ``__slots__`` objects, ``_SKIP_ATTRS``, live and exhausted
generators, ``Random``, lambdas, bound methods and a bare ``object()``.
Hypothesis drives the value space; a hand-picked corpus pins the
corners random generation is unlikely to hit.
"""

from random import Random

import pytest

from repro.explore.state import EncodedUnit, FingerprintEngine, _Encoder

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
    """Carries two attributes of ``_SKIP_ATTRS``, both undecomposable."""
    obj = _dict_obj({"state": payload})
    obj._network = object()
    obj.ctx = object()
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


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


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


def _encode_twice(values, n=3):
    """Encode the same sequence on two fresh encoders, one instance
    each: ambig/opaque/nodes accumulate across calls (the fingerprint
    engine's ``_unit`` protocol depends on it), so the whole stateful
    contract must repeat, not just one-shot bytes."""
    first, second = _Encoder(n), _Encoder(n)
    data = []
    for value in values:
        data.append(first.enc(value))
        assert second.enc(value) == data[-1], value
    assert first.ambig == second.ambig
    assert first.opaque == second.opaque
    assert first.nodes == second.nodes
    return first, data


@settings(max_examples=120, deadline=None)
@given(st.lists(_values, min_size=1, max_size=4))
def test_two_fresh_encoders_agree_on_random_values(values):
    encoder, _ = _encode_twice(values)
    # Everything the strategies build can be decomposed.
    assert not encoder.opaque


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.one_of(st.integers(), st.text(max_size=6)), _values, max_size=5
    )
)
def test_a_mapping_is_encoded_whatever_its_insertion_order(mapping):
    backwards = dict(reversed(list(mapping.items())))
    assert _Encoder(3).enc(mapping) == _Encoder(3).enc(backwards)
    assert _Encoder(3).enc(_dict_obj(mapping)) == _Encoder(3).enc(
        _dict_obj(backwards)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.lists(_scalars, max_size=6))
def test_ambiguity_is_exactly_the_untagged_ints_below_n(n, values):
    encoder, _ = _encode_twice(values, n=n)
    assert encoder.ambig == {
        v for v in values if type(v) is int and 0 <= v < n
    }


def test_tagged_positions_stay_out_of_the_ambiguity_set():
    """Wait counters, instruction offsets and line numbers go through
    branches of their own: a small one is not a pid reference."""
    from repro.sim.tasklets import WaitSteps

    live, _ = _gen_pair(0)
    for n in range(1, 65):
        encoder = _Encoder(n)
        encoder.enc((WaitSteps(1), live, lambda: None, True, False))
        # ``live`` holds limit=2, acc=0, i=0 in its frame: untagged locals.
        assert encoder.ambig == {v for v in (0, 2) if v < n}, n
        encoder.enc(tuple(range(-2, 70)))
        assert encoder.ambig == set(range(n))


def _corpus():
    live, dead = _gen_pair(3)
    rng = Random(42)
    rng.random()
    cycle = []
    cycle.append(cycle)
    deep = value = []
    for _ in range(60):  # beyond _MAX_DEPTH
        inner = []
        value.append(inner)
        value = inner
    decomposable = [
        (True, False, 1, 0, -1, 2**80, -(2**80)),
        (float("nan"), float("inf"), -0.0, 1e-309),
        (0.0,),
        (-0.0,),
        "\udcff surrogate \x00",
        b"\x00\xff",
        {"k": {1, 2, frozenset({3})}},
        cycle,
        _slots_obj(1, (2, 3)),
        _skip_attr_obj({"x": 1}),
        _dict_obj({"self": "kept-in-dicts", "y": 2}),
        live,
        dead,
        rng,
        lambda x: x + 1,
        rng.shuffle,  # bound method
    ]
    return decomposable, [deep, object()]


def test_encoder_corner_corpus():
    """``opaque`` is set by a value without ``__dict__`` / ``__slots__``
    or past ``_MAX_DEPTH`` — reached anywhere inside — and by nothing
    else, however odd."""
    decomposable, undecomposable = _corpus()
    encoder, data = _encode_twice(decomposable)
    assert not encoder.opaque  # sticky: not one of them set it
    # Distinct values, distinct bytes — 0.0 and −0.0 included.
    assert len(set(data)) == len(data)
    for value in undecomposable:
        encoder, _ = _encode_twice([(1, [value])])
        assert encoder.opaque, value


def test_skip_attrs_are_elided_and_self_only_from_frames():
    payload = {"x": 1}
    encoder = _Encoder(3)
    assert encoder.enc(_skip_attr_obj(payload)) == _Encoder(3).enc(
        _dict_obj({"state": payload})
    )
    assert not encoder.opaque  # the two object() were never visited
    assert b"kept-in-dicts" in _Encoder(3).enc(
        _dict_obj({"self": "kept-in-dicts"})
    )

    class Owner:
        def tasklet(self):
            yield self

    running = Owner().tasklet()
    next(running)
    assert b"Owner" not in _Encoder(3).enc(running).replace(
        b"Owner.tasklet", b""
    )


def test_a_generator_is_its_code_position_and_locals():
    live, dead = _gen_pair(3)
    before = _Encoder(3).enc(live)
    next(live)
    assert _Encoder(3).enc(live) != before
    other, _ = _gen_pair(3)  # same code, same position, same locals
    assert _Encoder(3).enc(other) == before
    assert _Encoder(3).enc(dead).startswith(b"gX")

    def two_stops():
        yield
        yield

    first, second = two_stops(), two_stops()
    next(first), next(second), next(second)
    # No locals at all: only the instruction offset tells them apart.
    assert _Encoder(3).enc(first) != _Encoder(3).enc(second)


def test_unit_protocol_isolates_the_accumulators():
    """``FingerprintEngine._unit`` swaps ``ambig`` / ``opaque`` out by
    attribute assignment around one build, so a cached unit carries its
    own and the encoder's are what they were."""
    engine = FingerprintEngine(4)
    outer = engine._encoder
    outer.enc((1, 2, object()))
    assert outer.ambig == {1, 2} and outer.opaque
    unit = engine._unit(lambda enc: enc.enc((3,)))
    assert unit == EncodedUnit(b"(i3;)", frozenset({3}), False)
    assert outer.ambig == {1, 2} and outer.opaque

    clean = FingerprintEngine(4)
    unit = clean._unit(lambda enc: enc.enc(object()))
    assert unit.opaque and unit.ambiguous == frozenset()
    assert not clean._encoder.opaque and clean._encoder.ambig == set()


@settings(max_examples=80, deadline=None)
@given(_values, _values)
def test_a_unit_is_what_a_fresh_encoder_produces(a, b):
    engine = FingerprintEngine(3)
    engine._encoder.enc((0, 1, 2))  # dirty the outer accumulators
    unit = engine._unit(lambda enc: enc.enc(a) + enc.enc(b))
    fresh = _Encoder(3)
    assert unit == EncodedUnit(
        fresh.enc(a) + fresh.enc(b), frozenset(fresh.ambig), fresh.opaque
    )
    assert engine._encoder.ambig == {0, 1, 2} and not engine._encoder.opaque


def test_the_native_module_is_the_benchmark_adapter_s_stub():
    """``e2e_bench/adapters.py`` (frozen) imports ``repro._native`` and
    calls ``available()``; there is nothing else to find there."""
    import ast
    import inspect

    from repro import _native

    assert _native.available() is False
    assert [name for name in vars(_native) if not name.startswith("_")] == [
        "available"
    ]
    assert _native.__all__ == ["available"]
    assert not [
        node
        for node in ast.walk(ast.parse(inspect.getsource(_native)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
