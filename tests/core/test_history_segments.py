"""Histories as lazily walked constant segments.

The representation is checked against the pointwise definition of
``H(p, t)``, not against itself:

* every oracle and reduction, read in any order on one history, agrees
  with *cold* point reads (a fresh history per query, so no current
  segment can have been carried over), and every segment it hands out
  is constant per those cold reads;
* ``tests/data/detector-streams.json`` — written by the per-tick code
  this representation replaced — pins the generators to the old streams;
* a counting ``segment_fn`` shows what the walk saves;
* a lite trace and a full trace of one spec are the same run, and only
  the full one samples the detector on its own account.
"""

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.detectors import (
    EventuallyPerfectOracle,
    EventuallyStrongOracle,
    FSOracle,
    MajoritySigmaOracle,
    OmegaOracle,
    PerfectOracle,
    ProductOracle,
    PsiOracle,
    SigmaOracle,
    StrongOracle,
    omega_sigma_oracle,
)
from repro.core.detectors.psi import FS_BRANCH, OMEGA_SIGMA_BRANCH
from repro.core.failure_pattern import FailurePattern
from repro.core.history import FailureDetectorHistory, product_history
from repro.core.reductions import (
    fs_from_perfect,
    omega_from_eventually_perfect,
    psi_from_omega_sigma,
    psi_fs_from_psi_and_fs,
    sigma_from_perfect,
)
from repro.runner import call, run_spec
from repro.sim.network import ConstantDelay
from repro.sim.perf import PerfCounters
from repro.sim.process import Component
from repro.sim.system import System

from tests.core.detector_streams import STREAMS_PATH, stream_digests
from tests.runner import helpers

# ----------------------------------------------------------------------
# (a) any read order == cold point reads; segments are constant
# ----------------------------------------------------------------------
flags = st.booleans()
periods = st.sampled_from([1, 2, 5, 7])
spans = st.sampled_from([None, 0, 10_000])
delays = st.integers(0, 60)

psi_oracles = st.builds(
    PsiOracle,
    branch=st.sampled_from([None, FS_BRANCH, OMEGA_SIGMA_BRANCH]),
    max_switch_delay=delays,
    noisy=flags,
)
omega_sigma_oracles = st.builds(
    omega_sigma_oracle,
    noisy=flags,
    churn_period=periods,
    reshuffle_period=periods,
    stabilization_span=spans,
)
oracles = st.one_of(
    st.builds(OmegaOracle, noisy=flags, churn_period=periods, stabilization_span=spans),
    st.builds(
        SigmaOracle, noisy=flags, reshuffle_period=periods, stabilization_span=spans
    ),
    st.builds(MajoritySigmaOracle),
    st.builds(FSOracle, max_detection_delay=delays, flicker=flags),
    st.builds(PerfectOracle, max_detection_delay=delays),
    st.builds(EventuallyPerfectOracle),
    st.builds(StrongOracle, noisy=flags),
    st.builds(EventuallyStrongOracle, noisy=flags),
    psi_oracles,
    omega_sigma_oracles,
    st.builds(ProductOracle, psi_oracles, st.builds(FSOracle, flicker=flags)),
)


def sampled(oracle):
    """A history source: the oracle's sample for ``(pattern, horizon, seed)``."""
    return lambda pattern, horizon, seed: oracle.build_history(
        pattern, horizon, random.Random(seed)
    )


def reduced(reduction, *oracles_):
    """A history source: ``reduction`` over samples of ``oracles_``."""
    return lambda pattern, horizon, seed: reduction(
        *(
            oracle.build_history(pattern, horizon, random.Random(seed + i))
            for i, oracle in enumerate(oracles_)
        )
    )


sources = st.one_of(
    oracles.map(sampled),
    st.builds(reduced, st.just(sigma_from_perfect), st.builds(PerfectOracle)),
    st.builds(reduced, st.just(fs_from_perfect), st.builds(PerfectOracle)),
    st.builds(
        reduced,
        st.just(omega_from_eventually_perfect),
        st.builds(EventuallyPerfectOracle),
    ),
    st.builds(
        reduced,
        st.integers(0, 80).map(
            lambda switch: lambda h: psi_from_omega_sigma(h, switch_time=switch)
        ),
        omega_sigma_oracles,
    ),
    st.builds(
        reduced, st.just(psi_fs_from_psi_and_fs), psi_oracles, st.builds(FSOracle)
    ),
)


@st.composite
def patterns(draw):
    n = draw(st.integers(2, 5))
    victims = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return FailurePattern(n, {v: draw(st.integers(0, 70)) for v in victims})


@settings(max_examples=150, deadline=None)
@given(
    source=sources,
    pattern=patterns(),
    horizon=st.integers(90, 160),
    seed=st.integers(0, 2**32),
    shuffle=st.randoms(use_true_random=False),
)
def test_any_read_order_equals_cold_point_reads(
    source, pattern, horizon, seed, shuffle
):
    try:
        warm = source(pattern, horizon, seed)
    except ValueError:
        # Majority-Σ without a correct majority, Ψ's FS branch without
        # a crash: the oracle rightly refuses the pattern.
        assume(False)
    reads = [(pid, t) for pid in range(pattern.n) for t in range(horizon + 1)]
    cold = {
        (pid, t): source(pattern, horizon, seed).value(pid, t) for pid, t in reads
    }

    assert {read: warm.value(*read) for read in reads} == cold
    assert {read: warm.value(*read) for read in reversed(reads)} == cold
    shuffle.shuffle(reads)
    assert {read: warm.value(*read) for read in reads} == cold

    for pid, t in reads:
        start, end, value = warm.segment(pid, t)
        assert 0 <= start <= t < end
        for u in range(start, min(end, horizon)):
            assert cold[(pid, u)] == value, (pid, t, (start, end), u)


# ----------------------------------------------------------------------
# (b) the streams of the per-tick generators
# ----------------------------------------------------------------------
def test_oracle_streams_match_the_pre_segment_generators():
    committed = json.loads(STREAMS_PATH.read_text())
    assert stream_digests() == committed


# ----------------------------------------------------------------------
# (c) what the walk evaluates
# ----------------------------------------------------------------------
class TestCurrentSegment:
    @staticmethod
    def _decades(calls):
        def segment_fn(pid, t):
            calls.append((pid, t))
            start = t - t % 10
            return (start, start + 10, (pid, start))

        return segment_fn

    def test_in_order_sweep_evaluates_once_per_segment(self):
        calls = []
        h = FailureDetectorHistory(2, 100, self._decades(calls))
        h.perf = PerfCounters()
        for t in range(100):
            for pid in (0, 1):
                assert h.value(pid, t) == (pid, t - t % 10)
        assert calls == [(pid, start) for start in range(0, 100, 10) for pid in (0, 1)]
        assert h.perf.detector_value_calls == 200
        assert h.perf.detector_cache_hits == 180

    @pytest.mark.parametrize(
        "oracle",
        [SigmaOracle(), PsiOracle(), omega_sigma_oracle()],
        ids=["Sigma", "Psi", "OmegaSigma"],
    )
    def test_in_order_sweep_of_an_oracle_hits_more_than_it_evaluates(self, oracle):
        """Every tick of every process, in time order — what a run
        reads — asks the oracle for fewer than half of the reads."""
        h = oracle.build_history(FailurePattern(4, {3: 100}), 2_000, random.Random(1))
        h.perf = PerfCounters()
        for t in range(2_000):
            for pid in range(4):
                h.value(pid, t)
        evaluations = h.perf.detector_value_calls - h.perf.detector_cache_hits
        assert h.perf.detector_value_calls == 4 * 2_000
        assert evaluations < h.perf.detector_value_calls / 2

    def test_same_tick_reread_evaluates_nothing(self):
        calls = []
        h = FailureDetectorHistory(1, 100, self._decades(calls))
        first = h.value(0, 37)
        assert calls == [(0, 37)]
        assert h.value(0, 37) == first
        assert h.segment(0, 37) == (30, 40, first)
        assert h.value(0, 30) == h.value(0, 39) == first
        assert calls == [(0, 37)]

    def test_out_of_order_read_recomputes_and_is_never_wrong(self):
        calls = []
        h = FailureDetectorHistory(1, 100, self._decades(calls))
        assert h.value(0, 55) == (0, 50)
        assert h.value(0, 12) == (0, 10)
        assert h.value(0, 55) == (0, 50)
        assert calls == [(0, 55), (0, 12), (0, 55)]

    def test_samples_walk_segments(self):
        calls = []
        h = FailureDetectorHistory(1, 35, self._decades(calls))
        assert list(h.samples_of(0)) == [(t, (0, t - t % 10)) for t in range(35)]
        assert calls == [(0, 0), (0, 10), (0, 20), (0, 30)]

    def test_product_is_the_intersection_of_its_parts(self):
        def every(period):
            return lambda pid, t: (t - t % period, t - t % period + period, t // period)

        first = FailureDetectorHistory(1, 60, every(4))
        second = FailureDetectorHistory(1, 60, every(6))
        both = product_history(first, second)
        assert both.segment(0, 0) == (0, 4, (0, 0))
        assert both.segment(0, 5) == (4, 6, (1, 0))
        assert both.segment(0, 7) == (6, 8, (1, 1))
        with pytest.raises(ValueError):
            product_history(first, FailureDetectorHistory(2, 60, every(6)))
        with pytest.raises(ValueError):
            product_history(first, FailureDetectorHistory(1, 61, every(6)))


# ----------------------------------------------------------------------
# An oracle edited after build_history leaves its histories alone
# ----------------------------------------------------------------------
@pytest.mark.parametrize("oracle_cls", [EventuallyStrongOracle, StrongOracle])
def test_history_does_not_follow_later_edits_of_its_oracle(oracle_cls):
    pattern = FailurePattern(4, {3: 5})
    untouched = oracle_cls().build_history(pattern, 2000, random.Random(1))
    oracle = oracle_cls()
    edited = oracle.build_history(pattern, 2000, random.Random(1))
    oracle.noisy = False
    for t in range(1000, 2000):
        assert edited.value(0, t) == untouched.value(0, t)


# ----------------------------------------------------------------------
# (d) a lite trace is the same run, minus the samples nobody keeps
# ----------------------------------------------------------------------
class SparsePinger(Component):
    """Message-driven ring that never reads ``d``: long silences between
    deliveries, so almost every tick is a λ-step."""

    name = "ping"

    def __init__(self, hops: int = 20):
        super().__init__()
        self.hops = hops
        self.done = False

    def _finish(self):
        if not self.done:
            self.done = True
            self.decide("done")

    def on_start(self):
        if self.pid == 0:
            self.send((self.pid + 1) % self.n, ("ball", 0))

    def on_message(self, sender, payload, meta):
        if payload[0] == "done":
            self._finish()
            return
        _, hop = payload
        if hop + 1 < self.hops:
            self.send((self.pid + 1) % self.n, ("ball", hop + 1))
        else:
            self._finish()
            self.broadcast(("done",), include_self=False)


def sparse_ping_factory():
    return lambda pid: SparsePinger()


class CountedOutput(Component):
    """A detector module whose reads are counted, and who reads no ``d``."""

    name = "module"

    def __init__(self):
        super().__init__()
        self.reads = 0

    def output(self):
        self.reads += 1
        return ("module", self.pid)


def counted_output_factory():
    return lambda pid: CountedOutput()


def _run_both_modes(spec):
    runs = {}
    for mode in ("lite", "full"):
        system = System.from_spec(spec.with_(trace_mode=mode))
        system.run(stop_when=spec.resolve_stop(), grace=spec.grace)
        runs[mode] = system
    lite, full = runs["lite"].trace, runs["full"].trace
    assert lite.digest() == full.digest()
    assert lite.decisions == full.decisions
    assert [lite.step_count(p) for p in range(spec.n)] == [
        full.step_count(p) for p in range(spec.n)
    ]
    assert len(lite.steps) == 0
    assert all(lite.detector_samples.sample_count(p) == 0 for p in range(spec.n))
    assert len(full.steps) == runs["full"].perf.ticks == runs["lite"].perf.ticks
    return runs["lite"], runs["full"]


def _assert_samples_are_the_history(system):
    """Reads the history, so the perf counters move: check those first."""
    history = system.detector_history
    for pid in range(system.n):
        samples = list(system.trace.detector_samples.samples_of(pid))
        assert len(samples) == system.trace.step_count(pid)
        assert samples == [(t, history.value(pid, t)) for t, _ in samples]


class TestLiteTraceSamplesNothing:
    def test_omega_sigma_consensus(self):
        lite, full = _run_both_modes(helpers.consensus_spec(f=1))
        assert lite.trace.decisions
        # Full mode reads H once more per tick than the protocol does.
        protocol_reads = full.perf.detector_value_calls - len(full.trace.steps)
        assert 0 < protocol_reads == lite.perf.detector_value_calls
        _assert_samples_are_the_history(full)

    def test_sparse_run(self):
        spec = run_spec(
            n=3,
            seed=3,
            horizon=8_000,
            detector=omega_sigma_oracle(),
            delay_model=ConstantDelay(150),
            components=[("ping", call(sparse_ping_factory))],
        )
        lite, full = _run_both_modes(spec)
        assert lite.trace.decisions
        assert lite.perf.lambda_steps == full.perf.lambda_steps
        assert full.perf.lambda_steps > 0.9 * full.perf.ticks
        # The pinger never reads d: every read was the trace's.
        assert full.perf.detector_value_calls == len(full.trace.steps)
        assert lite.perf.detector_value_calls == 0
        _assert_samples_are_the_history(full)

    def test_detector_from_component(self):
        spec = run_spec(
            n=3,
            seed=5,
            horizon=400,
            detector_component="module",
            components=[("module", call(counted_output_factory))],
        )
        lite, full = _run_both_modes(spec)

        def reads(system):
            return sum(module.reads for module in system.components_named("module"))

        assert reads(lite) == 0
        assert reads(full) == len(full.trace.steps) == 400
        for pid in range(3):
            samples = list(full.trace.detector_samples.samples_of(pid))
            assert len(samples) == full.trace.step_count(pid)
            assert all(value == ("module", pid) for _, value in samples)
        assert lite.perf.detector_value_calls == full.perf.detector_value_calls == 0
