"""Tests for trace export."""

import json

import pytest

from repro.consensus.interface import consensus_component
from repro.consensus.paxos import OmegaSigmaConsensusCore
from repro.core.detectors import omega_sigma_oracle
from repro.core.failure_pattern import FailurePattern
from repro.sim.export import trace_to_dict, trace_to_json
from repro.sim.system import SystemBuilder, decided


def _sample_trace(mode="full"):
    proposals = {p: f"v{p}" for p in range(3)}
    return (
        SystemBuilder(n=3, seed=5, horizon=40_000)
        .trace_mode(mode)
        .pattern(FailurePattern(3, {2: 80}))
        .detector(omega_sigma_oracle())
        .component(
            "consensus",
            consensus_component(lambda pid: OmegaSigmaConsensusCore(proposals[pid])),
        )
        .build()
        .run(stop_when=decided("consensus"))
    )


class TestExport:
    def test_roundtrips_through_json(self):
        trace = _sample_trace()
        text = trace_to_json(trace)
        data = json.loads(text)
        assert data["pattern"]["n"] == 3
        assert data["pattern"]["crash_times"] == {"2": 80}
        assert data["stop_reason"] == "stop-condition"
        assert data["decisions"]
        assert all(isinstance(d["value"], str) for d in data["decisions"])

    def test_steps_are_opt_in(self):
        trace = _sample_trace()
        assert "steps" not in trace_to_dict(trace)
        data = trace_to_dict(trace, include_steps=True)
        assert len(data["steps"]) == data["step_count"]
        delivered = [s for s in data["steps"] if s["message"] is not None]
        assert delivered, "some step received a message"
        json.dumps(data)  # fully serialisable

    def test_detector_samples_are_opt_in(self):
        trace = _sample_trace()
        data = trace_to_dict(trace, include_detector_samples=True)
        assert set(data["detector_samples"]) == {"0", "1", "2"}
        json.dumps(data)

    @pytest.mark.parametrize("mode", ["full", "lite"])
    def test_step_count_is_the_run_steps_in_every_trace_mode(self, mode):
        trace = _sample_trace(mode)
        data = trace_to_dict(trace)
        assert data["step_count"] == trace.step_count() > 0
        assert data["step_count"] == _sample_trace("full").step_count()

    @pytest.mark.parametrize(
        "opt_in", ["include_steps", "include_detector_samples"]
    )
    def test_a_lite_trace_refuses_what_it_did_not_retain(self, opt_in):
        # An empty list would read as "the run took no steps".
        with pytest.raises(ValueError, match="full-mode trace"):
            trace_to_dict(_sample_trace("lite"), **{opt_in: True})

    def test_sets_render_sorted(self):
        from repro.sim.export import _render

        assert _render(frozenset({3, 1, 2})) == [1, 2, 3]
        assert _render({"k": (1, frozenset({2}))}) == {"k": [1, [2]]}
