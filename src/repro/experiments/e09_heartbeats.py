"""E9 — heartbeat detectors: stabilisation vs irreducibility.

Two series:

* under benign timing (narrow uniform delays) the heartbeat
  implementations of Ω, FS and P all satisfy their specs — eventual
  detectors are *implementable* under partial synchrony;
* under heavy-tailed delays, shrinking the timeout trades detection
  latency against forged suspicions: the perpetual-accuracy detectors
  (FS, P) break, Ω (eventual accuracy) self-heals via adaptive
  timeouts.  The executable reason FS stays an oracle in (Ψ, FS).
"""

from __future__ import annotations

from typing import List

from repro.core.failure_pattern import FailurePattern
from repro.ex_nihilo.fs_heartbeat import FSFromHeartbeats
from repro.ex_nihilo.omega_heartbeat import OmegaFromHeartbeats
from repro.ex_nihilo.perfect_synchronous import PerfectFromTimeouts
from repro.experiments.common import ExperimentResult, experiment, verdict_cell
from repro.experiments.hooks import (
    annotation_check,
    probe_factory,
    safety_broken,
)
from repro.runner import Campaign, call, run_spec
from repro.sim.network import SpikeDelay, UniformDelay

_IMPLS = {
    "omega-impl": OmegaFromHeartbeats,
    "fs-impl": FSFromHeartbeats,
    "p-impl": PerfectFromTimeouts,
}


def _impl_factory(name, kwargs_items):
    maker = _IMPLS[name]
    kwargs = dict(kwargs_items)
    return lambda pid: maker(**kwargs)


def case_spec(name, checker, kwargs, delays, pattern, seed, horizon=25_000):
    # FS and P runs end at their first accuracy violation: the verdict
    # is settled there, and the rest of the horizon cannot change it.
    stop = None if checker == "omega" else call(safety_broken, checker, "h")
    return run_spec(
        n=3,
        seed=seed,
        horizon=horizon,
        pattern=pattern,
        delay_model=delays,
        components=[
            (name, call(_impl_factory, name, tuple(sorted(kwargs.items())))),
            ("probe", call(probe_factory, name, "h")),
        ],
        stop=stop,
        summarize=call(annotation_check, checker, "h"),
        tags={"probe_seed": seed},
    )


_BENIGN = UniformDelay(1, 5)
_HOSTILE = SpikeDelay(base_hi=5, spike_hi=400, spike_probability=0.05)
_CRASH = FailurePattern(3, {2: 400})
_CLEAN = FailurePattern.crash_free(3)

#: One table row each: (label, implementation kwargs, checker,
#: implementation, delays, pattern, timeout, spec expected to hold).
CASES = [
    ("Omega/hb", {}, "omega", "omega-impl", _BENIGN, _CRASH, 60, True),
    ("Omega/hb", {"initial_timeout": 20}, "omega", "omega-impl",
     _HOSTILE, _CLEAN, 20, True),
    ("FS/hb", {"initial_timeout": 200}, "fs", "fs-impl",
     _BENIGN, _CRASH, 200, True),
    ("FS/hb", {"initial_timeout": 15}, "fs", "fs-impl",
     _HOSTILE, _CLEAN, 15, False),
    ("P/hb", {"timeout": 250}, "perfect", "p-impl",
     _BENIGN, _CRASH, 250, True),
    ("P/hb", {"timeout": 12}, "perfect", "p-impl",
     _HOSTILE, _CLEAN, 12, False),
]


def case_specs(case, seed):
    """The runs of one row.  A positive case is one cell; a negative
    (forgery) case is probabilistic, so it fans out over a handful of
    probe seeds and counts as expected if *any* seed breaks the spec."""
    label, kwargs, checker, name, delays, pattern, timeout, expect_ok = case
    seeds = [seed] if expect_ok else range(seed, seed + 6)
    return [
        case_spec(name, checker, kwargs, delays, pattern, s) for s in seeds
    ]


@experiment("E9")
def run(seed: int = 0) -> ExperimentResult:
    headers = [
        "detector", "timing", "timeout", "crashes", "spec holds",
        "as expected",
    ]
    rows: List[list] = []
    ok = True
    specs = [case_specs(case, seed) for case in CASES]
    jobs = [spec for row in specs for spec in row]
    summaries = iter(Campaign(jobs, name="E9").run().summaries)
    for case, row in zip(CASES, specs):
        label, kwargs, checker, name, delays, pattern, timeout, expect_ok = case
        verdicts = [next(summaries).metrics["ok"] for _ in row]
        if expect_ok:
            holds = verdicts[0]
            expected = holds
        else:
            broken = not all(verdicts)
            holds = not broken
            expected = broken
        ok = ok and expected
        rows.append(
            [
                label,
                "benign" if delays is _BENIGN else "spiky",
                timeout,
                len(pattern.faulty),
                verdict_cell(bool(holds)),
                verdict_cell(expected),
            ]
        )

    return ExperimentResult(
        experiment_id="E9",
        title="Heartbeat implementations: partial synchrony giveth, "
        "asynchrony taketh away (n=3)",
        headers=headers,
        rows=rows,
        ok=ok,
        notes=[
            "Perpetual-accuracy detectors (FS, P) forge outputs under delay "
            "spikes with tight timeouts; Omega's eventual accuracy "
            "self-heals by doubling timeouts.",
        ],
    )
