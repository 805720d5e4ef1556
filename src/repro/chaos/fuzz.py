"""The chaos fuzz driver: generate cases, run campaigns, judge, shrink.

One *round* of fuzzing draws, per target, a random-but-replayable
:class:`~repro.chaos.knobs.ChaosKnobs` and an in-environment crash
schedule, pins them into a :class:`~repro.chaos.targets.FuzzCase`, and
ships every case through :class:`repro.runner.Campaign` (so fuzzing
gets the hardened pool, per-job timeouts and quarantine for free).
Verdicts come from the targets' property hooks; any *safety* violation
is shrunk (:mod:`repro.chaos.shrink`) and frozen as a replayable JSON
artifact (:mod:`repro.chaos.artifact`).  Liveness misses are reported
but non-fatal: a finite horizon under heavy-but-fair chaos is allowed
to run out of time, and unfair knobs void the Termination claim
entirely.

All randomness flows through the named RNG streams of
:class:`repro.sim.rng.RngStreams`, so a (seed, round, target) triple
always regenerates the identical case.

CLI::

    python -m repro.chaos --rounds 5 --seed 0        # clean targets
    python -m repro.chaos --targets submajority      # the mutant
    python -m repro.chaos --smoke                    # CI budget
    python -m repro.chaos --replay artifact.json     # re-run a witness

``--replay`` exits 0 when the witness reproduces deterministically, 1
when it no longer does, and 2 when the file cannot be read as an
artifact.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.artifact import load_artifact, replay, write_artifact
from repro.chaos.crashes import MODES, CrashScheduleFuzzer
from repro.chaos.knobs import ChaosKnobs
from repro.chaos.shrink import shrink_case
from repro.chaos.targets import (
    CLEAN_TARGETS,
    TARGETS,
    FuzzCase,
    build_spec,
    liveness_missed,
    violated_safety,
)
from repro.core.environment import FCrashEnvironment
from repro.runner import Campaign, JobFailure
from repro.runner.config import resolve_timeout, resolve_workers
from repro.runner.pool import pool_size
from repro.sim.rng import RngStreams


def aggressive_knobs(rng: random.Random, n: int, horizon: int) -> ChaosKnobs:
    """The maximal in-spec profile: every fair dial at its limit.

    Detector churn on every step, a long singleton-or-split partition,
    heavy duplication — still a fair adversary (the partition heals),
    so correct algorithms owe safety *and* eventual decisions, while
    quorum-cheating mutants fall over quickly.  One in four generated
    cases draws this profile so it exercises the clean targets too.
    """
    # The window opens at (or moments after) t = 0: the decisive races
    # happen in the first few hundred ticks, and a partition that opens
    # later than the first decision never pressures anything.
    part_start = rng.randrange(32)
    if rng.random() < 0.5:
        groups: Tuple[Tuple[int, ...], ...] = tuple((p,) for p in range(n))
    else:
        split = rng.randint(1, n - 1)
        groups = (tuple(range(split)), tuple(range(split, n)))
    return ChaosKnobs(
        dup_probability=0.3,
        dup_max_delay=16,
        dup_max_depth=2,
        delay_hi=8,
        partition_start=part_start,
        partition_end=part_start + horizon // 2,
        partition_groups=groups,
        omega_churn_period=1,
        sigma_reshuffle_period=1,
        stabilization_span=horizon // 3,
    )


def generate_knobs(rng: random.Random, n: int, horizon: int) -> ChaosKnobs:
    """One random chaos configuration; every dial independently drawn."""
    if rng.random() < 0.25:
        return aggressive_knobs(rng, n, horizon)
    windows: List[Tuple[int, int, Tuple[int, ...]]] = []
    for _ in range(rng.choice((0, 0, 1, 2))):
        start = rng.randrange(max(1, horizon // 2))
        length = rng.randint(1, max(2, horizon // 10))
        pids = tuple(sorted(rng.sample(range(n), rng.randint(1, max(1, n - 1)))))
        windows.append((start, start + length, pids))
    burst = rng.random() < 0.3
    period = rng.randint(40, 400) if burst else 0
    partition = rng.random() < 0.3
    if partition:
        part_start = rng.randrange(max(1, horizon // 4))
        part_end = part_start + rng.randint(horizon // 20, horizon // 3)
        if rng.random() < 0.5:
            groups: Tuple[Tuple[int, ...], ...] = tuple(
                (p,) for p in range(n)
            )
        else:
            split = rng.randint(1, n - 1)
            groups = (tuple(range(split)), tuple(range(split, n)))
    else:
        part_start = part_end = 0
        groups = ()
    return ChaosKnobs(
        dup_probability=rng.choice((0.0, 0.0, 0.1, 0.3)),
        dup_max_delay=rng.randint(4, 24),
        dup_max_depth=rng.randint(1, 3),
        reorder=rng.random() < 0.2,
        burst_period=period,
        burst_len=rng.randint(1, period) if burst else 0,
        burst_extra=rng.randint(20, 200) if burst else 0,
        delay_lo=1,
        delay_hi=rng.choice((4, 8, 16)),
        starve_windows=tuple(windows),
        partition_start=part_start,
        partition_end=part_end,
        partition_groups=groups,
        omega_churn_period=rng.choice((1, 3, 7)),
        sigma_reshuffle_period=rng.choice((1, 5)),
        stabilization_span=rng.choice((0, 0, horizon // 4)),
    )


def generate_cases(
    targets: Sequence[str],
    rounds: int,
    seed: int,
    n: int,
    horizon: int,
) -> List[FuzzCase]:
    """The deterministic case list for one campaign."""
    streams = RngStreams(seed)
    cases: List[FuzzCase] = []
    for rnd in range(rounds):
        for target in targets:
            knob_rng = streams.get(f"chaos-knobs/{target}/{rnd}")
            crash_rng = streams.get(f"chaos-crashes/{target}/{rnd}")
            knobs = generate_knobs(knob_rng, n, horizon)
            fuzzer = CrashScheduleFuzzer(FCrashEnvironment(n, n - 1), horizon)
            pattern = fuzzer.sample(crash_rng, MODES[rnd % len(MODES)])
            cases.append(
                FuzzCase(
                    target=target,
                    n=n,
                    seed=seed * 1_000_003 + rnd,
                    horizon=horizon,
                    knobs=knobs,
                    crashes=tuple(sorted(pattern.crash_times.items())),
                )
            )
    return cases


@dataclass
class Violation:
    """One safety hit, before and after shrinking."""

    case: FuzzCase
    violated: List[str]
    shrunk: Optional[FuzzCase] = None
    shrink_stats: Dict[str, Any] = field(default_factory=dict)
    artifact_path: Optional[Path] = None


@dataclass
class FuzzReport:
    """Everything one fuzz campaign established."""

    cases: List[FuzzCase]
    violations: List[Violation]
    liveness_misses: List[FuzzCase]
    failures: List[JobFailure]
    incidents: List[Dict[str, Any]]
    cache_events: List[Dict[str, Any]]

    @property
    def safe(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            f"chaos fuzz: {len(self.cases)} runs, "
            f"{len(self.violations)} safety violation(s), "
            f"{len(self.liveness_misses)} liveness miss(es), "
            f"{len(self.failures)} job failure(s)"
        ]
        for v in self.violations:
            lines.append(f"  SAFETY {v.violated} in {v.case.describe()}")
            if v.shrunk is not None:
                lines.append(
                    f"    shrunk -> {v.shrunk.describe()} "
                    f"({v.shrink_stats.get('evals', '?')} evals)"
                )
            if v.artifact_path is not None:
                lines.append(f"    artifact: {v.artifact_path}")
        for case in self.liveness_misses:
            lines.append(f"  liveness miss (non-fatal): {case.describe()}")
        for f in self.failures:
            lines.append(f"  job failure ({f.kind}): {f.error_type}: {f.message}")
        for incident in self.incidents:
            lines.append(f"  runner incident: {incident}")
        for event in self.cache_events:
            lines.append(f"  cache event: {event}")
        return "\n".join(lines)


def run_fuzz(
    targets: Sequence[str] = CLEAN_TARGETS,
    rounds: int = 5,
    seed: int = 0,
    n: int = 4,
    horizon: int = 40_000,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    out_dir: Optional[Path] = None,
    shrink: bool = True,
    shrink_budget: int = 48,
) -> FuzzReport:
    """One fuzz campaign; see the module docstring for the shape."""
    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        raise ValueError(f"unknown targets {unknown}; have {sorted(TARGETS)}")
    cases = generate_cases(targets, rounds, seed, n, horizon)
    campaign = Campaign(
        (build_spec(case) for case in cases), name="chaos-fuzz"
    )
    result = campaign.run(workers=jobs, cache=False, timeout=timeout)

    violations: List[Violation] = []
    liveness_misses: List[FuzzCase] = []
    failures: List[JobFailure] = []
    for case, summary in zip(cases, result.summaries):
        if isinstance(summary, JobFailure):
            failures.append(summary)
            continue
        violated = violated_safety(case, summary.metrics)
        if violated:
            violation = Violation(case=case, violated=violated)
            if shrink:
                violation.shrunk, violation.shrink_stats = shrink_case(
                    case, violated, budget=shrink_budget
                )
            if out_dir is not None:
                final = violation.shrunk or case
                final_summary = build_spec(final).execute()
                path = Path(out_dir) / (
                    f"chaos-{case.target}-seed{case.seed}.json"
                )
                write_artifact(
                    path,
                    final,
                    violated,
                    final_summary,
                    violation.shrink_stats,
                )
                violation.artifact_path = path
            violations.append(violation)
        elif liveness_missed(case, summary.metrics):
            liveness_misses.append(case)
    return FuzzReport(
        cases=cases,
        violations=violations,
        liveness_misses=liveness_misses,
        failures=failures,
        incidents=result.incidents,
        cache_events=result.cache_events,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="In-spec fault-injection fuzzing of the reproduction's "
        "algorithms, with counterexample shrinking.",
    )
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--horizon", type=int, default=40_000)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (0 = all cores; default serial)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-run wall-clock budget in seconds (0 = no limit)",
    )
    parser.add_argument(
        "--targets", default=",".join(CLEAN_TARGETS),
        help=f"comma-separated target names (have: {', '.join(sorted(TARGETS))})",
    )
    parser.add_argument(
        "--out", type=Path, default=Path(".chaos-artifacts"),
        help="directory for violation artifacts",
    )
    parser.add_argument("--no-shrink", action="store_true")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fixed budget for CI (overrides rounds/horizon)",
    )
    parser.add_argument(
        "--replay", type=Path, default=None, metavar="ARTIFACT",
        help="replay a violation artifact instead of fuzzing",
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        try:
            document = load_artifact(args.replay)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        outcome = replay(document)
        print(
            f"replay {args.replay}: reproduced={outcome.reproduced} "
            f"deterministic={outcome.deterministic} "
            f"violated={outcome.violated_now}"
        )
        return 0 if outcome.ok else 1

    # Every refusal is a usage error (exit 2) before any run:
    # exit 1 is the verdict "safety violated", and an empty campaign
    # must not read as a clean one.
    targets = tuple(t.strip() for t in args.targets.split(",") if t.strip())
    unknown = [t for t in targets if t not in TARGETS]
    if not targets or unknown:
        parser.error(
            f"--targets {args.targets!r}: need one or more of {sorted(TARGETS)}"
        )
    for flag, value in (
        ("--rounds", args.rounds), ("--n", args.n), ("--horizon", args.horizon)
    ):
        if value < 1:
            parser.error(f"{flag} {value}: need 1 or more")
    try:
        jobs = resolve_workers(args.jobs)
        # refused here, not mid-campaign
        pool_size(jobs, resolve_timeout(args.timeout))
    except ValueError as refusal:
        parser.error(str(refusal))

    rounds, horizon = args.rounds, args.horizon
    if args.smoke:
        rounds, horizon = 2, 20_000
    report = run_fuzz(
        targets=targets,
        rounds=rounds,
        seed=args.seed,
        n=args.n,
        horizon=horizon,
        jobs=jobs,
        timeout=args.timeout,
        out_dir=args.out,
        shrink=not args.no_shrink,
    )
    print(report.render())
    if not report.safe:
        print("SAFETY VIOLATIONS FOUND", file=sys.stderr)
        return 1
    if report.failures:
        print("runner failures (no safety verdicts for them)", file=sys.stderr)
        return 2
    print("no safety violations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
