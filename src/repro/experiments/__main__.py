"""CLI: regenerate the paper's experiment tables.

Usage::

    python -m repro.experiments                  # all experiments
    python -m repro.experiments E1 E3 E7         # a selection
    python -m repro.experiments --seed 7 E4      # different seed
    python -m repro.experiments --jobs 4 E1 E3   # 4 worker processes
    python -m repro.experiments --cache .cache   # reuse cached runs
    python -m repro.experiments --fail-fast      # stop at first mismatch
    python -m repro.experiments E1 --profile     # dump hot-path counters

``--jobs``/``--cache`` configure the campaign engine every experiment
routes its runs through (see :mod:`repro.runner`): ``--jobs 0`` uses
every core, ``--cache`` keeps results in the campaign database
(``docs/STORE.md``) under the given directory — with no path, the
store's default (``$REPRO_STORE_DIR``, else ``.repro-store``).
``--profile`` collects each campaign's aggregated perf counters (see
``docs/PERF.md``) and writes them as JSON (default ``PROFILE_sim.json``);
it takes an optional path, so name the experiments *before* it.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.common import all_experiments
from repro.runner import configure, profile
from repro.runner.config import resolve_workers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the experiment tables of the reproduction.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (E1..E13); default: all",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes per campaign (0 = all cores; default serial)",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const=True,
        default=None,
        metavar="DIR",
        help="cache run results in the campaign database under DIR",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop at the first experiment whose verdict mismatches",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="PROFILE_sim.json",
        default=None,
        metavar="PATH",
        help="dump per-campaign perf counters as JSON (see docs/PERF.md)",
    )
    args = parser.parse_args(argv)

    registry = all_experiments()
    wanted = args.experiments or list(registry)
    unknown = [e for e in wanted if e not in registry]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; have {list(registry)}")
    if args.profile in registry:
        parser.error(
            f"--profile {args.profile} would run every experiment and write "
            f"the counters to a file named {args.profile}; put the "
            f"experiment ids first: {args.profile} --profile"
        )

    try:
        workers = resolve_workers(args.jobs)
    except ValueError as refusal:
        parser.error(str(refusal))

    configure(workers=workers, cache=args.cache)
    if args.profile:
        profile.enable()

    failures = []
    for experiment_id in wanted:
        started = time.time()
        result = registry[experiment_id](seed=args.seed)
        elapsed = time.time() - started
        print(result.render())
        print(f"({elapsed:.1f}s)\n")
        if not result.ok:
            failures.append(experiment_id)
            if args.fail_fast:
                remaining = wanted[wanted.index(experiment_id) + 1 :]
                if remaining:
                    print(f"--fail-fast: skipping {remaining}", file=sys.stderr)
                break

    if args.profile:
        payload = profile.dump(args.profile)
        total = payload["total"]
        scanned = total.get("messages_scanned", 0)
        delivered = total.get("messages_delivered", 0)
        per_delivery = scanned / delivered if delivered else 0.0
        print(
            f"profile: {len(payload['campaigns'])} campaigns -> "
            f"{args.profile} (scanned/delivery {per_delivery:.2f})"
        )

    if failures:
        print(f"MISMATCHES: {failures}", file=sys.stderr)
        return 1
    print("all experiment tables match the paper's claims")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
