"""CLI: regenerate the paper's experiment tables.

Usage::

    python -m repro.experiments                  # all experiments, every core
    python -m repro.experiments E1 E3 E7         # a selection
    python -m repro.experiments --seed 7 E4      # different seed
    python -m repro.experiments --jobs 1         # one after another, here
    python -m repro.experiments --cache .cache   # reuse cached runs
    python -m repro.experiments --fail-fast      # stop at first mismatch
    python -m repro.experiments E1 --profile     # dump hot-path counters

``--jobs`` (default: every core, ``REPRO_RUNNER_JOBS`` overriding it;
1 without ``fork``) is the number of processes.  With two or more
experiments selected that many children are forked, each running the
next experiment whole, campaigns serial (:mod:`repro.runner.pool`), and
the tables are printed in registry order exactly as ``--jobs 1`` prints
them; with one experiment the processes go to its campaigns' cells.
``--jobs 1`` runs everything here.  These choices hold for one call.
``--cache`` keeps results in the campaign database (``docs/STORE.md``)
under the given directory — with no path, the store's default
(``$REPRO_STORE_DIR``, else ``.repro-store``).  ``--profile`` collects
each campaign's aggregated perf counters (``docs/PERF.md``), the
children's included, and writes them as JSON (default
``PROFILE_sim.json``); it takes an optional path, so name the
experiments *before* it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time

from repro.experiments.common import all_experiments
from repro.runner import profile
from repro.runner.config import configured, resolve_timeout, resolve_workers
from repro.runner.pool import Lost, can_fork, fork_imap, pool_size


def _run(experiment, seed, forked):
    """``(table, ok, seconds, profile records)`` of one experiment; in a
    pool child the records are sent back with the table, here they stay
    in this process's collector."""
    if forked:
        profile.drain()  # the parent's, inherited at fork
    started = time.time()
    result = experiment(seed=seed)
    records = profile.drain() if forked else []
    return result.render(), result.ok, time.time() - started, records


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
        help="processes for the experiments, or for one experiment's "
        "campaign cells (0 or default: all cores; 1: in this process)",
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
        if workers is None:  # every core, where children can be forked
            workers = 0 if can_fork() else 1
        # The campaigns inside read REPRO_RUNNER_TIMEOUT; a bad one is
        # refused here, not in the middle of the sweep.
        workers = pool_size(workers, resolve_timeout())
    except ValueError as refusal:
        parser.error(str(refusal))
    if args.profile:
        profile.enable()

    # The experiments spread over the children, their campaigns
    # serial; or, for one experiment, its campaign cells.
    forked = workers > 1 and len(wanted) > 1
    run = functools.partial(_run, seed=args.seed, forked=forked)
    experiments = [registry[e] for e in wanted]
    failures = []
    with (
        configured(workers=1 if forked else workers, cache=args.cache),
        contextlib.closing(
            fork_imap(run, experiments, workers if forked else 1)
        ) as outcomes,
    ):
        for experiment_id, (outcome, runs) in zip(wanted, outcomes):
            if isinstance(outcome, Lost):
                raise RuntimeError(
                    f"{experiment_id}: its child died on each of {runs} "
                    f"runs (last exit code {outcome.exitcode})"
                )
            table, ok, elapsed, records = outcome
            profile.extend(records)
            print(table)
            print(f"({elapsed:.1f}s)\n")
            if not ok:
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
