"""``python -m repro.explore`` — the bounded model checker's front door.

Recipes (see ``docs/EXPLORER.md`` for the full tour):

Exhaust one clean target at its pinned smoke depth::

    python -m repro.explore --target paxos --stats

Everything clean, shallower::

    python -m repro.explore --target all --depth 6

Hunt a seeded bug and keep the shrunk witness::

    python -m repro.explore --target submajority --expect-violation \\
        --stop-on-first --out artifacts/

Measure what the reductions buy::

    python -m repro.explore --target ct --depth 7 --stats --no-por
    python -m repro.explore --target ct --depth 7 --stats

Exhaust the n=3 NBAC frontier, every reduction on, and insist on it::

    python -m repro.explore --target nbac --procs 3 --symmetry \\
        --require-complete --stats

The same frontier over four forked children, each walking the next root::

    python -m repro.explore --target nbac --procs 3 --symmetry \\
        --workers 4 --require-complete --stats

Every run goes through one driver, :mod:`repro.explore.frontierd`, a
campaign of one cell per root: one worker (the default) walks the roots
in this process, ``k`` fork ``k`` children.  ``--stop-on-first`` and
``--max-runs`` bound each root's walk; ``--cache`` serves roots a
previous run walked under the same bounds.

The exit code is 0 when every explored target matched expectation —
no violations normally, at least one under ``--expect-violation`` —
and 1 otherwise, so CI can call this directly; input the frontier
refuses (an unknown target, ``--procs 0``, ``--depth 0``,
``--workers -1``, ``--max-runs 0``, ``--crashes -1``) exits 2 before
any work.  A lost root (its walk raised or timed out, or its child died
past the re-walk budget) is a failure whatever was expected: its
subtree was never searched.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.chaos.targets import CLEAN_TARGETS, MUTANT_TARGETS, TARGETS
from repro.explore.cases import ExploreOptions
from repro.explore.frontier import (
    SMOKE_DEPTHS,
    SMOKE_DEPTHS_N3,
    SWITCH_MUTANTS,
    enumerate_roots,
    result_from_summary,
)
from repro.explore.frontierd import run_frontier
from repro.explore.symmetry import collapse_symmetric_roots
from repro.runner.config import resolve_timeout
from repro.runner.pool import pool_size


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Exhaustively explore bounded schedules of a target.",
    )
    parser.add_argument(
        "--target",
        default="all",
        help=(
            "target name, 'all' (every clean target) or 'mutants' "
            f"(every seeded bug); targets: {', '.join(sorted(TARGETS))}"
        ),
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=None,
        help="step budget per run (default: the target's pinned smoke depth)",
    )
    parser.add_argument(
        "--procs", type=int, default=2, help="system size n (default 2)"
    )
    parser.add_argument(
        "--crashes",
        type=int,
        default=0,
        help="max crashes enumerated at the frontier (default 0)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "frontier workers; 1 walks the roots in this process, k "
            "forks k children, each walking the next root (default: "
            "REPRO_RUNNER_JOBS, else 1; 0 = every core; see "
            "docs/EXPLORER.md)"
        ),
    )
    parser.add_argument(
        "--cache",
        default=None,
        help=(
            "campaign database (directory or .sqlite path) serving "
            "roots a previous run walked under the same bounds "
            "(default off)"
        ),
    )
    parser.add_argument(
        "--max-runs",
        type=int,
        default=None,
        help="truncate each root after this many runs (default unbounded)",
    )
    parser.add_argument(
        "--stop-on-first",
        action="store_true",
        help="stop each root at its first violation",
    )
    parser.add_argument(
        "--expect-violation",
        action="store_true",
        help="invert the verdict: fail unless a violation is found",
    )
    parser.add_argument(
        "--detector-switches",
        action="store_true",
        help=(
            "enumerate detector history scripts (branch switches, leader "
            "changes, FS reddening) as extra roots whose switch times "
            "become in-tree choice points; auto-enabled for mutants "
            "that need it (redcommit)"
        ),
    )
    parser.add_argument(
        "--no-por", action="store_true", help="disable partial-order pruning"
    )
    parser.add_argument(
        "--no-dedup", action="store_true", help="disable state deduplication"
    )
    parser.add_argument(
        "--symmetry",
        action="store_true",
        help=(
            "enable pid-symmetry reduction where sound (auto-gated per "
            "target) and collapse symmetric frontier roots"
        ),
    )
    parser.add_argument(
        "--require-complete",
        action="store_true",
        help="fail unless every root's tree was exhausted (no truncation)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-root and aggregate search statistics",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for shrunk violation artifacts (default: none kept)",
    )
    return parser, parser.parse_args(argv)


def _targets(name: str) -> List[str]:
    if name == "all":
        return list(CLEAN_TARGETS)
    if name == "mutants":
        return list(MUTANT_TARGETS)
    if name not in TARGETS:
        raise ValueError(
            f"unknown target {name!r}; have {sorted(TARGETS)}, 'all', 'mutants'"
        )
    return [name]


def _plan(args: argparse.Namespace, target: str) -> Tuple[str, int, List[Any]]:
    """``(target, depth, roots)``: what one target's walk will cover."""
    if args.depth is not None:
        depth = args.depth
    elif args.procs >= 3 and target in SMOKE_DEPTHS_N3:
        depth = SMOKE_DEPTHS_N3[target]
    else:
        depth = SMOKE_DEPTHS.get(target, 8)
    switches = args.detector_switches
    crashes = args.crashes
    if target in SWITCH_MUTANTS:
        # Undetectable without the switch dimension and a crash to
        # gate the FS-red script on; forcing both keeps
        # `--target <mutant> --expect-violation` meaningful.
        switches = True
        crashes = max(crashes, 1)
    roots = enumerate_roots(
        target,
        args.procs,
        depth=depth,
        max_crashes=crashes,
        detector_switches=switches,
    )
    if args.symmetry:
        roots = collapse_symmetric_roots(roots)
    return target, depth, roots


def _emit_artifacts(summaries: List[Dict[str, Any]], out: Path) -> List[Path]:
    """Shrink every violation and write its artifact into ``out``."""
    from repro.explore.artifact import write_artifact
    from repro.explore.shrink import shrink_violation

    written = []
    index = -1
    for summary in summaries:
        for violation in result_from_summary(summary).violations:
            # Numbered across summaries: two roots convicting the same
            # target on the same clause must not overwrite each other.
            index += 1
            case, choices, stats = shrink_violation(violation)
            path = out / f"{case.target}-{violation.violated[0]}-{index}.json"
            write_artifact(
                path,
                case,
                choices,
                violation.violated,
                por=violation.por,
                shrink_stats=stats,
            )
            written.append(path)
    return written


def main(argv=None) -> int:
    parser, args = _parse_args(argv if argv is not None else sys.argv[1:])
    # Every refusal is a usage error (exit 2) before any work:
    # exit 1 is the verdict that a target missed its expectation.
    try:
        if args.max_runs is not None and args.max_runs < 1:
            raise ValueError(f"max-runs={args.max_runs}: need 1 or more")
        if args.crashes < 0:
            raise ValueError(f"crashes={args.crashes}: need 0 or more")
        pool_size(args.workers, resolve_timeout())  # REPRO_RUNNER_TIMEOUT
        plans = [_plan(args, target) for target in _targets(args.target)]
    except ValueError as refusal:
        parser.error(str(refusal))
    options = ExploreOptions(
        por=not args.no_por,
        dedup=not args.no_dedup,
        symmetry=args.symmetry,
    )
    failures = 0
    for target, depth, roots in plans:
        summaries = run_frontier(
            roots,
            options,
            workers=args.workers,
            cache=args.cache or False,
            stop_on_first_violation=args.stop_on_first,
            max_runs=args.max_runs,
        )
        totals = {
            "runs": 0,
            "states": 0,
            "dedup_hits": 0,
            "por_pruned": 0,
            "violations": 0,
            "replay_steps": 0,
            "fp_nodes": 0,
            "opaque_tokens": 0,
        }
        counted = {
            name: 0
            for name in (
                "rewinds",
                "steps_executed",
                "steps_served",
                "hosts_rebuilt",
                "fp_host_hits",
                "fp_host_misses",
                "fp_lineages",
                "fp_message_hits",
                "fp_message_misses",
            )
        }
        complete = True
        for summary in summaries:
            for key in totals:
                totals[key] += summary["stats"][key]
            for name in counted:
                counted[name] += summary["counters"].get(f"explore_{name}", 0)
            complete = complete and summary["complete"]
            if args.stats:
                case = summary["case"]
                print(
                    f"  root {case['target']} seed={case['seed']} "
                    f"crashes={case['crashes']} "
                    f"assignment={json.dumps(case['assignment'])}: "
                    f"{summary['stats']}"
                )
        found = totals["violations"] > 0
        verdict = (
            ("VIOLATION FOUND" if found else "no violation (UNEXPECTED)")
            if args.expect_violation
            else ("VIOLATIONS" if found else "ok")
        )
        bad = found != args.expect_violation
        if args.require_complete and not complete:
            bad = True
            verdict += " INCOMPLETE"
        if any(summary["incidents"] for summary in summaries):
            bad = True
            verdict += " LOST"
        failures += bad
        print(
            f"{target} depth={depth} roots={len(roots)}: {verdict}"
            + ("" if complete else " (truncated)")
            + (
                f" — runs={totals['runs']} states={totals['states']} "
                f"dedup_hits={totals['dedup_hits']} "
                f"por_pruned={totals['por_pruned']} "
                f"rewinds={counted['rewinds']} "
                f"steps={counted['steps_executed']}/"
                f"{counted['steps_served']} (executed/served) "
                f"hosts_rebuilt={counted['hosts_rebuilt']} "
                f"replay_steps={totals['replay_steps']} "
                f"fp_nodes={totals['fp_nodes']} "
                f"fp_host={counted['fp_host_hits']}/"
                f"{counted['fp_host_misses']} "
                f"fp_message={counted['fp_message_hits']}/"
                f"{counted['fp_message_misses']} (hits/misses) "
                f"fp_lineages={counted['fp_lineages']} "
                f"opaque_tokens={totals['opaque_tokens']}"
                if args.stats
                else ""
            )
        )
        if summaries:
            block = summaries[0].get("frontier", {})
            print(
                f"  frontier: workers={block.get('workers')} "
                f"rewalks={block.get('rewalks')} "
                f"lost={block.get('lost')} "
                f"wall_clock={block.get('wall_clock')}s"
            )
        if args.out is not None and found:
            for path in _emit_artifacts(summaries, args.out):
                print(f"  wrote {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
