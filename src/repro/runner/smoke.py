"""A two-minute end-to-end smoke campaign (``python -m repro.runner.smoke``).

Runs a reduced E1 (ABD register over Σ) and E3 (consensus algorithm
comparison) grid through the campaign engine with two workers, then
re-runs the same grid serially and asserts the stable digests agree —
the cheapest whole-stack check that the spec layer, the process pool,
and the simulator still produce byte-identical results.  CI calls this
after the tier-1 suite; it is also handy after local surgery on the
runner or the sim loop.

``--incremental DIR`` instead exercises the persistent store end to
end: the grid runs once against a SQLite-backed cache in ``DIR``, then
again — the second pass must execute **zero** cells (every one a cache
hit), which is what CI's incremental re-verify job asserts after
restoring the store from its cache.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.e01_register import case_spec as e01_spec
from repro.experiments.e03_consensus import case_spec as e03_spec
from repro.runner.campaign import Campaign


def build_campaign() -> Campaign:
    """E1 with f in {0, 1} plus E3's four algorithms, n=4, two seeds."""
    e01 = Campaign.grid(
        lambda f, kind: e01_spec(4, f, kind, seed=0, horizon=40_000),
        name="smoke-e01",
        f=range(2),
        kind=("majority", "sigma"),
    )
    e03 = Campaign.grid(
        lambda seed, label: e03_spec(4, 1, label, seed, horizon=40_000),
        name="smoke-e03",
        seed=range(2),
        label=("(Omega,Sigma)", "Omega+majorities", "CT <>S [4]", "CT S [4]"),
    )
    return e01 + e03


def incremental(store_dir: str, workers: int = 2) -> int:
    """Run the grid twice against the store; pass 2 must hit 100%.

    Returns 0 when the warm pass executed nothing and every summary's
    digest matches the cold pass — the store round-tripped the whole
    grid.  Tolerant of a pre-populated store (CI restores it from
    cache): the cold pass may itself be fully cached.
    """
    campaign = build_campaign()
    print(f"incremental smoke: {len(campaign)} runs against {store_dir!r}")
    cold = campaign.run(workers=workers, cache=store_dir)
    print(f"  pass 1: {cold.hits} cached, {cold.executed} executed")
    warm = campaign.run(workers=workers, cache=store_dir)
    print(f"  pass 2: {warm.hits} cached, {warm.executed} executed")
    if not cold.ok or not warm.ok:
        print("FAIL: campaign cells failed")
        return 1
    if warm.executed != 0 or warm.hits != len(campaign):
        print(
            f"FAIL: warm pass should be fully cached, executed "
            f"{warm.executed} of {len(campaign)}"
        )
        return 1
    if [s.stable_digest() for s in cold] != [s.stable_digest() for s in warm]:
        print("FAIL: cached summaries diverged from computed ones")
        return 1
    print(f"ok: warm pass replayed {warm.hits} cells from the store")
    return 0


def main(workers: int = 2) -> int:
    campaign = build_campaign()
    print(f"smoke campaign: {len(campaign)} runs, {workers} workers")

    started = time.perf_counter()
    pooled = campaign.run(workers=workers, cache=False)
    pooled_s = time.perf_counter() - started

    started = time.perf_counter()
    serial = campaign.run(workers=1, cache=False)
    serial_s = time.perf_counter() - started

    pooled_digests = [s.stable_digest() for s in pooled]
    serial_digests = [s.stable_digest() for s in serial]
    if pooled_digests != serial_digests:
        print("FAIL: pooled and serial campaigns diverged")
        return 1

    failures = [s for s in pooled if s.metrics.get("ok") is False]
    if failures:
        print(f"FAIL: {len(failures)} runs reported not-ok metrics")
        for s in failures:
            print(f"  tags={s.tags} metrics={s.metrics}")
        return 1

    print(
        f"ok: {len(pooled)} runs deterministic across executors "
        f"(pool {pooled_s:.1f}s, serial {serial_s:.1f}s)"
    )
    return 0


def _cli(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.runner.smoke")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--incremental",
        metavar="DIR",
        default=None,
        help="store directory: run the grid twice through the SQLite "
        "cache and assert the second pass executes nothing",
    )
    args = parser.parse_args(argv)
    if args.incremental is not None:
        return incremental(args.incremental, workers=args.workers)
    return main(workers=args.workers)


if __name__ == "__main__":
    sys.exit(_cli())
