"""The run-campaign engine: declarative, parallel, cached sweeps.

Every theorem in the reproduction is checked by sweeping seeded runs
over (n, environment, scheduler, crash pattern).  This package gives
all of those sweeps one engine:

* :class:`RunSpec` — a picklable description fully determining one run
  (see :mod:`repro.runner.spec`);
* :class:`Campaign` — expands parameter grids into spec lists and
  executes them serially or in forked children (:mod:`repro.runner.pool`),
  with deterministic result ordering (:mod:`repro.runner.campaign`);
* the result cache — ``cache=True`` / a directory is the campaign
  database (:class:`repro.store.cache.StoreResultCache`), keyed by spec
  content hash plus a source-tree salt (:func:`code_salt`), so
  re-running a sweep only executes changed cells
  (:func:`repro.runner.config.resolve_cache`);
* :class:`RunSummary` — the compact per-run record (cost counters,
  decision records, property verdicts, trace digest) shipped from
  workers back to the parent (:mod:`repro.runner.summary`).

A ten-line sweep::

    from repro.runner import Campaign, call, run_spec
    from repro.core.detectors import omega_sigma_oracle
    from repro.sim.system import decided

    campaign = Campaign.grid(
        lambda seed, f: run_spec(
            n=5, seed=seed, horizon=60_000,
            pattern=my_pattern(5, f),
            detector=omega_sigma_oracle(),
            components=[("consensus", call(my_consensus_factory, f))],
            stop=call(decided, "consensus"),
            tags={"seed": seed, "f": f},
        ),
        seed=range(8), f=range(4),
    )
    result = campaign.run(workers=4, cache=True)
"""

from repro.runner.callspec import CallSpec, call, ref
from repro.runner.campaign import Campaign, CampaignResult
from repro.runner.config import configure, reset as reset_config
from repro.runner.executor import (
    PoolExecutor,
    default_worker_count,
    execute_job_guarded,
)
from repro.runner import profile
from repro.runner.fingerprint import canonical, code_salt, fingerprint
from repro.runner.spec import FnSpec, RunSpec, fn_spec, run_spec
from repro.runner.summary import DecisionRecord, FnSummary, JobFailure, RunSummary

__all__ = [
    "CallSpec",
    "call",
    "ref",
    "code_salt",
    "Campaign",
    "CampaignResult",
    "configure",
    "reset_config",
    "PoolExecutor",
    "default_worker_count",
    "canonical",
    "fingerprint",
    "profile",
    "FnSpec",
    "RunSpec",
    "fn_spec",
    "run_spec",
    "DecisionRecord",
    "FnSummary",
    "JobFailure",
    "RunSummary",
    "execute_job_guarded",
]
