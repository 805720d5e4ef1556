"""Every call the benchmark makes into ``repro`` lives in this module.

Run as ``python -m e2e_bench.adapters <workload> <seed> <trace> <spawned_at>
<mode>`` in a fresh interpreter (``PYTHONHASHSEED=0``, ``PYTHONPATH=src``):
one process is one repetition.  It sets the workload up, times one call
of the production entry point with its defaults (engine ``indexed``,
fingerprint mode ``incremental`` — ``REPRO_NATIVE`` is left alone),
checks the verdicts, and prints the facts as one JSON line; a failure
is an ``[operation, reason]`` pair.  Turning facts into named metrics is
:mod:`e2e_bench.harness`' job.

Public surface relied on: ``repro.explore`` (``enumerate_roots``,
``run_frontier``, ``run_frontier_dynamic`` and the summary dicts they
return), ``repro.experiments.__main__.main``, ``repro._native
.available``, and the ``python -m repro.explore`` / ``python -m
repro.chaos --replay`` command lines for the canaries.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Tuple

from e2e_bench import CHECKOUT, FRONTIER_WORKERS, OUT_DIR
from e2e_bench.tracing import ROOT, Tracer

EXPLORE_SIZE = 3
EXPLORE_DEPTH = 6

#: Counter/stat keys summed over a workload's roots.
STAT_KEYS = (
    "runs", "states", "dedup_hits", "por_pruned", "replay_steps",
    "fp_nodes", "opaque_tokens", "shards",
)
COUNTER_KEYS = ("explore_fp_host_hits", "explore_fp_host_misses")

_TIMING_LINE = re.compile(r"^\(\d+\.\d+s\)$")
_TABLE_HEAD = re.compile(r"^== (E\d+): ")


def child_env() -> Dict[str, str]:
    """The environment every repetition and canary runs under."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(CHECKOUT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (CHECKOUT, src, env.get("PYTHONPATH")) if p
    )
    return env


# -- workloads: prepare() is set-up, the returned call() is what is timed --

def _explore_roots(target: str, seed: int):
    from repro.explore import enumerate_roots

    # nbac's vote vector and paxos' proposals are seed-parity shaped
    # (see repro.explore.frontier.DEFAULT_SEEDS): keep one even and one
    # odd seed for nbac, an odd one for paxos, so every --seed explores
    # a tree of the same shape as the pinned seed-0 one.
    seeds = (seed, seed + 1) if target == "nbac" else (2 * seed + 1,)
    return enumerate_roots(target, EXPLORE_SIZE, depth=EXPLORE_DEPTH, seeds=seeds)


def _prepare_exhaust(target: str):
    def prepare(seed: int, traced: bool) -> Tuple[Callable[[], Any], Dict[str, Any]]:
        from repro.explore import run_frontier

        roots = _explore_roots(target, seed)
        return (lambda: run_frontier(roots, workers=1)), {}

    return prepare


def _prepare_frontier(seed: int, traced: bool):
    from repro.explore import run_frontier_dynamic

    roots = _explore_roots("nbac", seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
    call = lambda: run_frontier_dynamic(  # noqa: E731
        roots, workers=FRONTIER_WORKERS, store=store_dir
    )
    return call, {"store_dir": store_dir}


def _prepare_sweep(seed: int, traced: bool):
    from repro.experiments.__main__ import main

    argv = ["--seed", str(seed)]
    state: Dict[str, Any] = {}
    if traced:
        # --profile only collects counters the campaigns already
        # return; it feeds sim.ticks .. core.fd_cache_hit_rate.
        os.makedirs(OUT_DIR, exist_ok=True)
        state["profile_path"] = os.path.join(OUT_DIR, f"profile-{os.getpid()}.json")
        argv += ["--profile", state["profile_path"]]

    def call():
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = main(argv)
        return code, captured.getvalue()

    return call, state


PREPARE = {
    "exhaust_nbac3": _prepare_exhaust("nbac"),
    "exhaust_paxos3": _prepare_exhaust("paxos"),
    "frontier_nbac3": _prepare_frontier,
    "sweep_e1_e13": _prepare_sweep,
}


# -- turning what the entry points returned into facts ----------------------

def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _explore_facts(summaries: List[Dict[str, Any]], state: Dict[str, Any]) -> Dict[str, Any]:
    failures = []
    for index, summary in enumerate(summaries):
        for flaw, present in (
            ("incomplete", not summary["complete"]),
            ("violations", bool(summary["violations"])),
            ("incidents", bool(summary.get("incidents"))),
        ):
            if present:
                failures.append([f"root {index}", flaw])
    facts: Dict[str, Any] = {
        "attempted": len(summaries),
        "failures": failures,
        "incidents": sum(len(s.get("incidents") or ()) for s in summaries),
        # At this depth most roots decide nothing, so the vector set
        # alone is one constant; the case pins which root produced it.
        "digests": [
            _sha256(json.dumps([s["case"], s["decision_vectors"]], sort_keys=True))
            for s in summaries
        ],
        "stats": {k: sum(s["stats"].get(k, 0) for s in summaries) for k in STAT_KEYS},
        "counters": {
            k: sum(s["counters"].get(k, 0) for s in summaries) for k in COUNTER_KEYS
        },
    }
    if "store_dir" in state:
        # One shared accounting block rides on every merged summary.
        facts["frontier"] = dict(summaries[0].get("frontier", {}))
        facts["db_bytes"] = sum(
            os.path.getsize(path)
            for path in glob.glob(os.path.join(state["store_dir"], "*"))
        )
    return facts


def _sweep_facts(returned: Tuple[int, str], state: Dict[str, Any]) -> Dict[str, Any]:
    code, text = returned
    verdicts: Dict[str, bool] = {}
    current = None
    stable = []
    for line in text.splitlines():
        if _TIMING_LINE.match(line) or line.startswith("profile: "):
            continue
        stable.append(line)
        head = _TABLE_HEAD.match(line)
        if head:
            current = head.group(1)
            verdicts[current] = False
        elif current and line.startswith("verdict: "):
            verdicts[current] = line == "verdict: OK"
    failures = [[eid, "verdict not OK"] for eid, ok in verdicts.items() if not ok]
    if code != 0 and not failures:
        failures.append(["cli", f"experiments CLI exited {code}"])
    facts: Dict[str, Any] = {
        "attempted": max(1, len(verdicts)),
        "failures": failures,
        "digests": [_sha256("\n".join(stable))],
    }
    if "profile_path" in state:
        with open(state["profile_path"], encoding="utf-8") as fh:
            facts["profile"] = json.load(fh)["total"]
    return facts


def _cleanup(state: Dict[str, Any]) -> None:
    if "store_dir" in state:
        shutil.rmtree(state["store_dir"], ignore_errors=True)
    if "profile_path" in state:
        with contextlib.suppress(FileNotFoundError):
            os.remove(state["profile_path"])


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_repetition(workload: str, seed: int, traced: bool, spawned_at: float,
                   setup_only: bool) -> Dict[str, Any]:
    """One repetition in this process; see the module docstring."""
    import repro._native

    call, state = PREPARE[workload](seed, traced)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
        call = tracer.span(ROOT, call)
    facts: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "native": bool(repro._native.available()),
    }
    try:
        facts["setup_s"] = time.time() - spawned_at
        if setup_only:
            return facts
        self_0 = resource.getrusage(resource.RUSAGE_SELF)
        kids_0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        returned = call()
        facts["wall_s"] = time.perf_counter() - started
        self_1 = resource.getrusage(resource.RUSAGE_SELF)
        kids_1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        facts["coord_cpu_s"] = _cpu(self_1) - _cpu(self_0)
        facts["worker_cpu_s"] = _cpu(kids_1) - _cpu(kids_0)
        facts["cpu_s"] = facts["coord_cpu_s"] + facts["worker_cpu_s"]
        # ru_maxrss is KiB on Linux; children = largest reaped descendant.
        facts["peak_rss_mb"] = max(self_1.ru_maxrss, kids_1.ru_maxrss) / 1024.0
        if workload == "sweep_e1_e13":
            facts.update(_sweep_facts(returned, state))
        else:
            facts.update(_explore_facts(returned, state))
        if tracer is not None:
            facts["trace"] = {
                "rows": tracer.summary(),
                "missing": tracer.missing,
                "broken": tracer.broken,
            }
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write(
                os.path.join(OUT_DIR, f"trace-{workload}.json"),
                header={"workload": workload, "seed": seed},
            )
        return facts
    finally:
        if tracer is not None:
            tracer.uninstall()
        _cleanup(state)


# -- canaries: a wrong clean-exhaust must not pass as a speed-up ------------

def run_canaries() -> Dict[str, Any]:
    """Run every untimed canary (each must exit 0); attempted/failures
    in the repetition's shape."""
    commands = [
        (
            "mutant hastycommit n=3 is convicted",
            [sys.executable, "-m", "repro.explore", "--target", "hastycommit",
             "--procs", "3", "--symmetry", "--expect-violation", "--stop-on-first"],
        )
    ]
    pattern = os.path.join(CHECKOUT, "tests", "data", "explore-*.json")
    for witness in sorted(glob.glob(pattern)):
        commands.append(
            (
                f"witness {os.path.basename(witness)} replays",
                [sys.executable, "-m", "repro.chaos", "--replay", witness],
            )
        )
    failures = []
    for label, argv in commands:
        done = subprocess.run(
            argv, cwd=CHECKOUT, env=child_env(), capture_output=True,
            text=True, timeout=120,
        )
        if done.returncode != 0:
            failures.append([label, f"exit code {done.returncode}"])
    if len(commands) < 2:
        failures.append(["witnesses", "no tests/data/explore-*.json found"])
    return {"attempted": len(commands), "failures": failures}


def main(argv: List[str]) -> int:
    workload, seed, traced, spawned_at, mode = argv
    facts = run_repetition(
        workload, int(seed), traced == "1", float(spawned_at), mode == "setup"
    )
    print(json.dumps(facts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
