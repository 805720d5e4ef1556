"""Importable spec ingredients for the runner tests.

CallSpec targets must be module-level (worker processes re-import
them), so the factories and hooks the campaign tests sweep over live
here rather than inside test functions.
"""

from __future__ import annotations

from repro.consensus.interface import consensus_component
from repro.consensus.paxos import OmegaSigmaConsensusCore
from repro.core.detectors import omega_sigma_oracle
from repro.core.failure_pattern import FailurePattern
from repro.runner import call, ref, run_spec
from repro.sim.system import decided


def proposals(n):
    return {p: f"v{p}" for p in range(n)}


def consensus_factory(n):
    values = proposals(n)
    return consensus_component(
        lambda pid: OmegaSigmaConsensusCore(values[pid])
    )


def summarize(system, trace):
    return {"decided": len(trace.decisions), "n": system.n}


def one_arg_value(x):
    return x


def fn_square(x):
    return x * x


def fn_raise(x):
    raise RuntimeError(f"deliberate failure on {x}")


def fn_unpicklable(x):
    """A result no child can send back: a lambda does not pickle."""
    return lambda: x


def fn_hard_exit(x):
    """Kill the worker process without unwinding — simulates a segfault."""
    import os

    os._exit(17)


def fn_die_once(x, marker):
    """SIGKILL the worker the first time (leaving ``marker`` behind),
    then return ``x * x`` like :func:`fn_square`."""
    import os
    import signal

    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def fn_sleep(x, duration):
    import time

    time.sleep(duration)
    return x


def fn_sleep_alarm_blocked(x, duration):
    """:func:`fn_sleep` with ``SIGALRM`` blocked while it sleeps: a job
    that no alarm set where it runs can interrupt."""
    import signal
    import time

    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        time.sleep(duration)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)
    return x


def fn_inner_campaign(x, timeout):
    """Square ``x`` in a campaign of its own with a time budget: a cell
    whose child must fork one of its own to keep that budget."""
    from repro.runner import Campaign, fn_spec

    (summary,) = Campaign([fn_spec(call(fn_square, x))]).run(
        workers=1, timeout=timeout
    ).summaries
    return summary.value


def consensus_spec(n=4, seed=0, f=0, horizon=60_000, **overrides):
    base = dict(
        n=n,
        seed=seed,
        horizon=horizon,
        pattern=FailurePattern(n, {pid: 1 + 2 * pid for pid in range(f)}),
        detector=omega_sigma_oracle(),
        components=[("consensus", call(consensus_factory, n))],
        stop=call(decided, "consensus"),
        summarize=ref(summarize),
        tags={"seed": seed, "f": f},
    )
    base.update(overrides)
    return run_spec(**base)
