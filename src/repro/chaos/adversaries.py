"""In-model delivery, delay and scheduling adversaries.

Each class here plugs into an existing simulator knob — the
:class:`~repro.sim.network.DeliveryPolicy`, the
:class:`~repro.sim.network.DelayModel` or the
:class:`~repro.sim.scheduler.Scheduler` — and stays inside the model's
latitude: links stay reliable (duplication adds deliveries, never
removes one), delays stay finite, and starvation windows close.  The
single exception is :class:`NewestFirstDelivery`; a campaign that
enables it is unfair (:attr:`~repro.chaos.knobs.ChaosKnobs.fair` is
False), so the fuzzer drops the Termination claim for it.

The ``make_*`` functions at the bottom are the module-level factories
that :class:`~repro.runner.spec.RunSpec` cells reference through
:func:`repro.runner.call`: stateful adversaries must be built fresh in
the worker, not pickled mid-state.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.chaos.knobs import ChaosKnobs
from repro.sim.network import (
    DelayModel,
    DeliveryPolicy,
    Message,
    OldestFirstDelivery,
    UniformDelay,
)
from repro.sim.partition import TransientPartition
from repro.sim.scheduler import (
    RandomScheduler,
    Scheduler,
    WindowedStarvationScheduler,
)


class NewestFirstDelivery(DeliveryPolicy):
    """Always deliver the *youngest* ready message.

    Under sustained traffic an old message can be postponed forever, so
    this adversary is unfair: safety must survive it, Termination need
    not.  It maximally stresses stale-state handling (old ballots, old
    acks arriving after the world moved on — here they arrive *before*).
    """

    def choose(
        self, ready: List[Message], now: int, rng: random.Random
    ) -> Optional[Message]:
        return max(ready, key=lambda m: (m.send_time, m.msg_id))


class DuplicatingDelivery(DeliveryPolicy):
    """Re-deliver messages with bounded probability and depth.

    Wraps an inner policy for *selection*; on each actual delivery, with
    probability ``probability``, a copy is re-enqueued to become ready
    1..``max_delay`` ticks later.  ``max_depth`` bounds the generations
    a single send can spawn (the copy inherits a ``dup_depth`` meta
    counter), so the buffer cannot grow without bound.  Links stay
    reliable — duplication only ever *adds* deliveries — hence
    fairness is inherited from the inner policy.
    """

    def __init__(
        self,
        inner: Optional[DeliveryPolicy] = None,
        probability: float = 0.2,
        max_delay: int = 12,
        max_depth: int = 2,
    ):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.inner = inner or OldestFirstDelivery()
        # Selection is delegated wholesale, so the indexed network may
        # use its oldest-first fast path whenever the inner policy does;
        # duplicate_after fires on either path.
        self.oldest_first_selection = self.inner.oldest_first_selection
        self.probability = probability
        self.max_delay = max_delay
        self.max_depth = max_depth

    def choose(
        self, ready: List[Message], now: int, rng: random.Random
    ) -> Optional[Message]:
        return self.inner.choose(ready, now, rng)

    def duplicate_after(
        self, msg: Message, now: int, rng: random.Random
    ) -> Optional[int]:
        depth = msg.meta.get("dup_depth", 0)
        if depth >= self.max_depth or rng.random() >= self.probability:
            return None
        # The network copies msg.meta *after* this hook, so the bumped
        # counter lands on the duplicate, not just the delivered original.
        msg.meta["dup_depth"] = depth + 1
        return rng.randint(1, self.max_delay)


class BurstDelay(DelayModel):
    """Periodic congestion: every ``period`` sends, the first
    ``burst_len`` of them take ``extra`` additional ticks.

    Stateful (a send counter), so specs must construct it worker-side
    via :func:`make_delay` — never share one instance across runs.
    Delays stay finite, so the model's reliability is intact; what the
    burst buys the adversary is sudden large skew between "the quorum I
    heard from" and "the messages still in flight".
    """

    def __init__(
        self,
        period: int,
        burst_len: int,
        extra: int,
        lo: int = 1,
        hi: int = 8,
    ):
        if period < 1 or not 0 <= burst_len <= period:
            raise ValueError("need period >= 1 and 0 <= burst_len <= period")
        if extra < 0:
            raise ValueError("extra must be >= 0")
        self.period = period
        self.burst_len = burst_len
        self.extra = extra
        self.base = UniformDelay(lo, hi)
        self._sends = 0

    def sample(self, rng: random.Random, sender: int, dest: int) -> int:
        slot = self._sends % self.period
        self._sends += 1
        delay = self.base.sample(rng, sender, dest)
        if slot < self.burst_len:
            delay += self.extra
        return delay


# ----------------------------------------------------------------------
# Spec-side factories (referenced via repro.runner.call)
# ----------------------------------------------------------------------
def make_delivery(knobs: ChaosKnobs) -> DeliveryPolicy:
    """The delivery policy a knobs value asks for.

    An active transient-partition window takes over message *selection*
    (it is itself an ordering policy: oldest-first among passable
    messages); duplication then wraps whichever selector is in force.
    """
    base: DeliveryPolicy
    if knobs.partitioned:
        base = TransientPartition(
            [set(g) for g in knobs.partition_groups],
            start=knobs.partition_start,
            end=knobs.partition_end,
        )
    elif knobs.reorder:
        base = NewestFirstDelivery()
    else:
        base = OldestFirstDelivery()
    if knobs.dup_probability > 0:
        return DuplicatingDelivery(
            inner=base,
            probability=knobs.dup_probability,
            max_delay=knobs.dup_max_delay,
            max_depth=knobs.dup_max_depth,
        )
    return base


def make_delay(knobs: ChaosKnobs) -> DelayModel:
    """The delay model a knobs value asks for."""
    if knobs.burst_period > 0:
        return BurstDelay(
            period=knobs.burst_period,
            burst_len=knobs.burst_len,
            extra=knobs.burst_extra,
            lo=knobs.delay_lo,
            hi=knobs.delay_hi,
        )
    return UniformDelay(knobs.delay_lo, knobs.delay_hi)


def make_scheduler(knobs: ChaosKnobs) -> Scheduler:
    """The scheduler a knobs value asks for."""
    if knobs.starve_windows:
        return WindowedStarvationScheduler(knobs.starve_windows)
    return RandomScheduler()
