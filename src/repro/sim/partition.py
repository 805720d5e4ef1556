"""Transient network partitions.

The asynchronous model has no *permanent* partitions — links are
reliable — but arbitrarily long message delays are indistinguishable
from a partition that eventually heals.  :class:`TransientPartition` is
a delivery policy that withholds all cross-group messages during a
window ``[start, end)`` and delivers normally (oldest-first, including
the backlog) afterwards: a faithful model of a healed partition, and
fair over the whole run.

This is the adversary under which quorum-based algorithms show their
character: during the partition, at most one side's quorums can make
progress (Σ's Intersection guarantees the sides cannot *both* decide),
and after healing the backlog drains and liveness resumes.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set

from repro.sim.network import DeliveryPolicy, Message


class TransientPartition(DeliveryPolicy):
    """Splits Π into groups for a time window, then heals.

    Parameters
    ----------
    groups:
        Disjoint process groups; messages between different groups are
        withheld during the window.  Processes not listed form an
        implicit extra group.
    start / end:
        The partition window in simulated time (``end`` exclusive).
        After ``end``, everything (including the backlog) flows again.
        ``start == end`` is the *empty* window — a partition that never
        takes effect — which is what a shrinking counterexample
        degenerates to, so it is legal rather than an error.
    """

    def __init__(self, groups: Sequence[Set[int]], start: int, end: int):
        if start > end:
            raise ValueError(f"partition window [{start}, {end}) is inverted")
        seen: Set[int] = set()
        for group in groups:
            if seen & set(group):
                raise ValueError("groups must be disjoint")
            seen |= set(group)
        self.groups = [set(g) for g in groups]
        self.start = start
        self.end = end

    def _group_of(self, pid: int) -> int:
        for index, group in enumerate(self.groups):
            if pid in group:
                return index
        return len(self.groups)  # the implicit remainder group

    def severed(self, msg: Message, now: int) -> bool:
        if not self.start <= now < self.end:
            return False
        return self._group_of(msg.sender) != self._group_of(msg.dest)

    def choose(
        self, ready: List[Message], now: int, rng: random.Random
    ) -> Optional[Message]:
        passable = [m for m in ready if not self.severed(m, now)]
        if not passable:
            return None
        return min(passable, key=lambda m: (m.send_time, m.msg_id))
