"""Reliable asynchronous links.

The model's links are reliable — every message sent to a correct
process is eventually received — but delays are finite, unbounded and
variable.  The network assigns each message a *ready time* sampled from
a :class:`DelayModel`; a message can be delivered to its recipient at
any step at or after its ready time.  Which ready message a scheduled
process actually receives is chosen by a :class:`DeliveryPolicy` (the
adversary's second knob, next to the process scheduler).

Reliability is guaranteed by the default oldest-first policy combined
with a fair scheduler; the adversarial policies may intentionally
starve messages (useful for FLP-style non-termination demonstrations)
and are clearly marked as unfair.

One production engine and one oracle implement the same contract:

* :class:`Network` — what every run uses: *indexed* per-destination
  buffers, a not-yet-ready min-heap keyed on ``ready_at`` plus a ready
  pool with O(1) membership removal, so ``ready_for``/``pick_for`` cost
  O(ready + log pending) instead of O(pending).  The default
  oldest-first policy additionally gets an O(log ready) fast path over
  a ``(send_time, msg_id)`` heap that never materializes a ready list.
* :class:`ReferenceNetwork` — the seed's flat-list implementation, kept
  verbatim as the behavioral oracle for the golden determinism suite
  and the simulator benchmarks.

How either stores its messages is known to this module alone; code that
needs the in-flight set (the explorer's fingerprints) asks
``in_flight(dest)``.

Both engines hand every :meth:`DeliveryPolicy.choose` implementation
the same ready list in the same order (per-destination insertion order,
which — because message ids are allocated at enqueue time from one
global counter — is exactly ascending ``msg_id`` order), so arbitrary
policies, the chaos adversaries and ``duplicate_after`` hooks observe
bit-identical runs on either engine.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.perf import PerfCounters


@dataclass
class Message:
    """An in-flight message.

    ``component`` routes the payload to the receiver's component of the
    same name (processes are stacks of components — algorithm, detector
    implementation, instrumentation).  ``meta`` is mutable middleware
    state (e.g. causality tags for the Figure 1 extraction).
    """

    msg_id: int
    sender: int
    dest: int
    component: str
    payload: Any
    send_time: int
    ready_at: int
    meta: Dict[str, Any] = field(default_factory=dict)


class DelayModel(ABC):
    """Samples per-message delivery delays."""

    @abstractmethod
    def sample(self, rng: random.Random, sender: int, dest: int) -> int:
        """A delay >= 1 in simulated time units."""


class ConstantDelay(DelayModel):
    """Every message becomes deliverable after a fixed delay."""

    def __init__(self, delay: int = 1):
        if delay < 1:
            raise ValueError("delay must be >= 1")
        self.delay = delay

    def sample(self, rng: random.Random, sender: int, dest: int) -> int:
        return self.delay


class UniformDelay(DelayModel):
    """Delays drawn uniformly from [lo, hi]."""

    def __init__(self, lo: int = 1, hi: int = 10):
        if not 1 <= lo <= hi:
            raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def sample(self, rng: random.Random, sender: int, dest: int) -> int:
        return rng.randint(self.lo, self.hi)


class SpikeDelay(DelayModel):
    """Mostly-short delays with occasional long spikes (heavy tail)."""

    def __init__(
        self,
        base_hi: int = 5,
        spike_hi: int = 200,
        spike_probability: float = 0.02,
    ):
        if not 0 <= spike_probability <= 1:
            raise ValueError("spike_probability must be in [0, 1]")
        self.base_hi = base_hi
        self.spike_hi = spike_hi
        self.spike_probability = spike_probability

    def sample(self, rng: random.Random, sender: int, dest: int) -> int:
        if rng.random() < self.spike_probability:
            return rng.randint(self.base_hi + 1, self.spike_hi)
        return rng.randint(1, self.base_hi)


class DeliveryPolicy(ABC):
    """Chooses which ready message (if any) a scheduled process receives."""

    #: Whether the policy preserves the model's reliability guarantee.
    fair: bool = True

    #: A promise that :meth:`choose` is exactly
    #: ``min(ready, key=lambda m: (m.send_time, m.msg_id))`` and never
    #: returns None on a non-empty ready list.  The indexed network then
    #: serves picks from a ``(send_time, msg_id)`` heap without
    #: materializing the ready list.  Policies that wrap an inner
    #: selector (e.g. the chaos duplication policy) forward their
    #: inner's value; anything with bespoke selection leaves it False.
    oldest_first_selection: bool = False

    @abstractmethod
    def choose(
        self, ready: List[Message], now: int, rng: random.Random
    ) -> Optional[Message]:
        """Pick one of ``ready`` (non-empty) or None for a λ-step."""

    def duplicate_after(
        self, msg: Message, now: int, rng: random.Random
    ) -> Optional[int]:
        """Hook: re-deliver ``msg`` later?  Called by the network right
        after ``msg`` is removed from the buffer and handed to its
        recipient.  Returning an ``extra >= 1`` re-enqueues a copy that
        becomes ready at ``now + extra``; returning None (the default)
        delivers each message at most once.  Duplication policies
        (chaos harness) override this instead of re-implementing
        :meth:`choose`.
        """
        return None


class OldestFirstDelivery(DeliveryPolicy):
    """Deliver the longest-waiting ready message — fair by construction."""

    fair = True
    oldest_first_selection = True

    def choose(
        self, ready: List[Message], now: int, rng: random.Random
    ) -> Optional[Message]:
        return min(ready, key=lambda m: (m.send_time, m.msg_id))


class RandomDelivery(DeliveryPolicy):
    """Deliver a uniformly random ready message.

    Fair with probability 1 over infinite runs; on bounded horizons a
    message can be unlucky, so tests that need every message delivered
    use :class:`OldestFirstDelivery`.
    """

    fair = True

    def choose(
        self, ready: List[Message], now: int, rng: random.Random
    ) -> Optional[Message]:
        return ready[rng.randrange(len(ready))]


class HoldingDelivery(DeliveryPolicy):
    """An *unfair* adversary that refuses to deliver selected messages.

    ``held`` is a predicate on messages; matching messages are never
    delivered while the predicate holds.  Used by the FLP experiment to
    keep a detector-free consensus run undecided.
    """

    fair = False

    def __init__(self, held: Callable[[Message, int], bool]):
        self.held = held

    def choose(
        self, ready: List[Message], now: int, rng: random.Random
    ) -> Optional[Message]:
        free = [m for m in ready if not self.held(m, now)]
        if not free:
            return None
        return min(free, key=lambda m: (m.send_time, m.msg_id))


class _DestBuffer:
    """One destination's indexed message store.

    ``future`` is a min-heap of ``(ready_at, msg_id, message)`` — the
    not-yet-ready set.  ``ready`` maps ``msg_id -> message`` for
    deliverable messages: dict insertion gives O(1) membership removal
    and iteration over ``sorted(ready)`` reproduces per-destination
    insertion order (ascending msg_id).  ``oldest`` is a lazy-deleted
    ``(send_time, msg_id)`` heap over the ready pool serving the
    oldest-first fast path; entries whose msg_id has left ``ready`` are
    discarded on pop.
    """

    __slots__ = ("future", "ready", "oldest")

    def __init__(self) -> None:
        self.future: List[Tuple[int, int, Message]] = []
        self.ready: Dict[int, Message] = {}
        self.oldest: List[Tuple[int, int]] = []


class Network:
    """The message buffer plus delay/delivery machinery (indexed engine)."""

    def __init__(
        self,
        n: int,
        rng: random.Random,
        delay_model: Optional[DelayModel] = None,
        delivery_policy: Optional[DeliveryPolicy] = None,
        perf: Optional[PerfCounters] = None,
    ):
        self.n = n
        self._rng = rng
        self.delay_model = delay_model or UniformDelay(1, 8)
        self.delivery_policy = delivery_policy or OldestFirstDelivery()
        self.perf = perf if perf is not None else PerfCounters()
        self._buffers: List[_DestBuffer] = [_DestBuffer() for _ in range(n)]
        self._next_msg_id = 0
        self.sent_count = 0
        self.delivered_count = 0
        self.duplicated_count = 0

    def send(
        self,
        sender: int,
        dest: int,
        component: str,
        payload: Any,
        now: int,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Message:
        """Place a message in the buffer; returns the in-flight record."""
        if not 0 <= dest < self.n:
            raise ValueError(f"unknown destination {dest}")
        delay = self.delay_model.sample(self._rng, sender, dest)
        msg = Message(
            msg_id=self._next_msg_id,
            sender=sender,
            dest=dest,
            component=component,
            payload=payload,
            send_time=now,
            ready_at=now + delay,
            meta=dict(meta or {}),
        )
        self._next_msg_id += 1
        self._enqueue(msg)
        self.sent_count += 1
        self.perf.messages_sent += 1
        return msg

    def _enqueue(self, msg: Message) -> None:
        buf = self._buffers[msg.dest]
        heappush(buf.future, (msg.ready_at, msg.msg_id, msg))
        self.perf.heap_pushes += 1

    def _promote(self, buf: _DestBuffer, now: int) -> None:
        """Move every message with ``ready_at <= now`` into the ready pool."""
        future = buf.future
        if not future or future[0][0] > now:
            return
        ready = buf.ready
        oldest = buf.oldest
        perf = self.perf
        moved = 0
        while future and future[0][0] <= now:
            _, msg_id, msg = heappop(future)
            ready[msg_id] = msg
            heappush(oldest, (msg.send_time, msg_id))
            moved += 1
        perf.heap_pops += moved
        perf.heap_pushes += moved
        perf.ready_promotions += moved

    def ready_for(self, dest: int, now: int) -> List[Message]:
        """Messages deliverable to ``dest`` at time ``now``.

        Returned in per-destination insertion order — ascending msg_id —
        exactly as the reference engine's pending-list filter yields.
        """
        buf = self._buffers[dest]
        self._promote(buf, now)
        ready = buf.ready
        self.perf.messages_scanned += len(ready)
        if not ready:
            return []
        return [ready[msg_id] for msg_id in sorted(ready)]

    def pick_for(self, dest: int, now: int) -> Optional[Message]:
        """Remove and return the message ``dest`` receives this step.

        Returns None for a λ-step (no ready message, or the policy
        withheld them all).
        """
        buf = self._buffers[dest]
        self._promote(buf, now)
        ready = buf.ready
        if not ready:
            return None
        policy = self.delivery_policy
        perf = self.perf
        msg: Optional[Message] = None
        if policy.oldest_first_selection:
            oldest = buf.oldest
            while oldest:
                _, msg_id = oldest[0]
                if msg_id in ready:
                    heappop(oldest)
                    perf.heap_pops += 1
                    perf.fast_path_picks += 1
                    perf.messages_scanned += 1
                    msg = ready.pop(msg_id)
                    break
                heappop(oldest)  # stale: delivered via the generic path
                perf.heap_pops += 1
        if msg is None:
            ready_list = [ready[msg_id] for msg_id in sorted(ready)]
            perf.messages_scanned += len(ready_list)
            msg = policy.choose(ready_list, now, self._rng)
            if msg is None:
                return None
            del ready[msg.msg_id]
        self.delivered_count += 1
        perf.messages_delivered += 1
        self._maybe_duplicate(policy, msg, now)
        return msg

    def _maybe_duplicate(
        self, policy: DeliveryPolicy, msg: Message, now: int
    ) -> None:
        """Re-enqueue a copy if the policy's duplicate_after hook asks."""
        extra = policy.duplicate_after(msg, now, self._rng)
        if extra is not None:
            if extra < 1:
                raise ValueError(f"duplicate delay must be >= 1, got {extra}")
            copy = Message(
                msg_id=self._next_msg_id,
                sender=msg.sender,
                dest=msg.dest,
                component=msg.component,
                payload=msg.payload,
                send_time=msg.send_time,
                ready_at=now + extra,
                meta=dict(msg.meta),
            )
            self._next_msg_id += 1
            self._enqueue(copy)
            self.duplicated_count += 1

    def restore(
        self,
        messages: Iterable[Message],
        next_msg_id: int,
        sent: int,
        delivered: int,
    ) -> None:
        """Put the buffers back to an earlier moment of this run.

        ``messages`` becomes the whole in-flight set (the caller passes
        the original :class:`Message` objects, ``ready_at`` and
        ``meta`` as they were), and the id allocator and the
        sent/delivered totals are set to the given values — so the next
        send gets the id it got the first time.  The explorer's rewind
        is the caller; it knows the past from its own journal of sent
        and delivered messages.  Policies that keep state of their own
        (and ``duplicated_count``) are not the buffers' to restore.
        """
        self._buffers = [_DestBuffer() for _ in range(self.n)]
        for msg in messages:
            self._enqueue(msg)
        self._next_msg_id = next_msg_id
        self.sent_count = sent
        self.delivered_count = delivered

    def in_flight(self, dest: int) -> List[Message]:
        """Every buffered message for ``dest``, ready or not, in no
        particular order."""
        buf = self._buffers[dest]
        return [m for _, _, m in buf.future] + list(buf.ready.values())

    def pending_count(self, dest: Optional[int] = None) -> int:
        if dest is None:
            return sum(
                len(buf.future) + len(buf.ready) for buf in self._buffers
            )
        buf = self._buffers[dest]
        return len(buf.future) + len(buf.ready)

    def next_ready_time(self, dests: Iterable[int], now: int) -> Optional[int]:
        """Earliest time a buffered message for ``dests`` is deliverable.

        Returns ``now`` (or earlier) if something is already ready,
        the earliest future ``ready_at`` otherwise, and None when
        nothing at all is buffered for those destinations.  The
        quiescence time-leap uses this to bound how far it may jump.
        """
        best: Optional[int] = None
        for dest in dests:
            buf = self._buffers[dest]
            if buf.ready:
                return now
            if buf.future:
                top = buf.future[0][0]
                if top <= now:  # deliverable, just not yet promoted
                    return now
                if best is None or top < best:
                    best = top
        return best


class ReferenceNetwork:
    """The seed's flat-list buffer engine, kept as the behavioral oracle.

    Every pick rescans the destination's whole pending list — O(pending)
    per step — which is exactly the cost profile the indexed engine
    removes.  The golden determinism suite runs both engines over the
    same specs and asserts bit-identical traces;
    ``tests/sim/test_network_indexed.py`` pins the gap in scans per
    delivery.  No option, spec field or flag selects it: a
    test reaches it with ``with repro.sim.system.network_implementation(
    ReferenceNetwork):`` around whatever builds the system.
    """

    def __init__(
        self,
        n: int,
        rng: random.Random,
        delay_model: Optional[DelayModel] = None,
        delivery_policy: Optional[DeliveryPolicy] = None,
        perf: Optional[PerfCounters] = None,
    ):
        self.n = n
        self._rng = rng
        self.delay_model = delay_model or UniformDelay(1, 8)
        self.delivery_policy = delivery_policy or OldestFirstDelivery()
        self.perf = perf if perf is not None else PerfCounters()
        self._pending: List[List[Message]] = [[] for _ in range(n)]
        self._next_msg_id = 0
        self.sent_count = 0
        self.delivered_count = 0
        self.duplicated_count = 0

    def send(
        self,
        sender: int,
        dest: int,
        component: str,
        payload: Any,
        now: int,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Message:
        """Place a message in the buffer; returns the in-flight record."""
        if not 0 <= dest < self.n:
            raise ValueError(f"unknown destination {dest}")
        delay = self.delay_model.sample(self._rng, sender, dest)
        msg = Message(
            msg_id=self._next_msg_id,
            sender=sender,
            dest=dest,
            component=component,
            payload=payload,
            send_time=now,
            ready_at=now + delay,
            meta=dict(meta or {}),
        )
        self._next_msg_id += 1
        self._pending[dest].append(msg)
        self.sent_count += 1
        self.perf.messages_sent += 1
        return msg

    def ready_for(self, dest: int, now: int) -> List[Message]:
        """Messages deliverable to ``dest`` at time ``now``."""
        pending = self._pending[dest]
        self.perf.messages_scanned += len(pending)
        return [m for m in pending if m.ready_at <= now]

    def pick_for(self, dest: int, now: int) -> Optional[Message]:
        """Remove and return the message ``dest`` receives this step."""
        ready = self.ready_for(dest, now)
        if not ready:
            return None
        msg = self.delivery_policy.choose(ready, now, self._rng)
        if msg is None:
            return None
        self._pending[dest].remove(msg)
        self.delivered_count += 1
        self.perf.messages_delivered += 1
        extra = self.delivery_policy.duplicate_after(msg, now, self._rng)
        if extra is not None:
            if extra < 1:
                raise ValueError(f"duplicate delay must be >= 1, got {extra}")
            copy = Message(
                msg_id=self._next_msg_id,
                sender=msg.sender,
                dest=msg.dest,
                component=msg.component,
                payload=msg.payload,
                send_time=msg.send_time,
                ready_at=now + extra,
                meta=dict(msg.meta),
            )
            self._next_msg_id += 1
            self._pending[dest].append(copy)
            self.duplicated_count += 1
        return msg

    def restore(
        self,
        messages: Iterable[Message],
        next_msg_id: int,
        sent: int,
        delivered: int,
    ) -> None:
        """Flat-list twin of :meth:`Network.restore`; ``messages`` must
        come in ascending ``msg_id`` order (the pending lists are kept
        in insertion order)."""
        self._pending = [[] for _ in range(self.n)]
        for msg in messages:
            self._pending[msg.dest].append(msg)
        self._next_msg_id = next_msg_id
        self.sent_count = sent
        self.delivered_count = delivered

    def in_flight(self, dest: int) -> List[Message]:
        """Twin of :meth:`Network.in_flight`."""
        return list(self._pending[dest])

    def pending_count(self, dest: Optional[int] = None) -> int:
        if dest is None:
            return sum(len(q) for q in self._pending)
        return len(self._pending[dest])

    def next_ready_time(self, dests: Iterable[int], now: int) -> Optional[int]:
        """O(pending) twin of :meth:`Network.next_ready_time`."""
        best: Optional[int] = None
        for dest in dests:
            for msg in self._pending[dest]:
                if msg.ready_at <= now:
                    return now
                if best is None or msg.ready_at < best:
                    best = msg.ready_at
        return best
