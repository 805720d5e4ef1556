"""Failure detector samples and the DAG G_p.

Task 1 of Figure 3 (lines 2-7): every process repeatedly samples its
failure detector module and exchanges samples with the others, building
"an ever-increasing DAG G_p of failure detector samples".

Structure (as in [3]): when process ``q`` takes its ``k``-th sample, the
new vertex receives an edge from *every* vertex currently in ``G_q``.
That makes edges representable implicitly: each sample carries a
*knowledge vector* ``know`` with ``know[r]`` = the highest sequence
number of ``r``'s samples present in ``G_q`` at creation time.  Then

    (r, j) ≺ (q, k)   iff   j ≤ know_{(q,k)}[r]

and the relation is transitive because later samples of ``q`` know at
least everything earlier ones did.  Merging DAGs (gossip) is a plain
union of sample sets — vectors never change after creation.

That monotonicity is an *enforced* invariant, not an accident of how
honest samplers build their vectors: a sample is admitted to a process's
list only if ``know`` has ``n`` entries, ``know[pid] == seq - 1`` and
``know`` is componentwise ``>=`` its predecessor's
(:meth:`SampleDag._admit`; anything else is a ``ValueError``).  Hence
for every vertex ``u`` and process ``q`` the samples of ``q`` that
descend from ``u`` form a *suffix* of ``q``'s list, and
:meth:`SampleDag.first_descendant` finds where it starts by bisection —
what line 29's "subgraph induced by the descendants of u" is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class Sample:
    """One failure detector sample — a vertex of the DAG.

    ``seq`` starts at 1; ``know[r]`` is the number of ``r``-samples in
    the sampler's DAG when this one was taken (0 = none).  Note
    ``know[pid] == seq - 1`` always: a sample knows all its
    predecessors from the same process.
    """

    pid: int
    seq: int
    value: Any
    know: Tuple[int, ...]

    def descends_from(self, other: "Sample") -> bool:
        """Whether ``other ≺ self`` in the DAG."""
        return self.know[other.pid] >= other.seq

    def compatible_after(self, pid: int, seq: int) -> bool:
        """Whether this sample may follow vertex ``(pid, seq)`` on a path."""
        if seq == 0:
            return True  # path start: anything goes
        return self.know[pid] >= seq


class SampleDag:
    """The DAG ``G_p`` of one process: per-process sample lists.

    Samples of each process are stored in sequence order with no gaps up
    to the highest *contiguous* prefix; out-of-order gossip arrivals are
    parked until their predecessors arrive, so :meth:`samples_of` always
    returns a gap-free prefix (simulation needs every sample's content).
    """

    def __init__(self, n: int):
        self.n = n
        self._samples: List[List[Sample]] = [[] for _ in range(n)]
        self._parked: Dict[Tuple[int, int], Sample] = {}

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def take_sample(self, pid: int, value: Any) -> Sample:
        """Record a fresh local sample (edges from all current vertices)."""
        know = tuple(len(self._samples[q]) for q in range(self.n))
        sample = Sample(pid=pid, seq=know[pid] + 1, value=value, know=know)
        self._admit(sample)
        return sample

    def merge(self, samples: Iterable[Sample]) -> int:
        """Union in gossiped samples; returns how many were new."""
        added = 0
        for sample in samples:
            key = (sample.pid, sample.seq)
            if self.contains(*key) or key in self._parked:
                continue
            self._parked[key] = sample
            added += 1
        self._unpark()
        return added

    def _unpark(self) -> None:
        # Admission of q's next sample depends only on q's own list, so
        # one drain per process reaches the fixpoint.
        for pid, samples in enumerate(self._samples):
            while self._parked:
                sample = self._parked.pop((pid, len(samples) + 1), None)
                if sample is None:
                    break
                self._admit(sample)

    def _admit(self, sample: Sample) -> None:
        """Append the next sample of its process, enforcing the
        monotone-``know`` invariant :meth:`first_descendant` bisects on."""
        samples = self._samples[sample.pid]
        know = sample.know
        ok = len(know) == self.n and know[sample.pid] == sample.seq - 1
        if ok and samples:
            ok = all(new >= old for new, old in zip(know, samples[-1].know))
        if not ok:
            raise ValueError(
                f"sample ({sample.pid}, {sample.seq}) has an inconsistent "
                f"knowledge vector {know!r}: need {self.n} entries, "
                f"know[{sample.pid}] == {sample.seq - 1} and no entry below "
                "its predecessor's"
            )
        samples.append(sample)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, pid: int, seq: int) -> bool:
        return 1 <= seq <= len(self._samples[pid])

    def count(self, pid: int) -> int:
        return len(self._samples[pid])

    def counts(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self._samples)

    def sample(self, pid: int, seq: int) -> Sample:
        return self._samples[pid][seq - 1]

    def samples_of(self, pid: int) -> List[Sample]:
        return list(self._samples[pid])

    def samples_view(self, pid: int) -> Sequence[Sample]:
        """``pid``'s samples in sequence order, *without* copying: the
        live list (index ``i`` holds seq ``i + 1``), read-only for the
        caller and growing with the DAG."""
        return self._samples[pid]

    def first_descendant(self, pid: int, u: Sample) -> int:
        """Index in ``pid``'s sample list of the first sample that
        descends from ``u`` (``count(pid)`` when none does yet).

        ``know[u.pid]`` is non-decreasing along the list, so the
        descendants of ``u`` are exactly the samples from that index on;
        the bisection probes ``O(log count(pid))`` knowledge vectors.
        """
        samples = self._samples[pid]
        lo, hi = 0, len(samples)
        while lo < hi:
            mid = (lo + hi) // 2
            if samples[mid].descends_from(u):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def all_samples(self) -> List[Sample]:
        out: List[Sample] = []
        for samples in self._samples:
            out.extend(samples)
        return out

    def delta_since(self, counts: Tuple[int, ...]) -> List[Sample]:
        """Samples not covered by a per-process count vector (gossip)."""
        out: List[Sample] = []
        for pid in range(self.n):
            out.extend(self._samples[pid][counts[pid]:])
        return out

    def total(self) -> int:
        return sum(len(s) for s in self._samples)
