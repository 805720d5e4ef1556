"""Named-stream seeded randomness.

A simulation draws randomness for several independent purposes —
scheduling, message delays, crash sampling, detector histories, and
algorithm-internal coin flips.  Seeding a single ``random.Random`` for
all of them makes experiments brittle: adding one extra draw in the
scheduler would reshuffle every crash time.  :class:`RngStreams` derives
one independent child generator per named purpose from a root seed, so
each dimension of a run is reproducible in isolation.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """A stable 64-bit seed derived from ``root_seed`` and ``name``.

    Uses SHA-256 rather than ``hash()`` so that derived seeds are stable
    across interpreter runs and PYTHONHASHSEED settings.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A family of independent, reproducible RNG streams.

    >>> streams = RngStreams(42)
    >>> a = streams.get("scheduler").random()
    >>> b = RngStreams(42).get("scheduler").random()
    >>> a == b
    True
    """

    def __init__(self, root_seed: int):
        self.root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """The generator for stream ``name`` (created on first use)."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.root_seed, name))
        return self._streams[name]

    def fork(self, name: str) -> "RngStreams":
        """A child family, independent of this one and of other forks."""
        return RngStreams(derive_seed(self.root_seed, f"fork:{name}"))


def draw_below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for an int ``n >= 1``, without its frames.

    CPython's ``randrange(n)`` checks its argument and hands ``n`` to
    ``_randbelow_with_getrandbits``: draw ``n.bit_length()`` bits and
    redraw until the value is below ``n``.  This is that rejection
    loop and nothing else, so it consumes the generator's stream
    exactly as ``randrange(n)`` does and returns the same value —
    ``lo + draw_below(rng, hi - lo + 1)`` is likewise
    ``rng.randint(lo, hi)``.  ``tests/sim/test_rng.py`` holds it to
    both across seeds and bounds.  It does no argument checks: the
    caller guarantees ``n >= 1``.
    """
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r
