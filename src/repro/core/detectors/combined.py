"""Product failure detectors (D, D').

The paper composes detectors by pairing: "(D, D') is the failure
detector that outputs a vector with two components, the first being the
output of D and the second being the output of D'" (footnote 2).  The
two headline products are (Ω, Σ) — the weakest detector for consensus —
and (Ψ, FS) — the weakest detector for NBAC.
"""

from __future__ import annotations

import random

from repro.core.detector import FailureDetector
from repro.core.detectors.omega import OmegaOracle
from repro.core.detectors.sigma import SigmaOracle
from repro.core.failure_pattern import FailurePattern
from repro.core.history import FailureDetectorHistory, product_history


class ProductOracle(FailureDetector):
    """The product (D, D') of two oracles.

    Each component is sampled independently (with RNGs split from the
    caller's), and the emitted value at ``(p, t)`` is the pair of
    component values at ``(p, t)``.
    """

    def __init__(self, first: FailureDetector, second: FailureDetector):
        self.first = first
        self.second = second
        self.name = f"({first.name}, {second.name})"

    def build_history(
        self,
        pattern: FailurePattern,
        horizon: int,
        rng: random.Random,
    ) -> FailureDetectorHistory:
        rng_first = random.Random(rng.randrange(2**62))
        rng_second = random.Random(rng.randrange(2**62))
        h_first = self.first.build_history(pattern, horizon, rng_first)
        h_second = self.second.build_history(pattern, horizon, rng_second)

        return product_history(h_first, h_second)

    def __repr__(self) -> str:
        return f"ProductOracle({self.first!r}, {self.second!r})"


def omega_sigma_oracle(
    noisy: bool = True,
    churn_period: int = 7,
    reshuffle_period: int = 5,
    stabilization_span: int | None = None,
) -> ProductOracle:
    """The (Ω, Σ) oracle — the weakest detector to solve consensus.

    ``churn_period`` / ``reshuffle_period`` / ``stabilization_span``
    thread through to the component oracles; the defaults reproduce the
    historical histories exactly, while ``1``/``1``/large is the chaos
    harness's maximal in-spec perturbation.
    """
    return ProductOracle(
        OmegaOracle(
            noisy=noisy,
            churn_period=churn_period,
            stabilization_span=stabilization_span,
        ),
        SigmaOracle(
            noisy=noisy,
            reshuffle_period=reshuffle_period,
            stabilization_span=stabilization_span,
        ),
    )
