"""Statistical support: bootstrap confidence intervals for shares and
risk ratios.

The paper reports point estimates ("five times more likely"); with a
1/50-scale substrate, absolute counts are small enough that interval
estimates matter, so the abuse benches report bootstrap CIs alongside
the ratios.

numpy is imported inside the two bootstrap functions, not at module
level: nothing on the serve path calls them, and every process that
imports :mod:`repro.core` would otherwise pay numpy's import time and
memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["BootstrapCI", "share_ci", "risk_ratio_ci"]


@dataclass(frozen=True)
class BootstrapCI:
    """A point estimate with a percentile-bootstrap interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    def contains(self, value: float) -> bool:
        """True when *value* lies inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{self.estimate:.4f} "
            f"[{self.low:.4f}, {self.high:.4f}]@{self.confidence:.0%}"
        )


def share_ci(
    successes: int,
    total: int,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> BootstrapCI:
    """Bootstrap CI for a binomial share ``successes/total``."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= successes <= total:
        raise ValueError("successes out of range")
    import numpy as np

    rng = np.random.default_rng(seed)
    draws = rng.binomial(total, successes / total, size=resamples) / total
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(draws, [alpha, 1.0 - alpha])
    return BootstrapCI(
        estimate=successes / total,
        low=float(low),
        high=float(high),
        confidence=confidence,
    )


def risk_ratio_ci(
    exposed_successes: int,
    exposed_total: int,
    control_successes: int,
    control_total: int,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> BootstrapCI:
    """Bootstrap CI for the ratio of two shares (risk ratio).

    Resamples both binomials independently; resamples where the control
    share is zero are discarded (the ratio is undefined there), matching
    standard practice for sparse counts.
    """
    for successes, total in (
        (exposed_successes, exposed_total),
        (control_successes, control_total),
    ):
        if total <= 0:
            raise ValueError("totals must be positive")
        if not 0 <= successes <= total:
            raise ValueError("successes out of range")
    if control_successes == 0:
        raise ValueError("control share is zero; ratio undefined")
    import numpy as np

    rng = np.random.default_rng(seed)
    exposed = (
        rng.binomial(
            exposed_total, exposed_successes / exposed_total, size=resamples
        )
        / exposed_total
    )
    control = (
        rng.binomial(
            control_total, control_successes / control_total, size=resamples
        )
        / control_total
    )
    valid = control > 0
    ratios = exposed[valid] / control[valid]
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(ratios, [alpha, 1.0 - alpha])
    estimate = (exposed_successes / exposed_total) / (
        control_successes / control_total
    )
    return BootstrapCI(
        estimate=estimate,
        low=float(low),
        high=float(high),
        confidence=confidence,
    )
