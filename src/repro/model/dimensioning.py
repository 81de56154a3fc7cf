"""Network dimensioning rules and what-if analyses (Section 6.1's uses).

The paper proposes sizing links carrying video traffic at
``E[R] + alpha * sqrt(Var[R])`` and uses the model to reason about
migrations: what happens to the required capacity and to traffic
smoothness when resolutions (encoding rates) rise, when durations change,
or when one streaming strategy displaces another (answer: nothing, for the
strategy — the invariance result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .aggregate import (
    PopulationMoments,
    aggregate_mean_exact,
    aggregate_variance,
    coefficient_of_variation,
)


def mean_concurrent_sessions(lam: float, mean_download_time_s: float) -> float:
    """Expected number of simultaneously active downloads.

    Poisson arrivals with independent download durations form an M/G/inf
    system: the active count is Poisson with mean ``lam * E[D]``.  Note
    that E[D] — unlike the rate moments — *does* depend on the strategy:
    throttled strategies stretch the download (D' > D in Section 6.1), so
    a streaming server provisioned by concurrent connections (not
    bandwidth) does care which strategy it deploys.
    """
    if lam <= 0:
        raise ValueError(f"arrival rate must be positive, got {lam!r}")
    if mean_download_time_s <= 0:
        raise ValueError(
            f"mean download time must be positive, got {mean_download_time_s!r}")
    return lam * mean_download_time_s


def concurrent_sessions_quantile(lam: float, mean_download_time_s: float,
                                 q: float = 0.99) -> int:
    """An upper quantile of the concurrent-session count (server sizing).

    Uses the normal approximation to the Poisson (mean = variance =
    ``lam * E[D]``), which is accurate for the double-digit session counts
    a streaming server worries about.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q!r}")
    mean = mean_concurrent_sessions(lam, mean_download_time_s)
    # inverse normal CDF via the Acklam rational approximation's simple
    # cousin: binary search on erf is plenty here
    lo, hi = 0.0, mean + 20 * math.sqrt(mean) + 20
    target = q
    for _ in range(80):
        mid = (lo + hi) / 2
        value = 0.5 * (1 + math.erf((mid - mean) / math.sqrt(2 * mean)))
        if value < target:
            lo = mid
        else:
            hi = mid
    return int(math.ceil(hi))


def required_capacity(mean_bps: float, variance_bps2: float,
                      alpha: float = 2.0) -> float:
    """The E[R] + alpha*sqrt(V_R) provisioning rule (alpha >= 1)."""
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha!r}")
    if mean_bps < 0 or variance_bps2 < 0:
        raise ValueError("moments must be non-negative")
    return mean_bps + alpha * math.sqrt(variance_bps2)


@dataclass(frozen=True)
class ProvisioningPlan:
    """Capacity planning outcome for one scenario."""

    lam: float
    mean_bps: float
    variance_bps2: float
    alpha: float

    @property
    def capacity_bps(self) -> float:
        return required_capacity(self.mean_bps, self.variance_bps2, self.alpha)

    @property
    def smoothness_cv(self) -> float:
        return coefficient_of_variation(self.mean_bps, self.variance_bps2)

    @property
    def headroom_share(self) -> float:
        """Capacity share reserved for variability."""
        return 1.0 - self.mean_bps / self.capacity_bps


def plan_for(lam: float, moments: PopulationMoments,
             alpha: float = 2.0) -> ProvisioningPlan:
    """Dimension a link for Poisson sessions with the given population."""
    return ProvisioningPlan(
        lam=lam,
        mean_bps=aggregate_mean_exact(lam, moments),
        variance_bps2=aggregate_variance(lam, moments),
        alpha=alpha,
    )


@dataclass(frozen=True)
class MigrationEffect:
    """Before/after comparison for a what-if migration."""

    label: str
    before: ProvisioningPlan
    after: ProvisioningPlan

    @property
    def capacity_ratio(self) -> float:
        return self.after.capacity_bps / self.before.capacity_bps

    @property
    def mean_ratio(self) -> float:
        return self.after.mean_bps / self.before.mean_bps

    @property
    def smoothness_ratio(self) -> float:
        """< 1 means the aggregate got smoother."""
        return self.after.smoothness_cv / self.before.smoothness_cv


def encoding_rate_migration(
    lam: float,
    moments: PopulationMoments,
    rate_scale: float,
    alpha: float = 2.0,
    label: str = "encoding-rate increase",
) -> MigrationEffect:
    """Scale every encoding rate by ``rate_scale`` (e.g. a default-resolution
    bump) and report the effect: mean and variance grow linearly, so the
    CV shrinks by 1/sqrt(scale) — "higher rates, smoother traffic"."""
    if rate_scale <= 0:
        raise ValueError(f"rate_scale must be positive, got {rate_scale!r}")
    scaled = PopulationMoments(
        mean_rate_bps=moments.mean_rate_bps * rate_scale,
        mean_duration_s=moments.mean_duration_s,
        mean_size_bits=moments.mean_size_bits * rate_scale,
        mean_e_l_g=moments.mean_e_l_g * rate_scale,
    )
    return MigrationEffect(
        label=label,
        before=plan_for(lam, moments, alpha),
        after=plan_for(lam, scaled, alpha),
    )
