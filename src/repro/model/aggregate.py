"""Aggregate video-traffic moments (Section 6.1, Equations (1)-(4)).

Sessions arrive as a Poisson process with rate ``lam``; the n-th session
downloads a video of size ``S_n = e_n * L_n`` at download-rate process
``X_n(t)``.  Following the flow-based framework of Barakat et al. [14]:

    E[R(t)] = lam * E[S_n]                              (1)
    Var[R(t)] = lam * E[ integral_0^D X_n^2(u) du ]     (2)

For a constant download rate ``G_n`` these become

    E[R(t)] = lam * E[e_n] * E[L_n]                     (3)
    Var[R(t)] = lam * E[e_n * L_n * G_n]                (4)

Equation (3) additionally assumes the encoding rate and duration are
independent (as the paper implicitly does); :func:`aggregate_mean_exact`
uses the exact ``E[S]`` when a catalog is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..workloads.catalog import Catalog


@dataclass(frozen=True)
class PopulationMoments:
    """First moments of the video/session population."""

    mean_rate_bps: float       # E[e]
    mean_duration_s: float     # E[L]
    mean_size_bits: float      # E[S] = E[e*L], exact
    mean_e_l_g: float          # E[e*L*G], exact (bits^2/s units)

    @classmethod
    def from_catalog(cls, catalog: Catalog,
                     download_rate_bps: float) -> "PopulationMoments":
        """Moments of a catalog whose sessions all download at ``G``."""
        rates = [v.encoding_rate_bps for v in catalog]
        durations = [v.duration for v in catalog]
        sizes = [e * d for e, d in zip(rates, durations)]
        n = len(catalog)
        return cls(
            mean_rate_bps=sum(rates) / n,
            mean_duration_s=sum(durations) / n,
            mean_size_bits=sum(sizes) / n,
            mean_e_l_g=sum(s * download_rate_bps for s in sizes) / n,
        )


def aggregate_mean_exact(lam: float, moments: PopulationMoments) -> float:
    """Equation (1): E[R] = lam * E[S], in bits/second."""
    _check_lam(lam)
    return lam * moments.mean_size_bits


def aggregate_mean_factored(lam: float, mean_rate_bps: float,
                            mean_duration_s: float) -> float:
    """Equation (3): E[R] = lam * E[e] * E[L] (assumes e and L independent)."""
    _check_lam(lam)
    return lam * mean_rate_bps * mean_duration_s


def aggregate_variance(lam: float, moments: PopulationMoments) -> float:
    """Equation (4): Var[R] = lam * E[e*L*G], in (bits/second)^2."""
    _check_lam(lam)
    return lam * moments.mean_e_l_g


def aggregate_variance_factored(lam: float, mean_rate_bps: float,
                                mean_duration_s: float,
                                mean_download_bps: float) -> float:
    """Equation (4) under independence: Var[R] = lam * E[e] E[L] E[G]."""
    _check_lam(lam)
    return lam * mean_rate_bps * mean_duration_s * mean_download_bps


def coefficient_of_variation(mean: float, variance: float) -> float:
    """sqrt(Var)/E — the paper's smoothness measure.

    For fixed lam and durations, CV = sqrt(E[G] / (lam E[e] E[L])): raising
    encoding rates makes the aggregate *relatively* smoother (Section 6.1,
    conclusion 3).
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean!r}")
    if variance < 0:
        raise ValueError(f"variance must be >= 0, got {variance!r}")
    return math.sqrt(variance) / mean


def _check_lam(lam: float) -> None:
    if lam <= 0:
        raise ValueError(f"arrival rate must be positive, got {lam!r}")
