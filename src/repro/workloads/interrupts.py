"""User-interruption models (Section 6.2's beta_n).

The paper grounds its interruption analysis in three measurement studies:

* Finamore et al. [16]: 60 % of YouTube videos are watched for less than
  20 % of their duration;
* Gill et al. [17]: 80 % of interruptions are due to lack of interest;
* Huang et al. [19]: viewing time decreases as video duration grows.

:class:`EmpiricalInterruptionModel` reproduces these aggregate statistics
with a mixture: a point mass of completed views plus a skewed Beta for the
watched fraction of abandoned views.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

INTEREST = "lack-of-interest"
QUALITY = "poor-quality"


@dataclass(frozen=True)
class Interruption:
    """One sampled viewing outcome."""

    beta: float              # fraction of the video watched, in (0, 1]
    completed: bool          # True when the whole video was watched
    reason: Optional[str]    # None when completed

    @property
    def interrupted(self) -> bool:
        return not self.completed


class InterruptionModel:
    """Base interface: sample a viewing outcome for a video duration."""

    def sample(self, rng: random.Random, duration: float) -> Interruption:
        raise NotImplementedError


class NoInterruption(InterruptionModel):
    """Everyone watches everything (the Section 6.1 regime)."""

    def sample(self, rng: random.Random, duration: float) -> Interruption:
        return Interruption(beta=1.0, completed=True, reason=None)


class FixedBetaModel(InterruptionModel):
    """Every viewer abandons after exactly ``beta`` of the video."""

    def __init__(self, beta: float) -> None:
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta!r}")
        self.beta = beta

    def sample(self, rng: random.Random, duration: float) -> Interruption:
        if self.beta >= 1.0:
            return Interruption(1.0, True, None)
        return Interruption(self.beta, False, INTEREST)


class EmpiricalInterruptionModel(InterruptionModel):
    """Mixture model calibrated against Finamore/Gill/Huang.

    With probability ``p_complete`` the video is watched in full.
    Otherwise the watched fraction is Beta(a, b)-distributed, and the
    abandonment reason is lack of interest with probability
    ``p_interest`` (else quality).  ``duration_sensitivity`` shrinks the
    completion probability for long videos (Huang et al.): the completion
    odds are scaled by ``(ref_duration / duration) ** duration_sensitivity``
    for videos longer than ``ref_duration``.

    Defaults reproduce "60 % of videos watched < 20 % of duration".
    """

    def __init__(
        self,
        p_complete: float = 0.15,
        beta_a: float = 0.45,
        beta_b: float = 2.5,
        p_interest: float = 0.8,
        duration_sensitivity: float = 0.3,
        ref_duration: float = 300.0,
    ) -> None:
        if not 0.0 <= p_complete < 1.0:
            raise ValueError(f"p_complete must be in [0, 1), got {p_complete!r}")
        if not 0.0 <= p_interest <= 1.0:
            raise ValueError(f"p_interest must be in [0, 1], got {p_interest!r}")
        self.p_complete = p_complete
        self.beta_a = beta_a
        self.beta_b = beta_b
        self.p_interest = p_interest
        self.duration_sensitivity = duration_sensitivity
        self.ref_duration = ref_duration

    def completion_probability(self, duration: float) -> float:
        """Duration-aware completion probability (Huang et al. effect)."""
        if duration <= self.ref_duration or self.duration_sensitivity == 0.0:
            return self.p_complete
        factor = (self.ref_duration / duration) ** self.duration_sensitivity
        return self.p_complete * factor

    def sample(self, rng: random.Random, duration: float) -> Interruption:
        if rng.random() < self.completion_probability(duration):
            return Interruption(beta=1.0, completed=True, reason=None)
        beta = rng.betavariate(self.beta_a, self.beta_b)
        beta = min(max(beta, 1e-4), 0.999)
        reason = INTEREST if rng.random() < self.p_interest else QUALITY
        return Interruption(beta=beta, completed=False, reason=reason)

    def fraction_watched_below(self, threshold: float, rng: random.Random,
                               duration: float = 200.0, n: int = 20000) -> float:
        """Empirical P(beta < threshold), for calibration checks."""
        hits = 0
        for _ in range(n):
            if self.sample(rng, duration).beta < threshold:
                hits += 1
        return hits / n
