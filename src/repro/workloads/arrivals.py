"""Poisson session arrivals (the Section 6 assumption, after Yu et al.).

The analytical model assumes streaming sessions arrive as a homogeneous
Poisson process with rate ``lam``; this module generates those arrival
times for the Monte-Carlo validation.
"""

from __future__ import annotations

import random
from typing import List


class PoissonProcess:
    """Homogeneous Poisson process with rate ``lam`` (events/second)."""

    def __init__(self, lam: float, rng: random.Random) -> None:
        if lam <= 0:
            raise ValueError(f"rate must be positive, got {lam!r}")
        self.lam = lam
        self._rng = rng

    def times_until(self, horizon: float) -> List[float]:
        """All arrival times in ``[0, horizon)``."""
        times = []
        t = self._rng.expovariate(self.lam)
        while t < horizon:
            times.append(t)
            t += self._rng.expovariate(self.lam)
        return times
