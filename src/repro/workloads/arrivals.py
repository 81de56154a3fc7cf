"""Poisson session arrivals (the Section 6 assumption, after Yu et al.).

The analytical model assumes streaming sessions arrive as a homogeneous
Poisson process with rate ``lam``; this module generates those arrival
processes and binds them to catalog videos for Monte-Carlo validation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

from .catalog import Catalog
from .video import Video


@dataclass(frozen=True)
class SessionArrival:
    """One streaming session: when it starts and which video it plays."""

    time: float
    video: Video
    beta: float = 1.0        # fraction watched before interruption
    completed: bool = True


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


def generate_sessions(
    catalog: Catalog,
    lam: float,
    horizon: float,
    rng: random.Random,
    interruption_model=None,
    popularity=None,
) -> List[SessionArrival]:
    """Poisson arrivals over ``[0, horizon)``, each playing a random video.

    When ``interruption_model`` is given, every session draws a watched
    fraction from it (Section 6.2); otherwise all sessions complete.
    ``popularity`` (e.g. a :class:`~repro.workloads.popularity.
    ZipfPopularity`) weights the video choice; uniform by default.
    """
    process = PoissonProcess(lam, rng)
    sessions = []
    for t in process.times_until(horizon):
        if popularity is not None:
            video = popularity.sample_video(catalog, rng)
        else:
            video = rng.choice(catalog.videos)
        if interruption_model is None:
            sessions.append(SessionArrival(time=t, video=video))
        else:
            outcome = interruption_model.sample(rng, video.duration)
            sessions.append(
                SessionArrival(
                    time=t,
                    video=video,
                    beta=outcome.beta,
                    completed=outcome.completed,
                )
            )
    return sessions
