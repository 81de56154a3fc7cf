"""One experiment module per table/figure of the paper, behind a registry.

Each experiment is described by an :class:`ExperimentSpec` — its CLI name,
human title, the table/figure of the paper it reproduces, and tags — and
runs through :meth:`ExperimentSpec.run`, which installs the session-engine
options (worker pool size, result cache) before delegating to the module's
``run(scale, seed)``.  The :data:`REGISTRY` maps name to spec and is the
single source of truth: the CLI, the examples, ``__all__`` and the
completeness tests all derive from it.

    >>> from repro.experiments import get_experiment
    >>> spec = get_experiment("table1")
    >>> result = spec.run(jobs=4, cache="~/.cache/repro/sessions")
    >>> print(result.report())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import ModuleType
from typing import Dict, Iterator, Optional, Tuple

from . import (
    ext_fault_recovery,
    ext_loss_impact,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    model_validation,
    table1,
    table2,
)
from .common import FULL, MEDIUM, SCALES, SMALL, Scale, engine_options, pick_videos
from ..runner import CacheLike


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the framework knows about one experiment.

    ``module`` must expose ``run(scale, seed) -> result`` where the result
    renders itself via ``report()``; the spec adds the campaign-level
    concerns (parallelism, caching) that no experiment handles itself.
    """

    name: str                     # CLI name, unique across the registry
    title: str                    # human-readable one-liner
    paper: str                    # which table/figure/section it reproduces
    module: ModuleType
    tags: Tuple[str, ...] = field(default=())

    def run(
        self,
        scale: Scale = SMALL,
        seed: int = 0,
        *,
        jobs: Optional[int] = None,
        cache: CacheLike = None,
        supervision=None,
        ledger=None,
        sharding=None,
        health=None,
        dist=None,
    ):
        """Run the experiment with engine options installed ambiently.

        All keywords default to ``None`` = inherit the surrounding
        :func:`~repro.runner.engine_options` scope, so nested callers
        (CLI around spec, test around CLI) compose.  ``supervision`` and
        ``ledger`` are the durability layer: a
        :class:`~repro.runner.SupervisionPolicy` and a
        :class:`~repro.runner.RunLedger`, whose subscribers (a
        :class:`~repro.runner.UnitCounts`, say) see every unit settle.
        ``sharding`` is a :class:`~repro.runner.Sharding` policy;
        sharding-aware experiments (``model_validation``) scale their
        campaign to it, others ignore it.  ``health`` is a
        :class:`~repro.obs.health.HealthMonitor` watching the supervised
        workers (report-only: results are identical with or without it).
        ``dist`` is a :class:`~repro.runner.DistPolicy`: shard batches
        then run over the distributed work queue instead of the local
        pool, with byte-identical results.
        """
        with engine_options(jobs=jobs, cache=cache,
                            supervision=supervision, ledger=ledger,
                            sharding=sharding, health=health, dist=dist):
            return self.module.run(scale, seed=seed)


def _spec(name: str, title: str, paper: str, module: ModuleType,
          *tags: str) -> ExperimentSpec:
    return ExperimentSpec(name=name, title=title, paper=paper,
                          module=module, tags=tuple(tags))


#: Name -> spec, in the paper's presentation order.
REGISTRY: Dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        _spec("table1", "Streaming strategy per (application, container)",
              "Table 1", table1, "table", "matrix"),
        _spec("fig1", "Phases of a video download",
              "Fig. 1", fig1, "figure", "phases"),
        _spec("fig2", "Short ON-OFF cycles and the receive window",
              "Fig. 2", fig2, "figure", "onoff"),
        _spec("fig3", "Buffering amounts (Flash, HTML5/IE)",
              "Fig. 3", fig3, "figure", "buffering"),
        _spec("fig4", "Flash steady state (64 kB blocks, k=1.25)",
              "Fig. 4", fig4, "figure", "steady-state"),
        _spec("fig5", "HTML5/IE steady state (256 kB blocks)",
              "Fig. 5", fig5, "figure", "steady-state"),
        _spec("fig6", "Long ON-OFF cycles (Chrome, Android)",
              "Fig. 6", fig6, "figure", "onoff"),
        _spec("fig7", "iPad: multiple strategies in one session",
              "Fig. 7", fig7, "figure", "strategies"),
        _spec("fig8", "No ON-OFF cycles (HD); rate uncorrelated",
              "Fig. 8", fig8, "figure", "bulk"),
        _spec("fig9", "The missing ACK clock (+ idle-reset ablation)",
              "Fig. 9", fig9, "figure", "tcp"),
        _spec("fig10", "Netflix strategies",
              "Fig. 10", fig10, "figure", "netflix"),
        _spec("fig11", "Netflix buffering amounts",
              "Fig. 11", fig11, "figure", "netflix", "buffering"),
        _spec("fig12", "Netflix block sizes",
              "Fig. 12", fig12, "figure", "netflix", "steady-state"),
        _spec("table2", "Strategy comparison under interruption",
              "Table 2", table2, "table", "interruption"),
        _spec("model_validation", "Analytical model vs Monte-Carlo (Eqs 1-9)",
              "Sec. 6", model_validation, "model"),
        _spec("ext_loss_impact", "Strategy impact on congestion losses",
              "Sec. 8 (ext.)", ext_loss_impact, "extension", "loss"),
        _spec("ext_fault_recovery", "Outage duration x retry policy",
              "extension", ext_fault_recovery, "extension", "resilience"),
    )
}


def get_experiment(name: str) -> ExperimentSpec:
    """The spec registered under ``name``; raises ``KeyError`` with the
    known names when unknown."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; know {', '.join(REGISTRY)}"
        ) from None


def iter_experiments() -> Iterator[ExperimentSpec]:
    """The registered specs, in the paper's presentation order."""
    return iter(REGISTRY.values())


__all__ = [
    "ExperimentSpec",
    "REGISTRY",
    "get_experiment",
    "iter_experiments",
    "Scale",
    "SMALL",
    "MEDIUM",
    "FULL",
    "SCALES",
    "engine_options",
    "pick_videos",
    *REGISTRY,
]
