"""Section 6 — model validation experiments.

Three parts:

1. **Moment validation** (Eqs (1)-(4)): Monte-Carlo aggregates of Poisson
   video sessions under all three strategies versus the closed forms —
   the means and variances agree, and are invariant across strategies.
2. **Interruption threshold** (Eq (7)): the 53.3 s worked example, plus
   the condition checked against per-session simulation.
3. **Wasted bandwidth** (Eqs (8)-(9)): Monte-Carlo waste versus the
   closed form, and the (B', k) sweep behind the paper's recommendation
   to shrink buffering and accumulation for interruption-heavy workloads.

The moment validation is sharding-aware: when the ambient engine options
carry a :class:`~repro.runner.Sharding` policy (``repro experiment
model_validation --sessions 1000000 --shards 64``), the Poisson horizon
implied by the session target splits into per-strategy horizon shards,
each simulated independently through the supervised shard engine and
reduced to mergeable :class:`~repro.model.AggregateMoments` — so the
model is validated against *campaign-scale* populations (10^4..10^6
sessions) in O(shards) memory, with shard-level caching and resume.
Without a policy the original single-run path executes unchanged.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis import format_table
from ..model import (
    PopulationMoments,
    aggregate_mean_exact,
    aggregate_variance,
    constant_strategy,
    critical_duration,
    encoding_rate_migration,
    long_onoff_strategy,
    short_onoff_strategy,
    simulate_aggregate,
    simulate_aggregate_moments,
    simulate_wasted_bandwidth,
    waste_sweep,
    wasted_bandwidth_exact,
)
from ..runner import ShardResult, ShardSpec, current_options, run_shards
from ..workloads import EmpiricalInterruptionModel, make_youflash
from .common import SMALL, Scale, run_tasks

#: Strategy factories reconstructed by name inside the Monte-Carlo worker,
#: so the task arguments stay plain (picklable, fingerprintable) data.
STRATEGY_NAMES = ("No ON-OFF", "Short ON-OFF", "Long ON-OFF")


def _strategy_factory(name: str):
    if name == "No ON-OFF":
        return constant_strategy
    if name == "Short ON-OFF":
        return short_onoff_strategy()
    if name == "Long ON-OFF":
        return long_onoff_strategy()
    raise ValueError(f"unknown strategy {name!r}")


def _moment_sample(catalog, lam: float, horizon: float, name: str,
                   peak: float, seed: int):
    sample = simulate_aggregate(
        catalog, lam, horizon=horizon, strategy=_strategy_factory(name),
        peak_bps=peak, seed=seed)
    return sample.mean_bps, sample.variance_bps2


def _moment_shard(catalog, lam: float, horizon: float, name: str,
                  peak: float, seed: int):
    """Shard worker: one independent Monte-Carlo run over one horizon
    chunk, reduced to mergeable moments (never the grid itself)."""
    return simulate_aggregate_moments(
        catalog, lam, horizon=horizon, strategy=_strategy_factory(name),
        peak_bps=peak, seed=seed)


def _sharded_moments(catalog, lam: float, peak: float, scale: Scale,
                     seed: int, policy) -> Dict[str, object]:
    """One merged :class:`~repro.model.AggregateMoments` per strategy.

    The campaign's session target (``policy.sessions``, defaulting to
    the scale's horizon at rate ``lam``) becomes a Poisson horizon of
    ``sessions / lam`` seconds, split into ``policy.shards`` chunks —
    or, with ``policy.shard_size``, into ``ceil(sessions / size)``
    chunks of ``size`` sessions each, the fine granularity the
    distributed fabric's work-stealing feeds on.  Each chunk runs at
    full arrival rate with its own derived seed and its own warmup, so
    every shard contributes steady-state samples; shard seeds depend
    only on the campaign seed and shard index — not on the strategy —
    preserving the unsharded path's common-random-numbers comparison
    across strategies, and not on the shard *count*, so a
    re-dimensioned campaign (same per-shard horizon, more shards)
    reuses its cached shard artifacts.

    Reduction streams through ``run_shards(on_result=...)``: strategy
    aggregates merge in plan order as shards settle — identically on
    the local path (post-batch) and the distributed one (as artifacts
    land), so exports are byte-identical across transports.
    """
    sessions = policy.sessions or max(1, int(lam * scale.mc_horizon))
    shards = policy.shard_count(sessions)
    shard_horizon = (sessions / lam) / shards
    expected = max(1, round(lam * shard_horizon))
    units = []
    for name in STRATEGY_NAMES:
        for index in range(shards):
            spec = ShardSpec(campaign=f"model_validation:{name}",
                             scale=scale.name, seed=seed, index=index,
                             of=shards, units=expected)
            units.append((spec, (catalog, lam, shard_horizon, name, peak,
                                 seed + 1 + index)))
    merged: Dict[str, object] = {}

    def fold(result) -> None:
        if not isinstance(result, ShardResult):
            return  # quarantined shard under a degraded campaign
        name = result.shard.campaign.split(":", 1)[1]
        if name in merged:
            merged[name].merge(result.value)
        else:
            # deep-copied, never adopted: the accumulator must not alias
            # result.value — ledger subscribers (the --aggregate
            # collector) read the shard values *after* this streaming
            # fold on the distributed path, and must see pristine
            # per-shard moments
            merged[name] = copy.deepcopy(result.value)

    run_shards(_moment_shard, units, on_result=fold)
    return merged


def _waste_sample(catalog, lam: float, horizon: float,
                  buffering_playback_s: float, accumulation_ratio: float,
                  seed: int) -> float:
    interruptions = EmpiricalInterruptionModel()
    return simulate_wasted_bandwidth(
        catalog, lam, horizon=horizon,
        buffering_playback_s=buffering_playback_s,
        accumulation_ratio=accumulation_ratio,
        beta_sampler=lambda r, L: interruptions.sample(r, L).beta,
        seed=seed)


@dataclass
class MomentRow:
    strategy: str
    empirical_mean: float
    model_mean: float
    empirical_var: float
    model_var: float
    sessions: int = 0  # simulated arrivals behind the empirical moments

    @property
    def mean_error(self) -> float:
        return abs(self.empirical_mean - self.model_mean) / self.model_mean

    @property
    def var_error(self) -> float:
        return abs(self.empirical_var - self.model_var) / self.model_var


@dataclass
class ModelValidationResult:
    moment_rows: List[MomentRow]
    critical_duration_s: float
    waste_empirical_bps: float
    waste_closed_bps: float
    sweep_rows: List
    migration_smoothness_ratio: float
    shards: int = 0          # 0 = unsharded single-run path
    campaign_sessions: int = 0
    rate_percentiles: Dict[str, Tuple[float, float, float]] = \
        field(default_factory=dict)  # strategy -> (p50, p90, p99) bps

    def report(self) -> str:
        rows = [
            (
                r.strategy,
                f"{r.empirical_mean / 1e6:.1f}",
                f"{r.model_mean / 1e6:.1f}",
                f"{r.mean_error:.1%}",
                f"{r.empirical_var / 1e12:.1f}",
                f"{r.model_var / 1e12:.1f}",
                f"{r.var_error:.1%}",
            )
            for r in self.moment_rows
        ]
        moments = format_table(
            ["Strategy", "E[R] sim(Mbps)", "E[R] eq3", "err",
             "Var sim(Tb2)", "Var eq4", "err"],
            rows,
            title="Section 6.1 — aggregate moments, simulation vs model",
        )
        sweep = format_table(
            ["B'(s)", "k", "Wasted(Mbps)", "Share"],
            [
                (f"{p.buffering_playback_s:.0f}", f"{p.accumulation_ratio:.2f}",
                 f"{p.wasted_bps / 1e6:.2f}", f"{p.wasted_share:.0%}")
                for p in self.sweep_rows
            ],
            title="Section 6.2 — wasted bandwidth vs (buffering, accumulation)",
        )
        waste_err = (abs(self.waste_empirical_bps - self.waste_closed_bps)
                     / self.waste_closed_bps)
        parts = [moments]
        if self.shards:
            lines = [
                f"Sharded campaign: {self.campaign_sessions} sessions "
                f"across {self.shards} shards per strategy "
                f"(streaming reduction, O(shards) memory)",
            ]
            for name, (p50, p90, p99) in self.rate_percentiles.items():
                lines.append(
                    f"  {name:<14} aggregate rate p50={p50 / 1e6:.1f} "
                    f"p90={p90 / 1e6:.1f} p99={p99 / 1e6:.1f} Mbps")
            parts.append("\n".join(lines))
        return "\n\n".join(parts + [
            (f"Eq (7) worked example: B'=40 s, k=1.25, beta=0.2 -> "
             f"critical duration = {self.critical_duration_s:.1f} s "
             f"(paper: 53.3 s)"),
            (f"Eq (9) wasted bandwidth: simulation "
             f"{self.waste_empirical_bps / 1e6:.2f} Mbps vs closed form "
             f"{self.waste_closed_bps / 1e6:.2f} Mbps (err {waste_err:.1%})"),
            sweep,
            (f"Encoding-rate doubling: smoothness (CV) ratio = "
             f"{self.migration_smoothness_ratio:.3f} (model: 1/sqrt(2) = "
             f"0.707) — higher rates give smoother aggregate traffic"),
        ])


def run(scale: Scale = SMALL, seed: int = 0) -> ModelValidationResult:
    catalog = make_youflash(seed=seed, scale=max(0.02, scale.catalog_scale))
    lam = 0.3
    peak = 8e6
    horizon = scale.mc_horizon

    moments = PopulationMoments.from_catalog(catalog, download_rate_bps=peak)
    model_mean = aggregate_mean_exact(lam, moments)
    model_var = aggregate_variance(lam, moments)

    policy = current_options().sharding
    rate_percentiles: Dict[str, Tuple[float, float, float]] = {}
    campaign_sessions = 0
    effective_shards = 0
    if policy is not None:
        target = policy.sessions or max(1, int(lam * scale.mc_horizon))
        effective_shards = policy.shard_count(target)
    if policy is not None:
        aggregates = _sharded_moments(catalog, lam, peak, scale, seed,
                                      policy)
        moment_rows = [
            MomentRow(
                strategy=name,
                empirical_mean=agg.mean_bps,
                model_mean=model_mean,
                empirical_var=agg.variance_bps2,
                model_var=model_var,
                sessions=agg.sessions,
            )
            for name, agg in ((n, aggregates[n]) for n in STRATEGY_NAMES
                              if n in aggregates)
        ]
        campaign_sessions = sum(row.sessions for row in moment_rows)
        rate_percentiles = {
            name: tuple(aggregates[name].sketch.percentile(q)
                        for q in (50, 90, 99))
            for name in STRATEGY_NAMES if name in aggregates
        }
    else:
        samples = run_tasks(_moment_sample, [
            (catalog, lam, horizon, name, peak, seed + 1)
            for name in STRATEGY_NAMES
        ])
        moment_rows = [
            MomentRow(
                strategy=name,
                empirical_mean=mean_bps,
                model_mean=model_mean,
                empirical_var=variance_bps2,
                model_var=model_var,
            )
            for name, (mean_bps, variance_bps2) in zip(STRATEGY_NAMES,
                                                       samples)
        ]

    critical = critical_duration(40.0, 1.25, 0.2)

    interruptions = EmpiricalInterruptionModel()
    sessions = []
    rng = random.Random(seed + 2)
    for video in catalog:
        outcome = interruptions.sample(rng, video.duration)
        sessions.append((video.encoding_rate_bps, video.duration,
                         outcome.beta))
    closed = wasted_bandwidth_exact(lam, sessions, 40.0, 1.25)
    [empirical] = run_tasks(_waste_sample,
                            [(catalog, lam, horizon, 40.0, 1.25, seed + 3)])

    sweep = waste_sweep(lam, sessions, [5.0, 20.0, 40.0], [1.0, 1.25, 1.5])
    migration = encoding_rate_migration(lam, moments, rate_scale=2.0)

    return ModelValidationResult(
        moment_rows=moment_rows,
        critical_duration_s=critical,
        waste_empirical_bps=empirical,
        waste_closed_bps=closed,
        sweep_rows=sweep,
        migration_smoothness_ratio=migration.smoothness_ratio,
        shards=effective_shards,
        campaign_sessions=campaign_sessions,
        rate_percentiles=rate_percentiles,
    )
