"""The campaign collector: the ledger subscriber that gathers session results.

Experiments consume :class:`SessionResult` objects and throw them away
once analyzed; the collector is how the observability layer gets hold of
them without touching any experiment.  Subscribed to the campaign's
ledger (:meth:`repro.runner.RunLedger.subscribe`), it receives every
``run_sessions`` batch **in plan order** and assigns each session a
sequential id — batches themselves run sequentially inside an
experiment, so ids, and therefore exports, are identical for any
``--jobs`` value and identical with profiling on or off.

The collector retains every session, so per-session exports
(:meth:`~CampaignCollector.write_flows`,
:meth:`~CampaignCollector.write_metrics`) work, and folds the aggregate
:meth:`~CampaignCollector.snapshot` lazily on demand.

Snapshots **merge**: ``CampaignSnapshot`` is built from the mergeable
primitives in :mod:`repro.stats`.  The collector recognizes
:class:`~repro.runner.sharding.ShardResult` values in
``batch_finished`` and folds their moments (the Monte-Carlo shards'
:class:`~repro.model.AggregateMoments`) into its aggregate, so the same
subscription covers per-session and per-shard campaigns.

Results coming back from ``run_tasks`` that are neither sessions nor
shard moments (Monte-Carlo batches, cohort aggregates) are ignored, as
are the :class:`~repro.runner.FailedUnit` placeholders a degraded
campaign leaves in quarantined slots — those are collected separately
from the ledger's ``quarantined`` events and exported by
:meth:`write_failures`, so a partial campaign's exports say exactly
what is missing and why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..runner.sharding import ShardResult
from ..runner.supervise import UnitFailure
from ..stats import HistogramSketch, MomentAccumulator
from ..streaming.session import SessionResult
from .exporters import export_records
from .flows import FLOW_FIELDS, flow_records
from .metrics import METRIC_FIELDS, metric_samples

__all__ = [
    "AGGREGATE_FIELDS",
    "CampaignCollector",
    "CampaignSnapshot",
    "FAILURE_FIELDS",
]

#: Column order of a failure export (one record per quarantined unit).
FAILURE_FIELDS = (
    "unit",
    "label",
    "key",
    "kind",
    "error",
    "attempts",
    "final",
    "worker",
    "traceback",
)

#: Flow-record fields emitted on the Prometheus rendering of a flow
#: export (numeric/boolean fields only; the rest become labels).
_FLOW_PROM_FIELDS = (
    "packets",
    "bytes",
    "unique_bytes",
    "retransmitted_bytes",
    "retransmission_rate",
    "onoff_blocks",
    "rebuffer_count",
    "stall_time_s",
    "retry_count",
    "fault_events",
)

#: Flow-scoped aggregate metrics: folded once per TCP flow.
_FLOW_MOMENT_FIELDS = (
    "bytes",
    "packets",
    "unique_bytes",
    "retransmitted_bytes",
    "retransmission_rate",
)

#: Session-scoped aggregate metrics: folded once per session (folding
#: them per flow would over-weight multi-flow sessions).
_SESSION_MOMENT_FIELDS = (
    "startup_delay_s",
    "rebuffer_count",
    "rebuffer_ratio",
    "stall_time_s",
    "retry_count",
    "onoff_blocks",
)

#: Metrics that additionally keep a histogram sketch for percentiles.
_SKETCH_FIELDS = (
    "bytes",
    "startup_delay_s",
    "stall_time_s",
)

#: Percentiles reported on aggregate exports.
_PERCENTILES = (50, 90, 99)

#: Column order of an aggregate export (one record per metric).
AGGREGATE_FIELDS = (
    "metric",
    "scope",
    "count",
    "mean",
    "std",
    "min",
    "max",
    "total",
    "p50",
    "p90",
    "p99",
)


@dataclass
class CampaignSnapshot:
    """Mergeable aggregate of a campaign's flow/metric/QoE statistics.

    Constant-size: moments (count/mean/M2/min/max/total) and fixed-bin
    histogram sketches per metric, plus session/flow/strategy tallies —
    never a session, flow record or packet.  Folded per shard by the
    shard worker, shipped through the pool and the shard artifact
    store, and merged in shard order by the parent.
    """

    sessions: int = 0
    flows: int = 0
    failures: int = 0
    interrupted: int = 0
    failed: int = 0
    strategies: Dict[str, int] = field(default_factory=dict)
    moments: Dict[str, MomentAccumulator] = field(default_factory=dict)
    sketches: Dict[str, HistogramSketch] = field(default_factory=dict)

    # -- folding -------------------------------------------------------------

    def _moment(self, name: str) -> MomentAccumulator:
        acc = self.moments.get(name)
        if acc is None:
            acc = self.moments[name] = MomentAccumulator()
        return acc

    def _observe(self, name: str, value) -> None:
        if value is None:
            return
        value = float(value)
        self._moment(name).add(value)
        if name in _SKETCH_FIELDS:
            sketch = self.sketches.get(name)
            if sketch is None:
                sketch = self.sketches[name] = HistogramSketch()
            sketch.observe(value)

    def fold(self, result: SessionResult) -> None:
        """Fold one session's flow records and QoE fields in."""
        records = flow_records(result, f"s{self.sessions:04d}")
        self.sessions += 1
        self.flows += len(records)
        if result.interrupted:
            self.interrupted += 1
        if result.failed:
            self.failed += 1
        for record in records:
            for name in _FLOW_MOMENT_FIELDS:
                self._observe(name, record[name])
        if records:
            session_fields = records[0]
            strategy = session_fields["strategy"]
            self.strategies[strategy] = self.strategies.get(strategy, 0) + 1
            for name in _SESSION_MOMENT_FIELDS:
                self._observe(name, session_fields[name])

    def fold_moments(self, name: str, moments: MomentAccumulator,
                     sketch: Optional[HistogramSketch] = None,
                     sessions: int = 0) -> None:
        """Fold externally-computed moments in under metric ``name``.

        This is how non-session shard payloads (e.g. the Monte-Carlo
        grid statistics of :class:`~repro.model.AggregateMoments`) join
        the campaign aggregate; they report with scope ``campaign``.
        """
        self.sessions += sessions
        self._moment(name).merge(moments)
        if sketch is not None:
            mine = self.sketches.get(name)
            if mine is None:
                mine = self.sketches[name] = HistogramSketch(
                    bins_per_decade=sketch.bins_per_decade)
            mine.merge(sketch)

    def merge(self, other: "CampaignSnapshot") -> "CampaignSnapshot":
        """Fold another snapshot in (``other`` is left untouched)."""
        self.sessions += other.sessions
        self.flows += other.flows
        self.failures += other.failures
        self.interrupted += other.interrupted
        self.failed += other.failed
        for name, count in other.strategies.items():
            self.strategies[name] = self.strategies.get(name, 0) + count
        for name, acc in other.moments.items():
            self._moment(name).merge(acc)
        for name, sketch in other.sketches.items():
            mine = self.sketches.get(name)
            if mine is None:
                mine = self.sketches[name] = HistogramSketch(
                    bins_per_decade=sketch.bins_per_decade)
            mine.merge(sketch)
        return self

    # -- reporting -----------------------------------------------------------

    def records(self) -> List[Dict]:
        """One flat aggregate record per metric, in schema order.

        Every record carries exactly the :data:`AGGREGATE_FIELDS` keys;
        percentile columns are ``None`` for metrics without a sketch.
        """
        scopes = dict.fromkeys(_FLOW_MOMENT_FIELDS, "flow")
        scopes.update(dict.fromkeys(_SESSION_MOMENT_FIELDS, "session"))
        extras = sorted(set(self.moments) - set(scopes))
        out: List[Dict] = []
        for name in (*_FLOW_MOMENT_FIELDS, *_SESSION_MOMENT_FIELDS,
                     *extras):
            acc = self.moments.get(name)
            if acc is None or acc.count == 0:
                continue
            sketch = self.sketches.get(name)
            record = {
                "metric": name,
                "scope": scopes.get(name, "campaign"),
                "count": acc.count,
                "mean": acc.mean,
                "std": acc.std,
                "min": acc.min,
                "max": acc.max,
                "total": acc.total,
            }
            for q in _PERCENTILES:
                record[f"p{q}"] = (sketch.percentile(q)
                                   if sketch is not None else None)
            out.append(record)
        return out

    def report(self) -> str:
        """Human-readable aggregate summary (one metric per line)."""
        strategies = "  ".join(f"{name}={count}" for name, count
                               in sorted(self.strategies.items()))
        lines = [
            f"campaign aggregate: {self.sessions} sessions, "
            f"{self.flows} flows, {self.failures} failures",
        ]
        if strategies:
            lines.append(f"  strategies: {strategies}")
        for record in self.records():
            line = (f"  {record['metric']:<22} ({record['scope']}) "
                    f"mean={record['mean']:.4g} std={record['std']:.4g} "
                    f"min={record['min']:.4g} max={record['max']:.4g}")
            if record["p50"] is not None:
                line += (f" p50={record['p50']:.4g}"
                         f" p90={record['p90']:.4g}"
                         f" p99={record['p99']:.4g}")
            lines.append(line)
        return "\n".join(lines)


class CampaignCollector:
    """Collect a campaign's sessions and merge its shard moments.

    Usage::

        collector = CampaignCollector()
        ledger = RunLedger()
        ledger.subscribe(collector)
        with engine_options(ledger=ledger):
            spec.run(scale, seed=0)
        collector.write_flows("flows.jsonl")
        collector.write_metrics("metrics.prom")
        collector.write_aggregate("aggregate.csv")
    """

    def __init__(self) -> None:
        self.sessions: List[Tuple[str, SessionResult]] = []
        self.failures: List[UnitFailure] = []
        self._aggregate = CampaignSnapshot()

    def collect(self, result: SessionResult) -> None:
        """Adopt one session result."""
        self.sessions.append((f"s{len(self.sessions):04d}", result))

    def merge(self, other: Union["CampaignCollector", CampaignSnapshot]) -> None:
        """Fold another collector's (or snapshot's) aggregate in."""
        snapshot = other if isinstance(other, CampaignSnapshot) \
            else other.snapshot()
        self._aggregate.merge(snapshot)

    def snapshot(self) -> CampaignSnapshot:
        """The campaign's aggregate snapshot.

        Folds the kept sessions into a fresh one (idempotent — calling
        twice does not double-count), merged with anything adopted from
        shard results.  Quarantined-unit failures observed directly are
        counted alongside failures merged from shards.
        """
        snap = CampaignSnapshot().merge(self._aggregate)
        for _, result in self.sessions:
            snap.fold(result)
        snap.failures += len(self.failures)
        return snap

    # -- the subscriber --------------------------------------------------------

    def __call__(self, record: dict, value: Any) -> None:
        """Adopt what the ledger reports: each batch's plan-ordered
        values, and the failure of every quarantined unit (retried
        attempts are the progress line's business, not the campaign
        record's)."""
        kind = record["event"]
        if kind == "batch-finished":
            self.batch_finished(value)
        elif kind == "quarantined":
            self.failures.append(value)

    def batch_finished(self, values) -> None:
        """Adopt the batch's session results (plan order) and merge any
        shard moments, skipping other task values (and
        quarantined-unit placeholders)."""
        for value in values:
            if isinstance(value, SessionResult):
                self.collect(value)
            elif isinstance(value, ShardResult):
                payload = value.value
                if hasattr(payload, "moments") and hasattr(payload, "sketch"):
                    # moment-style shard payloads (AggregateMoments)
                    # join the aggregate under their campaign label
                    campaign = value.shard.campaign
                    name = (campaign.split(":", 1)[1]
                            if ":" in campaign else campaign)
                    self._aggregate.fold_moments(
                        name, payload.moments, payload.sketch,
                        sessions=getattr(payload, "sessions", 0))

    # -- exports -------------------------------------------------------------

    def flow_records(self) -> List[Dict]:
        """Flow records for every collected session, in session order."""
        records: List[Dict] = []
        for session_id, result in self.sessions:
            records.extend(flow_records(result, session_id))
        return records

    def metric_samples(self) -> List[Dict]:
        """Metric samples for every collected session, in session order."""
        samples: List[Dict] = []
        for session_id, result in self.sessions:
            samples.extend(metric_samples(result, session_id))
        return samples

    def write_flows(self, path) -> int:
        """Export flow records in the format implied by ``path``'s suffix.

        The Prometheus rendering flattens each flow record into one
        sample per numeric field (``repro_flow_bytes{...}`` etc.) with
        the 5-tuple and session id as labels.
        """
        from pathlib import Path

        if Path(path).suffix.lower() in (".prom", ".txt"):
            samples = []
            for record in self.flow_records():
                for field_name in _FLOW_PROM_FIELDS:
                    samples.append({
                        "metric": f"flow_{field_name}",
                        "session": record["session"],
                        "src": f"{record['src_ip']}:{record['src_port']}",
                        "dst": f"{record['dst_ip']}:{record['dst_port']}",
                        "value": record[field_name],
                    })
            return export_records(
                samples, path, timestamp_key=None,
                label_keys=("session", "src", "dst"),
            )
        return export_records(self.flow_records(), path, fields=FLOW_FIELDS)

    def write_metrics(self, path) -> int:
        """Export metric samples in the format implied by ``path``'s suffix."""
        return export_records(
            self.metric_samples(), path, fields=METRIC_FIELDS,
            label_keys=("session", "conn"),
        )

    def aggregate_records(self) -> List[Dict]:
        """Aggregate records, one per metric."""
        return self.snapshot().records()

    def write_aggregate(self, path) -> int:
        """Export the campaign aggregate (one record per metric) in the
        format implied by ``path``'s suffix.

        The Prometheus rendering emits one ``repro_campaign_<metric>``
        gauge per record with the scope as a label and the mean as the
        sample value.
        """
        return export_records(
            self.aggregate_records(), path, fields=AGGREGATE_FIELDS,
            prefix="repro_campaign", value_key="mean",
            timestamp_key=None, label_keys=("scope",),
        )

    def failure_records(self) -> List[Dict]:
        """One flat record per quarantined unit, in failure order."""
        return [failure.record() for failure in self.failures]

    def write_failures(self, path) -> int:
        """Export quarantined-unit failures (keys, errors, tracebacks,
        attempt counts) in the format implied by ``path``'s suffix."""
        return export_records(
            self.failure_records(), path, fields=FAILURE_FIELDS,
            value_key="attempts", metric_key="kind", timestamp_key=None,
            label_keys=("label", "key"),
        )
