"""Campaign observability: exporters, live progress, and engine health.

The layers below this one *compute*; ``repro.obs`` *watches*.  It sits at
the top of the stack (above analysis, streaming and the runner) and
never feeds anything back down — enabling any part of it cannot change
a result, an analysis, or a cache fingerprint.  Three pillars:

* **Exporters** (:mod:`~repro.obs.flows`, :mod:`~repro.obs.metrics`,
  :mod:`~repro.obs.exporters`, :mod:`~repro.obs.collect`) — turn each
  session into NetFlow/IPFIX-style flow records and metric time-series
  and serialize them to JSONL, CSV, or Prometheus text exposition.
  Exports are deterministic: byte-identical for any ``--jobs`` value and
  with telemetry recording on or off.
* **Live progress** (:mod:`~repro.obs.progress`) — an opt-in engine
  observer keeping one ``\\r``-rewritten status line on stderr
  (done/total, rate, ETA, cache-hit/fault/retry counts).  Default-off
  behind the same single-guard pattern as the telemetry layer.
* **Engine health** (:mod:`~repro.obs.health`, :mod:`~repro.obs.dash`,
  :mod:`~repro.obs.report`) — the campaign control plane: per-worker
  heartbeats and straggler detection (:class:`HealthMonitor`), the live
  ``repro dash`` worker-lane dashboard, and the post-hoc ``repro
  report`` renderer over the campaign's run ledger (:class:`RunLedger`,
  re-exported from :mod:`repro.runner.ledger`, where the engine writes
  it).  All of it observes the supervised engine through the same
  default-off hook — health on or off, exports stay byte-identical.

See ``docs/OBSERVABILITY.md`` for formats and workflows.
"""

from .collect import (
    AGGREGATE_FIELDS,
    CampaignCollector,
    CampaignSnapshot,
    FAILURE_FIELDS,
)
from .dash import DashboardReporter
from .exporters import (
    export_records,
    prometheus_lines,
    write_csv,
    write_jsonl,
    write_prometheus,
)
from .flows import FLOW_FIELDS, flow_records
from .health import (
    HealthMonitor,
    HealthPolicy,
    Suspicion,
    WorkerLane,
)
from ..runner.ledger import (
    LEDGER_SCHEMA,
    LedgerView,
    RunLedger,
    ledger_path,
    load_ledger,
)
from .metrics import METRIC_FIELDS, metric_samples
from .progress import ProgressReporter
from .report import render_html, render_report, write_report

__all__ = [
    "AGGREGATE_FIELDS",
    "CampaignCollector",
    "CampaignSnapshot",
    "DashboardReporter",
    "FAILURE_FIELDS",
    "FLOW_FIELDS",
    "HealthMonitor",
    "HealthPolicy",
    "LEDGER_SCHEMA",
    "LedgerView",
    "METRIC_FIELDS",
    "ProgressReporter",
    "RunLedger",
    "Suspicion",
    "WorkerLane",
    "export_records",
    "flow_records",
    "ledger_path",
    "load_ledger",
    "metric_samples",
    "prometheus_lines",
    "render_html",
    "render_report",
    "write_csv",
    "write_jsonl",
    "write_prometheus",
    "write_report",
]
