"""Campaign observability: exporters, live progress, and engine health.

The layers below this one *compute*; ``repro.obs`` *watches*.  It sits at
the top of the stack (above analysis, streaming and the runner) and
never feeds anything back down — enabling any part of it cannot change
a result, an analysis, a cache fingerprint, or the persisted run
ledger.  Everything here reads one channel: the campaign's event
stream, :class:`RunLedger` (re-exported from :mod:`repro.runner.ledger`,
where the engine reports each lifecycle fact once).  A consumer is a
subscriber ``fn(record, value)`` on it.  Four pillars:

* **Exporters** (:mod:`~repro.obs.flows`, :mod:`~repro.obs.metrics`,
  :mod:`~repro.obs.exporters`, :mod:`~repro.obs.collect`) — turn each
  session into NetFlow/IPFIX-style flow records and metric time-series
  and serialize them to JSONL, CSV, or Prometheus text exposition.
  Exports are deterministic: byte-identical for any ``--jobs`` value and
  with profiling on or off.  :class:`CampaignCollector` is the
  subscriber that gathers the sessions.
* **The live board** (:mod:`~repro.obs.progress`) — one opt-in
  subscriber, :class:`ProgressReporter`, behind both ``--progress`` and
  ``repro dash``: a status header on stderr (done/total, rate, ETA,
  cache-hit/fault/retry counts) plus one lane per worker whenever
  health beats arrive (heartbeat age, units/s, RSS, current unit,
  straggler/missed-beat flags).
* **Engine health** (:mod:`~repro.obs.health`, :mod:`~repro.obs.report`)
  — the campaign control plane: per-worker heartbeats and straggler
  detection (:class:`HealthMonitor`, which writes its ``started`` /
  ``suspect`` / ``heartbeat-summary`` events and live ``beat`` lanes —
  :class:`WorkerLane`, shared with the distributed coordinator — onto
  the stream), and the post-hoc ``repro report`` renderer over the
  ledger file.  Health on or off, exports stay byte-identical.
* **The run profile** (:mod:`~repro.obs.profile`) — ``repro profile``'s
  subscriber: engine batches and unit latencies as wall-clock phases,
  and counters, histograms and events folded from the session results.

See ``docs/OBSERVABILITY.md`` for formats and workflows.
"""

from .collect import (
    AGGREGATE_FIELDS,
    CampaignCollector,
    CampaignSnapshot,
    FAILURE_FIELDS,
)
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
from .profile import Profile
from .progress import ProgressReporter
from .report import render_html, render_report, write_report

__all__ = [
    "AGGREGATE_FIELDS",
    "CampaignCollector",
    "CampaignSnapshot",
    "FAILURE_FIELDS",
    "FLOW_FIELDS",
    "HealthMonitor",
    "HealthPolicy",
    "LEDGER_SCHEMA",
    "LedgerView",
    "METRIC_FIELDS",
    "Profile",
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
