"""Metric time-series extraction from completed sessions.

Where :mod:`repro.obs.flows` summarizes a session into flow records,
this module keeps the *time axis*: the quantities the paper plots
against time (cumulative download amount, advertised receive window,
player-buffer occupancy) plus the operational series a production
deployment would scrape (per-second throughput, link utilisation,
server congestion window).

Every sample is a plain dict ``{"metric", "session", "t", "value"}``
(plus ``"conn"`` for per-connection series) with ``t`` in *simulated*
seconds — never wall clock — so a metrics export is a pure function of
the session and byte-identical for any worker count.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.flowtable import build_download_trace
from ..simnet.monitor import TimeSeries
from ..streaming.session import SessionResult

__all__ = [
    "METRIC_FIELDS",
    "metric_samples",
]

#: Column order for tabular (CSV) metric exports.
METRIC_FIELDS = ("metric", "session", "conn", "t", "value")

#: Bin width, in simulated seconds, for the derived throughput and
#: utilisation series.
RATE_BIN_S = 1.0


def _series_samples(series: TimeSeries, metric: str, session_id: str,
                    conn: Optional[int] = None) -> List[Dict]:
    samples = []
    for t, value in series:
        sample = {"metric": metric, "session": session_id}
        if conn is not None:
            sample["conn"] = conn
        sample["t"] = t
        sample["value"] = value
        samples.append(sample)
    return samples


def metric_samples(result: SessionResult, session_id: str) -> List[Dict]:
    """Every time-series of one session, flattened to sample dicts.

    Emitted metrics, in order:

    * ``download_bytes`` — cumulative unique payload bytes (Fig. 2(a));
    * ``throughput_bps`` — per-second download rate derived from it;
    * ``link_utilization`` — the same rate over the profile's downlink;
    * ``recv_window_bytes`` — the client's advertised window (Fig. 2(b));
    * ``player_buffer_s`` — buffer occupancy, when the session ran with
      ``config.probe_period`` set (Table 2's probe);
    * ``cwnd_bytes`` — server congestion window per connection, when the
      session ran with ``config.trace_cwnd`` set.
    """
    trace = build_download_trace(result.capture.columns(), result.client_ip,
                                 result.server_ip)
    samples: List[Dict] = []
    cumulative = trace.cumulative_series()
    samples += _series_samples(cumulative, "download_bytes", session_id)
    rate = cumulative.binned_rate(RATE_BIN_S)
    down_bps = result.config.profile.down_bps
    # Derived series share the rate's (already sorted) time column; the
    # bulk constructor skips the per-append ordering check.
    bits = [bytes_per_s * 8 for bytes_per_s in rate.values]
    throughput = TimeSeries.from_columns("throughput", rate.times, bits)
    utilization = TimeSeries.from_columns(
        "utilization",
        rate.times,
        [b / down_bps for b in bits] if down_bps else [0.0] * len(bits),
    )
    samples += _series_samples(throughput, "throughput_bps", session_id)
    samples += _series_samples(utilization, "link_utilization", session_id)
    samples += _series_samples(trace.window_series, "recv_window_bytes",
                               session_id)
    if result.buffer_series is not None:
        samples += _series_samples(result.buffer_series, "player_buffer_s",
                                   session_id)
    for i, series in enumerate(result.cwnd_traces):
        samples += _series_samples(series, "cwnd_bytes", session_id, conn=i)
    return samples
