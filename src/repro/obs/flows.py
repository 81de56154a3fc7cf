"""Flow-record extraction: one NetFlow/IPFIX-style dict per TCP flow.

The paper's unit of analysis is the flow record — 5-tuple, byte and
packet counts, retransmission behaviour — enriched with the session-level
verdicts its measurement pipeline derives (streaming strategy, ON/OFF
block count) and the QoE ledger the resilient clients keep.  This module
turns a :class:`~repro.streaming.session.SessionResult` into exactly
those records, as plain dicts ready for any serializer.

Determinism contract: a flow record is a pure function of the session's
packet records and QoE fields.  It never reads wall-clock time or
engine state, so exports are byte-identical across worker counts and
with any ledger subscriber (``repro profile``) on or off.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.classify import classify_onoff
from ..analysis.flowtable import build_download_trace
from ..analysis.onoff import detect_onoff
from ..streaming.session import SessionResult

__all__ = [
    "FLOW_FIELDS",
    "flow_records",
]

#: Column order for tabular (CSV) flow exports — every record carries
#: exactly these keys, in this order.
FLOW_FIELDS = (
    "session",
    "video",
    "network",
    "service",
    "application",
    "container",
    "protocol",
    "src_ip",
    "src_port",
    "dst_ip",
    "dst_port",
    "first_ts",
    "last_ts",
    "packets",
    "bytes",
    "unique_bytes",
    "retransmitted_bytes",
    "retransmission_rate",
    "handshake_rtt",
    "strategy",
    "onoff_blocks",
    "startup_delay_s",
    "rebuffer_count",
    "rebuffer_ratio",
    "stall_time_s",
    "retry_count",
    "fault_events",
    "interrupted",
    "failed",
)


def flow_records(result: SessionResult, session_id: str) -> List[Dict]:
    """Flow records for one session, ordered by (first_ts, 5-tuple).

    Each record is one downstream TCP flow (server → client) with the
    session-level fields — strategy label, ON/OFF block count, QoE —
    repeated on every flow of the session, the way flow exporters
    denormalize per-exporter attributes.
    """
    trace = build_download_trace(result.capture.columns(), result.client_ip,
                                 result.server_ip)
    onoff = detect_onoff(trace, stream_end=trace.last_data_time)
    classification = classify_onoff(onoff)
    session_fields = {
        "session": session_id,
        "video": result.video.video_id,
        "network": result.config.profile.name,
        "service": result.config.service.name,
        "application": result.config.application.name,
        "container": result.container.name,
        "strategy": str(classification.strategy),
        "onoff_blocks": classification.cycle_count,
        "startup_delay_s": result.startup_delay_s,
        "rebuffer_count": result.rebuffer_count,
        "rebuffer_ratio": result.rebuffer_ratio,
        "stall_time_s": result.stall_time_s,
        "retry_count": result.retry_count,
        "fault_events": (len(result.fault_log)
                         if result.fault_log is not None else 0),
        "interrupted": result.interrupted,
        "failed": result.failed,
    }
    flows = sorted(
        trace.flows.values(),
        key=lambda f: (f.first_data_time if f.first_data_time is not None
                       else float("inf"), f.key),
    )
    records: List[Dict] = []
    for flow in flows:
        src_ip, src_port, dst_ip, dst_port = flow.key
        flow_fields = {
            "protocol": "tcp",
            "src_ip": src_ip,
            "src_port": src_port,
            "dst_ip": dst_ip,
            "dst_port": dst_port,
            "first_ts": flow.first_data_time,
            "last_ts": flow.last_data_time,
            "packets": flow.packet_count,
            "bytes": flow.total_payload_bytes,
            "unique_bytes": flow.unique_bytes,
            "retransmitted_bytes": flow.retransmitted_bytes,
            "retransmission_rate": flow.retransmission_rate,
            "handshake_rtt": flow.handshake_rtt,
        }
        merged = {**session_fields, **flow_fields}
        records.append({key: merged[key] for key in FLOW_FIELDS})
    return records
