"""One-call analysis of a streaming session (the whole Section 5 pipeline).

:func:`analyze_session` runs flow reconstruction, ON/OFF detection, phase
splitting, block-size extraction, strategy classification, encoding-rate
recovery and the ACK-clock metric over a simulated (or re-parsed pcap)
session, producing the per-session record every experiment consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..pcap.capture import CaptureColumns, PacketRecord
from ..streaming.session import SessionResult
from ..streaming.strategy import StreamingStrategy
from .accumulation import RateEstimate, estimate_session_rate
from .ackclock import ackclock_samples
from .classify import Classification, classify_onoff
from .flowtable import DownloadTrace, build_download_trace
from .onoff import (
    DEFAULT_GAP_THRESHOLD,
    DEFAULT_MIN_ON_BYTES,
    OnOffProfile,
    detect_onoff,
)
from .phases import PhaseSplit, split_phases


@dataclass
class SessionAnalysis:
    """Everything the paper measures about one streaming session."""

    trace: DownloadTrace
    onoff: OnOffProfile
    phases: PhaseSplit
    classification: Classification
    rate_estimate: RateEstimate
    ackclock: List[int]
    encoding_rate_bps: Optional[float]   # the rate used for derived metrics

    @property
    def strategy(self) -> StreamingStrategy:
        return self.classification.strategy

    @property
    def block_sizes(self) -> List[int]:
        return self.classification.block_sizes

    @property
    def buffering_bytes(self) -> int:
        return self.phases.buffering_bytes

    @property
    def accumulation_ratio(self) -> Optional[float]:
        if self.encoding_rate_bps is None:
            return None
        return self.phases.accumulation_ratio(self.encoding_rate_bps)

    @property
    def buffering_playback_s(self) -> Optional[float]:
        if self.encoding_rate_bps is None:
            return None
        return self.phases.buffering_playback_seconds(self.encoding_rate_bps)

    @property
    def retransmission_rate(self) -> float:
        return self.trace.retransmission_rate


def analyze_records(
    records: Union[CaptureColumns, Sequence[PacketRecord]],
    client_ip: str,
    server_ip: str,
    *,
    duration: Optional[float] = None,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    min_on_bytes: int = DEFAULT_MIN_ON_BYTES,
) -> SessionAnalysis:
    """Run the full pipeline on a capture's packets.

    ``records`` is a :class:`CaptureColumns` view, or a list of packet
    records (e.g. from :func:`~repro.pcap.records_from_pcap`), which
    :func:`build_download_trace` converts to one.

    ``duration`` is the out-of-band video duration, needed to estimate the
    encoding rate of webM streams from the Content-Length.
    """
    trace = build_download_trace(records, client_ip, server_ip)
    onoff = detect_onoff(
        trace,
        gap_threshold=gap_threshold,
        min_on_bytes=min_on_bytes,
        stream_end=trace.last_data_time,
    )
    phases = split_phases(onoff, stream_end=trace.last_data_time)
    classification = classify_onoff(onoff)
    rate_estimate = estimate_session_rate(trace, duration=duration)
    encoding_rate = rate_estimate.rate_bps if rate_estimate.ok else None
    samples = ackclock_samples(
        trace, gap_threshold=gap_threshold, min_on_bytes=min_on_bytes
    )
    return SessionAnalysis(
        trace=trace,
        onoff=onoff,
        phases=phases,
        classification=classification,
        rate_estimate=rate_estimate,
        ackclock=samples,
        encoding_rate_bps=encoding_rate,
    )


def analyze_session(
    result: SessionResult,
    *,
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    min_on_bytes: int = DEFAULT_MIN_ON_BYTES,
    use_true_rate: bool = False,
) -> SessionAnalysis:
    """Analyze a simulated session result.

    ``use_true_rate`` substitutes the catalog's ground-truth encoding rate
    for the trace-recovered one — the ablation comparing the estimation
    artifact against perfect knowledge (Section 5.1.1's discussion).
    """
    analysis = analyze_records(
        result.capture.columns(),
        result.client_ip,
        result.server_ip,
        duration=result.video.duration,
        gap_threshold=gap_threshold,
        min_on_bytes=min_on_bytes,
    )
    if use_true_rate:
        analysis.encoding_rate_bps = result.video.encoding_rate_bps
    return analysis
