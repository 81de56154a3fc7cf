"""The paper's measurement methodology, coded as a reusable pipeline."""

from .accumulation import RateEstimate, estimate_encoding_rate, estimate_session_rate
from .ackclock import AckClockSample, ackclock_samples, first_rtt_bytes
from .classify import MIXED_HIGH, MIXED_LOW, Classification, classify_onoff
from .flowtable import DownloadTrace, EventLog, FlowData, build_download_trace
from .onoff import (
    DEFAULT_GAP_THRESHOLD,
    DEFAULT_MIN_ON_BYTES,
    OffPeriod,
    OnOffProfile,
    OnPeriod,
    detect_onoff,
)
from .phases import PhaseSplit, split_phases, split_phases_rate_knee
from .renditions import (
    LadderObservation,
    RenditionObservation,
    detect_renditions,
)
from .report import bytes_human, format_cdf, format_table, mbps
from .resilience import (
    BlockMergingReport,
    ResilienceAggregate,
    ResilienceSummary,
    aggregate_resilience,
    quantify_block_merging,
    recovery_time,
    summarize_resilience,
)
from .session_analysis import SessionAnalysis, analyze_records, analyze_session
from .stats import (
    Cdf,
    correlation,
    dominant_value,
    fraction_within,
    mean,
    median,
    variance,
)

__all__ = [
    "DownloadTrace",
    "EventLog",
    "FlowData",
    "build_download_trace",
    "OnPeriod",
    "OffPeriod",
    "OnOffProfile",
    "detect_onoff",
    "DEFAULT_GAP_THRESHOLD",
    "DEFAULT_MIN_ON_BYTES",
    "PhaseSplit",
    "split_phases",
    "split_phases_rate_knee",
    "Classification",
    "classify_onoff",
    "MIXED_LOW",
    "MIXED_HIGH",
    "AckClockSample",
    "first_rtt_bytes",
    "ackclock_samples",
    "RateEstimate",
    "estimate_encoding_rate",
    "estimate_session_rate",
    "LadderObservation",
    "RenditionObservation",
    "detect_renditions",
    "SessionAnalysis",
    "analyze_records",
    "analyze_session",
    "ResilienceSummary",
    "ResilienceAggregate",
    "BlockMergingReport",
    "summarize_resilience",
    "aggregate_resilience",
    "recovery_time",
    "quantify_block_merging",
    "Cdf",
    "mean",
    "median",
    "variance",
    "correlation",
    "dominant_value",
    "fraction_within",
    "format_table",
    "format_cdf",
    "bytes_human",
    "mbps",
]
