"""A from-scratch TCP implementation for the streaming-traffic simulator.

Provides connection establishment, NewReno congestion control, receive-window
flow control (the mechanism behind the paper's client-side throttling),
delayed ACKs, fast retransmit/recovery, RTO retransmission, zero-window
probing and orderly teardown.
"""

from .congestion import NewRenoCongestion
from .connection import (
    CLOSE_WAIT,
    CLOSED,
    CLOSING,
    ESTABLISHED,
    FIN_WAIT_1,
    FIN_WAIT_2,
    LAST_ACK,
    SYN_RCVD,
    SYN_SENT,
    TIME_WAIT,
    TcpConfig,
    TcpConnection,
    TcpListener,
    TcpStats,
)
from .constants import ACK, FIN, PSH, RST, SYN, flags_repr, header_overhead
from .recvbuf import ReceiveBuffer
from .rtt import RttEstimator
from .segment import TcpSegment
from .seqspace import wrap
from .streambuf import StreamBuffer

__all__ = [
    "TcpConnection",
    "TcpListener",
    "TcpConfig",
    "TcpStats",
    "TcpSegment",
    "StreamBuffer",
    "ReceiveBuffer",
    "RttEstimator",
    "NewRenoCongestion",
    "wrap",
    "flags_repr",
    "header_overhead",
    "ACK",
    "SYN",
    "FIN",
    "RST",
    "PSH",
    "CLOSED",
    "SYN_SENT",
    "SYN_RCVD",
    "ESTABLISHED",
    "FIN_WAIT_1",
    "FIN_WAIT_2",
    "CLOSE_WAIT",
    "CLOSING",
    "LAST_ACK",
    "TIME_WAIT",
]
