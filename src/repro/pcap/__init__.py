"""Packet capture: libpcap file I/O and Ethernet/IPv4/TCP wire formats.

The simulator's traffic can be written as byte-exact pcap files and parsed
back, so the analysis pipeline (:mod:`repro.analysis`) runs identically on
simulated captures and on re-collected real tcpdump traces.
"""

from . import ethernet, ipv4, tcpwire
from .capture import (
    WSCALE_SHIFT,
    CaptureColumns,
    PacketRecord,
    TraceCapture,
    record_from_segment,
    records_from_pcap,
    segment_to_frame,
)
from .pcapfile import (
    DEFAULT_SNAPLEN,
    LINKTYPE_ETHERNET,
    PcapError,
    PcapReader,
    PcapWriter,
    read_pcap,
    write_pcap,
)
from .pcapng import PcapngReader, PcapngWriter, is_pcapng

__all__ = [
    "CaptureColumns",
    "PacketRecord",
    "TraceCapture",
    "record_from_segment",
    "records_from_pcap",
    "segment_to_frame",
    "WSCALE_SHIFT",
    "PcapReader",
    "PcapWriter",
    "PcapError",
    "read_pcap",
    "write_pcap",
    "PcapngReader",
    "PcapngWriter",
    "is_pcapng",
    "DEFAULT_SNAPLEN",
    "LINKTYPE_ETHERNET",
    "ethernet",
    "ipv4",
    "tcpwire",
]
