"""Flow tracking and download-trace reconstruction from a capture's columns.

The analysis views a streaming session the way the paper's tooling viewed a
tcpdump capture: a set of TCP flows between a client and the streaming
server.  :func:`build_download_trace` reconstructs, from raw packets,

* the *arrival events* of new (unique) downstream payload bytes — the
  cumulative download curve of Figures 2(a), 6(a), 7(a), 10;
* per-packet *activity* timestamps (retransmissions included), which drive
  ON/OFF detection;
* the client's advertised receive-window evolution (Figures 2(b), 6(a));
* per-flow handshake RTTs (needed by the ACK-clock analysis of Figure 9);
* the in-order leading payload bytes of each flow, from which HTTP response
  heads and container metadata are re-parsed.

The input is a :class:`~repro.pcap.capture.CaptureColumns` view — the
capture's wire values in parallel, time-ordered columns — read in one
loop.  Each flow id's direction and flow are resolved once, on its first
packet, and the accounting state of the flow currently receiving data is
held in local variables, so a data packet costs a few integer operations
and four column appends.  A :class:`~repro.pcap.capture.PacketRecord`
list (say, from a pcap file) is converted to that view first.

Sequence numbers are 32-bit wire values; each flow unwraps them
independently, so the pipeline works on real pcap input too.

Per-packet output goes to columnar ``array('d')``/``array('q')`` event
logs.  The tuple-list views (:attr:`EventLog.events`) are materialized
lazily, on first access, for consumers that want pairs; the pipeline's
own stages read the columns.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, count
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..pcap.capture import CaptureColumns, FlowKey, PacketRecord
from ..simnet.monitor import TimeSeries
from ..tcp.constants import ACK as F_ACK
from ..tcp.constants import SYN as F_SYN
from ..tcp.seqspace import HALF_MOD, SEQ_MOD


class EventLog:
    """Columnar (time, unique-byte advance) event log shared by flow and
    aggregate views: two parallel arrays plus a lazily-built tuple view."""

    __slots__ = ("_event_times", "_event_advances", "_events_cache")

    def __init__(self) -> None:
        self._event_times = array("d")
        self._event_advances = array("q")
        self._events_cache: Optional[List[Tuple[float, int]]] = None

    @property
    def events(self) -> List[Tuple[float, int]]:
        """``(time, advance)`` pairs, one per downstream data packet."""
        cache = self._events_cache
        if cache is None or len(cache) != len(self._event_times):
            cache = list(zip(self._event_times, self._event_advances))
            self._events_cache = cache
        return cache

    @property
    def activity(self) -> array:
        """Data-packet timestamps (retransmissions included), in order."""
        return self._event_times

    @property
    def advances(self) -> array:
        """Unique bytes each data packet added (0 for retransmissions)."""
        return self._event_advances

    @property
    def packet_count(self) -> int:
        """Downstream data packets seen (retransmissions included)."""
        return len(self._event_times)


class FlowData(EventLog):
    """Downstream state of one TCP flow (server -> client direction)."""

    __slots__ = (
        "key",
        "syn_time",
        "synack_time",
        "handshake_rtt",
        "first_data_time",
        "last_data_time",
        "base_seq",
        "max_seq_seen",
        "unique_bytes",
        "total_payload_bytes",
        "retransmitted_bytes",
        "head_bytes",
        "_head_expect",
        "_last_seq",
        "_rel",
    )

    HEAD_CAPTURE_LIMIT = 8192

    def __init__(self, key: FlowKey) -> None:
        super().__init__()
        self.key = key
        self.syn_time: Optional[float] = None
        self.synack_time: Optional[float] = None
        self.handshake_rtt: Optional[float] = None
        self.first_data_time: Optional[float] = None
        self.last_data_time: Optional[float] = None
        self.base_seq: Optional[int] = None   # wire seq of first payload byte
        self.max_seq_seen = 0                 # highest end-seq relative to base
        self.unique_bytes = 0
        self.total_payload_bytes = 0
        self.retransmitted_bytes = 0
        self.head_bytes = bytearray()
        self._head_expect = 0
        self._last_seq = 0                    # wire seq of the last data packet
        self._rel = 0                         # its offset from base_seq

    @property
    def retransmission_rate(self) -> float:
        if self.total_payload_bytes == 0:
            return 0.0
        return self.retransmitted_bytes / self.total_payload_bytes


class DownloadTrace(EventLog):
    """Aggregate download view of one capture (all flows combined)."""

    __slots__ = (
        "client_ip",
        "server_ip",
        "flows",
        "window_series",
        "capture_start",
        "capture_end",
    )

    def __init__(
        self,
        client_ip: str,
        server_ip: str,
        flows: Dict[FlowKey, FlowData],
        window_series: TimeSeries,
        capture_start: float,
        capture_end: float,
    ) -> None:
        super().__init__()
        self.client_ip = client_ip
        self.server_ip = server_ip
        self.flows = flows
        self.window_series = window_series
        self.capture_start = capture_start
        self.capture_end = capture_end

    @property
    def total_bytes(self) -> int:
        return sum(f.unique_bytes for f in self.flows.values())

    @property
    def total_payload_bytes(self) -> int:
        return sum(f.total_payload_bytes for f in self.flows.values())

    @property
    def retransmission_rate(self) -> float:
        payload = self.total_payload_bytes
        if payload == 0:
            return 0.0
        retx = sum(f.retransmitted_bytes for f in self.flows.values())
        return retx / payload

    @property
    def flow_count(self) -> int:
        return len(self.flows)

    @property
    def first_data_time(self) -> Optional[float]:
        times = [f.first_data_time for f in self.flows.values()
                 if f.first_data_time is not None]
        return min(times) if times else None

    @property
    def last_data_time(self) -> Optional[float]:
        times = [f.last_data_time for f in self.flows.values()
                 if f.last_data_time is not None]
        return max(times) if times else None

    def cumulative_series(self) -> TimeSeries:
        """The download-amount-vs-time curve (Figure 2(a) style)."""
        return TimeSeries.from_columns(
            "download-amount",
            self._event_times,
            map(float, accumulate(self._event_advances)),
        )

    def median_handshake_rtt(self) -> Optional[float]:
        rtts = sorted(
            f.handshake_rtt for f in self.flows.values()
            if f.handshake_rtt is not None
        )
        if not rtts:
            return None
        return rtts[len(rtts) // 2]

    def main_flow(self) -> FlowData:
        """The flow that carried the most unique bytes."""
        if not self.flows:
            raise ValueError("trace has no flows")
        return max(self.flows.values(), key=lambda f: f.unique_bytes)

    def download_rate_bps(self) -> float:
        """Average download rate over the active span."""
        first, last = self.first_data_time, self.last_data_time
        if first is None or last is None or last <= first:
            return 0.0
        return self.total_bytes * 8 / (last - first)


def build_download_trace(
    packets: Union[CaptureColumns, Sequence[PacketRecord]],
    client_ip: str,
    server_ip: str,
) -> DownloadTrace:
    """Reconstruct the aggregate download trace of one capture.

    ``packets`` is a capture's :class:`CaptureColumns` view (see
    :meth:`~repro.pcap.capture.TraceCapture.columns`); a list of
    :class:`PacketRecord` is converted to one first.
    """
    if not isinstance(packets, CaptureColumns):
        packets = CaptureColumns.from_records(packets)
    timestamps = packets.timestamps
    flows: Dict[FlowKey, FlowData] = {}
    trace = DownloadTrace(
        client_ip=client_ip,
        server_ip=server_ip,
        flows=flows,
        window_series=TimeSeries("recv-window"),
        capture_start=timestamps[0] if len(timestamps) else 0.0,
        capture_end=timestamps[-1] if len(timestamps) else 0.0,
    )

    # Resolved once per flow id: its direction (True downstream, False
    # upstream, None for traffic between other hosts) and its flow, keyed
    # downstream.  Flows are created in the order their first packet, in
    # either direction, appears.
    directions: List[Optional[bool]] = []
    for src, _sport, dst, _dport in packets.flow_table:
        if src == server_ip and dst == client_ip:
            directions.append(True)
        elif src == client_ip and dst == server_ip:
            directions.append(False)
        else:
            directions.append(None)
    owners: List[Optional[FlowData]] = [None] * len(directions)
    for fid in dict.fromkeys(packets.flow_ids):
        if directions[fid] is not None:
            src, sport, dst, dport = packets.flow_table[fid]
            key = ((src, sport, dst, dport) if directions[fid]
                   else (dst, dport, src, sport))
            flow = flows.get(key)
            if flow is None:
                flow = flows[key] = FlowData(key=key)
            owners[fid] = flow

    window_times = array("d")
    window_values = array("d")
    window_t, window_v = window_times.append, window_values.append
    agg_t = trace._event_times.append
    agg_a = trace._event_advances.append
    payload_get = packets.payloads.get
    head_limit = FlowData.HEAD_CAPTURE_LIMIT
    syn, ack = F_SYN, F_ACK
    mask, half, modulus = SEQ_MOD - 1, HALF_MOD, SEQ_MOD

    # Accounting state of the flow the last data packet belonged to (flow
    # id `cur_fid`) lives in these locals; it is written back to the
    # FlowData on a switch to another flow and at the end.
    cur: Optional[FlowData] = None
    cur_fid = -1
    last_seq = rel = max_seen = head_expect = 0
    unique = total = retx = 0
    head = bytearray()

    for row, t, fid, seq, flags, plen, window in zip(
            count(), timestamps, packets.flow_ids, packets.seqs,
            packets.flags, packets.payload_lens, packets.windows):
        downstream = directions[fid]
        if downstream is False:  # client -> server
            if flags & syn:
                flow = owners[fid]
                if flow.syn_time is None:
                    flow.syn_time = t
            elif flags & ack:
                window_t(t)
                window_v(window)
            continue
        if downstream is None:
            continue
        if flags & syn:
            flow = owners[fid]
            if flow.synack_time is None:
                flow.synack_time = t
                if flow.syn_time is not None:
                    flow.handshake_rtt = t - flow.syn_time
            continue
        if plen <= 0:
            continue

        if fid != cur_fid:
            if cur is not None:
                _store(cur, last_seq, rel, max_seen, head_expect,
                       unique, total, retx)
            cur, cur_fid = owners[fid], fid
            if cur.base_seq is None:
                cur.base_seq = cur._last_seq = seq
            last_seq, rel = cur._last_seq, cur._rel
            max_seen, head_expect = cur.max_seq_seen, cur._head_expect
            unique, total = cur.unique_bytes, cur.total_payload_bytes
            retx, head = cur.retransmitted_bytes, cur.head_bytes
            flow_t = cur._event_times.append
            flow_a = cur._event_advances.append

        # unwrap: the signed 32-bit distance from the previous data packet
        delta = (seq - last_seq) & mask
        if delta > half:
            delta -= modulus
        rel += delta
        last_seq = seq
        # client-side retransmission detection by sequence regression (what
        # tstat-style tools do): a data packet starting below the highest
        # sequence already seen is a retransmission — either a duplicate or
        # a late hole-filler whose original was lost upstream of the capture
        if rel < max_seen:
            retx += plen
        end = rel + plen
        if end > max_seen:
            advance = end - max_seen
            max_seen = end
        else:
            advance = 0
        # capture the in-order leading bytes for HTTP/container parsing
        if rel == head_expect and len(head) < head_limit:
            payload = payload_get(row)
            if payload is not None:
                head.extend(payload)
                head_expect = end
        unique += advance
        total += plen
        flow_t(t)
        flow_a(advance)
        agg_t(t)
        agg_a(advance)

    if cur is not None:
        _store(cur, last_seq, rel, max_seen, head_expect, unique, total, retx)
    trace.window_series = TimeSeries.from_columns(
        "recv-window", window_times, window_values)
    return trace


def _store(flow: FlowData, last_seq: int, rel: int, max_seen: int,
           head_expect: int, unique: int, total: int, retx: int) -> None:
    """Write the builder's local accounting state back to ``flow``."""
    flow._last_seq, flow._rel = last_seq, rel
    flow.max_seq_seen, flow._head_expect = max_seen, head_expect
    flow.unique_bytes, flow.total_payload_bytes = unique, total
    flow.retransmitted_bytes = retx
    flow.first_data_time = flow._event_times[0]
    flow.last_data_time = flow._event_times[-1]
