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
capture's wire values in parallel, time-ordered numpy columns — read in
whole-column passes: each flow id's direction is resolved once, masks
pick the handshake, window and data rows, and each flow's data rows are
accounted by prefix sums and running maxima.  Only the sparse rows that
kept a payload are walked one by one, for the head bytes.  A
:class:`~repro.pcap.capture.PacketRecord` list (say, from a pcap file)
is converted to that view first.

Sequence numbers are 32-bit wire values; each flow unwraps them
independently, so the pipeline works on real pcap input too.

Per-packet output goes to columnar ``array('d')``/``array('q')`` event
logs.  The tuple-list views (:attr:`EventLog.events`) are materialized
lazily, on first access, for consumers that want pairs; the pipeline's
own stages read the columns.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

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
            self._event_times.tolist(),
            np.cumsum(self._event_advances).astype(np.float64).tolist(),
        )

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
    ts, fids, flags = packets.timestamps, packets.flow_ids, packets.flags
    flows: Dict[FlowKey, FlowData] = {}
    trace = DownloadTrace(
        client_ip=client_ip,
        server_ip=server_ip,
        flows=flows,
        window_series=TimeSeries("recv-window"),
        capture_start=float(ts[0]) if len(ts) else 0.0,
        capture_end=float(ts[-1]) if len(ts) else 0.0,
    )

    # Each flow id's direction: 1 downstream, -1 upstream, 0 for traffic
    # between other hosts.  Flows are keyed downstream and created in the
    # order their first packet, in either direction, appears.
    table = packets.flow_table
    direction = np.array(
        [1 if (src, dst) == (server_ip, client_ip)
         else -1 if (src, dst) == (client_ip, server_ip) else 0
         for src, _sport, dst, _dport in table], dtype=np.int8)
    owners: List[Optional[FlowData]] = [None] * len(table)
    ids, first_rows = np.unique(fids, return_index=True)
    for fid in ids[np.argsort(first_rows)].tolist():
        if direction[fid]:
            src, sport, dst, dport = table[fid]
            key = ((src, sport, dst, dport) if direction[fid] > 0
                   else (dst, dport, src, sport))
            flow = flows.get(key)
            if flow is None:
                flow = flows[key] = FlowData(key=key)
            owners[fid] = flow
    row_direction = direction[fids]
    upstream, downstream = row_direction < 0, row_direction > 0
    syn = (flags & F_SYN) != 0

    # handshake: each flow's first client SYN and first server SYN-ACK
    syn_rows: Dict[FlowKey, int] = {}
    for fid, row in _first_rows(upstream & syn, fids):
        flow = owners[fid]
        flow.syn_time = float(ts[row])
        syn_rows[flow.key] = row
    for fid, row in _first_rows(downstream & syn, fids):
        flow = owners[fid]
        flow.synack_time = float(ts[row])
        if syn_rows.get(flow.key, row) < row:
            flow.handshake_rtt = flow.synack_time - flow.syn_time

    # the client's advertised window, from its non-SYN ACKs
    acks = upstream & ~syn & ((flags & F_ACK) != 0)
    trace.window_series = TimeSeries.from_columns(
        "recv-window", ts[acks].tolist(),
        packets.windows[acks].astype(np.float64).tolist())

    rows = np.flatnonzero(downstream & ~syn & (packets.payload_lens > 0))
    data_t = ts[rows]
    data_fids = fids[rows]
    advances = np.zeros(len(rows), dtype=np.int64)
    has_payload = np.zeros(len(ts), dtype=bool)   # rows that kept one
    has_payload[list(packets.payloads)] = True
    # each flow's data positions, in time order; the passes below work in
    # place and drop what they no longer need, so a flow's peak is a few
    # arrays of its length (peak RSS is a benchmarked metric)
    by_flow = np.argsort(data_fids, kind="stable")
    spans = (np.split(by_flow, np.flatnonzero(np.diff(data_fids[by_flow])) + 1)
             if len(rows) else [])
    for span in spans:
        flow = owners[int(data_fids[span[0]])]
        flow_rows = rows[span]
        seq = packets.seqs[flow_rows]
        flow.base_seq = int(seq[0])
        # unwrap: the signed 32-bit distance from the previous data packet,
        # summed into each packet's offset from base_seq
        rel = np.zeros_like(seq)
        np.subtract(seq[1:], seq[:-1], out=rel[1:])
        del seq
        rel &= SEQ_MOD - 1
        rel[rel > HALF_MOD] -= SEQ_MOD
        np.cumsum(rel, out=rel)
        plen = packets.payload_lens[flow_rows]
        end = rel + plen
        # capture the in-order leading bytes for HTTP/container parsing
        kept = np.flatnonzero(has_payload[flow_rows])
        _capture_head(flow, rel[kept].tolist(), end[kept].tolist(),
                      flow_rows[kept].tolist(), packets.payloads)
        # the highest end-seq seen before each packet (0 before the first)
        seen = np.zeros_like(end)
        np.maximum.accumulate(end[:-1], out=seen[1:])
        flow.max_seq_seen = max(int(seen[-1]), int(end[-1]))
        flow.total_payload_bytes = int(plen.sum(dtype=np.int64))
        # client-side retransmission detection by sequence regression (what
        # tstat-style tools do): a data packet starting below the highest
        # sequence already seen is a retransmission — either a duplicate or
        # a late hole-filler whose original was lost upstream of the capture
        flow.retransmitted_bytes = int(plen[rel < seen].sum(dtype=np.int64))
        del rel, plen
        advance = np.maximum(np.subtract(end, seen, out=end), 0, out=end)
        del seen
        advances[span] = advance
        flow.unique_bytes = int(advance.sum())
        times = data_t[span]
        flow.first_data_time = float(times[0])
        flow.last_data_time = float(times[-1])
        _extend(flow._event_times, times)
        _extend(flow._event_advances, advance)
    _extend(trace._event_times, data_t)
    _extend(trace._event_advances, advances)
    return trace


def _extend(log: array, values: np.ndarray) -> None:
    """Append a numpy column of the log's item type to an event log."""
    log.frombytes(memoryview(values).cast("B"))


def _first_rows(mask: np.ndarray, fids: np.ndarray) -> List[Tuple[int, int]]:
    """``(flow id, row)`` of each flow id's first row under ``mask``."""
    rows = np.flatnonzero(mask)
    ids, first = np.unique(fids[rows], return_index=True)
    return list(zip(ids.tolist(), rows[first].tolist()))


def _capture_head(flow: FlowData, rels: List[int], ends: List[int],
                  rows: List[int], payloads: Dict[int, bytes]) -> None:
    """Append the in-order leading payloads of ``flow`` to its head.

    ``rels``/``ends`` are the flow-relative start and end of each of its
    data packets that kept a payload, in capture order; only those can
    extend the head, so the walk skips every other packet.
    """
    head, expect = flow.head_bytes, 0
    for rel, end, row in zip(rels, ends, rows):
        if rel == expect and len(head) < FlowData.HEAD_CAPTURE_LIMIT:
            head.extend(payloads[row])
            expect = end
