"""Capturing simulated traffic, tcpdump-style.

:class:`TraceCapture` attaches to links/paths as a tap and records every
segment (including ones later lost downstream, as a sender-side tcpdump
would).  A capture is read in three equivalent forms:

* :meth:`TraceCapture.columns` — a :class:`CaptureColumns` view: the wire
  values of every packet (wrapped sequence numbers, window-scale-quantized
  windows) in parallel columns, in time order.  This is what the analysis
  pipeline consumes; it allocates no per-packet object.
* :attr:`TraceCapture.records` — :class:`PacketRecord` objects built from
  that view, for callers that want one object per packet;
* :meth:`TraceCapture.write_pcap` — byte-exact libpcap output, which
  :func:`records_from_pcap` parses back into identical ``PacketRecord``
  lists (and :meth:`CaptureColumns.from_records` into the same view).
  The round trip exercises real header serialization (checksums, 32-bit
  sequence wrap, window scaling), proving the analysis would work
  unchanged on re-collected real traces.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..tcp.constants import ACK as F_ACK
from ..tcp.constants import FIN as F_FIN
from ..tcp.constants import SYN as F_SYN
from ..tcp.constants import header_overhead
from ..tcp.segment import TcpSegment
from ..tcp.seqspace import wrap
from . import ethernet, ipv4, tcpwire
from .pcapfile import DEFAULT_SNAPLEN, PcapReader, PcapWriter

#: Window-scale shift advertised on SYNs; 65535 << 7 ≈ 8 MB max window.
WSCALE_SHIFT = 7


@dataclass
class PacketRecord:
    """One captured TCP segment, as the analysis pipeline sees it."""

    timestamp: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    seq: int                 # wrapped 32-bit wire value
    ack: int                 # wrapped 32-bit wire value
    flags: int
    payload_len: int
    window: int              # bytes, after window-scale reconstruction
    wire_len: int
    payload: Optional[bytes] = None

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & F_SYN)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & F_FIN)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & F_ACK)

    def flow_key(self) -> Tuple[str, int, str, int]:
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port)


def _scaled_window_field(window: int, is_syn: bool) -> int:
    """The 16-bit window field value for a byte window."""
    if is_syn:
        return min(window, 0xFFFF)
    return min(window >> WSCALE_SHIFT, 0xFFFF)


def _window_from_field(field: int, is_syn: bool) -> int:
    if is_syn:
        return field
    return field << WSCALE_SHIFT


def record_from_segment(timestamp: float, seg: TcpSegment,
                        keep_payload: bool = True) -> PacketRecord:
    """Convert a simulated segment to a :class:`PacketRecord`.

    The advertised window is quantized exactly as the wire's scaled 16-bit
    field would, so fast-path records equal pcap-round-trip records.
    """
    field = _scaled_window_field(seg.window, seg.is_syn)
    return PacketRecord(
        timestamp=timestamp,
        src_ip=seg.src_ip,
        src_port=seg.src_port,
        dst_ip=seg.dst_ip,
        dst_port=seg.dst_port,
        seq=wrap(seg.seq),
        ack=wrap(seg.ack),
        flags=seg.flags,
        payload_len=seg.payload_len,
        window=_window_from_field(field, seg.is_syn),
        wire_len=seg.wire_size,
        payload=seg.payload if keep_payload else None,
    )


def segment_to_frame(seg: TcpSegment) -> bytes:
    """Serialize a simulated segment into real Ethernet/IPv4/TCP bytes."""
    is_syn = seg.is_syn
    tcp_bytes = tcpwire.pack(
        seg.src_ip,
        seg.dst_ip,
        seg.src_port,
        seg.dst_port,
        seq=wrap(seg.seq),
        ack=wrap(seg.ack),
        flags=seg.flags,
        window=_scaled_window_field(seg.window, is_syn),
        payload=seg.materialized_payload(),
        mss=1460 if is_syn else None,
        wscale=WSCALE_SHIFT if is_syn else None,
    )
    ip_bytes = ipv4.pack(seg.src_ip, seg.dst_ip, tcp_bytes)
    return ethernet.pack(
        ethernet.mac_from_ip(seg.dst_ip),
        ethernet.mac_from_ip(seg.src_ip),
        ip_bytes,
    )


FlowKey = Tuple[str, int, str, int]  # (src_ip, src_port, dst_ip, dst_port)

_SEQ_MASK = 0xFFFFFFFF
#: Smallest byte window whose scaled 16-bit field saturates at 0xFFFF.
_WINDOW_FIELD_CAP = 0x10000 << WSCALE_SHIFT


@dataclass(repr=False)
class CaptureColumns:
    """The wire values of a capture, one numpy column per field, in time
    order.

    Row ``i`` of every column describes the same packet; rows are sorted
    by timestamp, with capture (or file) order breaking ties.  Each packet
    names its direction by a *flow id*, an index into :attr:`flow_table`
    of ``(src_ip, src_port, dst_ip, dst_port)`` keys, so per-flow lookups
    happen once per flow rather than once per packet.

    :attr:`timestamps` are float64; :attr:`seqs` (wrapped 32-bit wire
    values) and :attr:`windows` (bytes, quantized exactly as the
    window-scaled 16-bit field carries them) are int64; :attr:`flow_ids`,
    :attr:`flags` and :attr:`payload_lens` are int32.  :attr:`payloads`
    is a sparse ``row -> bytes`` dict of the packets whose payload was
    kept.  Acknowledgment numbers are left out: the analysis never reads
    them.
    """

    timestamps: np.ndarray
    flow_ids: np.ndarray
    seqs: np.ndarray
    flags: np.ndarray
    payload_lens: np.ndarray
    windows: np.ndarray
    payloads: Dict[int, bytes]
    flow_table: List[FlowKey]

    def __len__(self) -> int:
        return len(self.timestamps)

    @classmethod
    def from_records(cls, records: Sequence[PacketRecord]
                     ) -> "CaptureColumns":
        """The view of a record list (e.g. :func:`records_from_pcap`).

        Records are taken in time order (list order on ties); windows are
        kept as the records carry them, already scaled by the shift each
        direction's SYN advertised.
        """
        ordered = sorted(records, key=lambda r: r.timestamp)
        flow_index: Dict[FlowKey, int] = {}
        flow_ids = [flow_index.setdefault(
            (r.src_ip, r.src_port, r.dst_ip, r.dst_port), len(flow_index))
            for r in ordered]
        return cls(
            np.array([r.timestamp for r in ordered], dtype=np.float64),
            np.array(flow_ids, dtype=np.int32),
            np.array([r.seq & _SEQ_MASK for r in ordered], dtype=np.int64),
            np.array([r.flags for r in ordered], dtype=np.int32),
            np.array([r.payload_len for r in ordered], dtype=np.int32),
            np.array([r.window for r in ordered], dtype=np.int64),
            {row: r.payload for row, r in enumerate(ordered)
             if r.payload is not None},
            list(flow_index))


class TraceCapture:
    """A sniffer recording per-segment fields into columnar buffers.

    The tap copies each segment's scalar fields into parallel ``array``
    columns instead of retaining the segment object — one append per
    field, no per-packet Python object.  That keeps multi-megabyte
    sessions allocation-lean (and lets the TCP layer pool segments: once
    the tap has copied the fields, nothing holds a reference).  Real
    payloads (HTTP heads, container metadata) are kept in a sparse dict
    keyed by capture index; virtual video-body payloads store nothing.

    :meth:`columns` turns those buffers into the time-ordered wire view
    the analysis reads; :class:`PacketRecord` objects are materialized
    from it only on :attr:`records` access.
    """

    def __init__(self, name: str = "capture", keep_payload: bool = True) -> None:
        self.name = name
        self.keep_payload = keep_payload
        self._t = array("d")           # capture timestamps
        self._flow = array("i")        # index into _flow_table
        self._seq = array("q")         # unwrapped sequence numbers
        self._ack = array("q")         # unwrapped ack numbers
        self._flags = array("i")
        self._plen = array("i")        # payload lengths
        self._window = array("q")      # raw byte windows (pre-quantization)
        self._payloads: Dict[int, bytes] = {}   # capture index -> real payload
        self._flow_table: List[Tuple[str, int, str, int]] = []
        self._flow_index: Dict[Tuple[str, int, str, int], int] = {}
        self._stopped = False
        # The link tap lists attach() joined; stop() leaves them, so a
        # finished capture is not kept alive by the network graph.
        self._joined: List[List] = []
        self._records_cache: Optional[List[PacketRecord]] = None
        # The tap runs once per captured packet; prebinding the column
        # append methods keeps it to one call per field.
        self._t_append = self._t.append
        self._flow_append = self._flow.append
        self._seq_append = self._seq.append
        self._ack_append = self._ack.append
        self._flags_append = self._flags.append
        self._plen_append = self._plen.append
        self._window_append = self._window.append

    # -- tap interface ------------------------------------------------------

    def tap(self, timestamp: float, segment: TcpSegment) -> None:
        """Link-tap callback; ignores packets after :meth:`stop`."""
        if self._stopped:
            return
        key = (segment.src_ip, segment.src_port,
               segment.dst_ip, segment.dst_port)
        idx = self._flow_index.get(key)
        if idx is None:
            idx = self._flow_index[key] = len(self._flow_table)
            self._flow_table.append(key)
        payload = segment.payload
        if payload is not None:
            self._payloads[len(self._t)] = payload
        self._t_append(timestamp)
        self._flow_append(idx)
        self._seq_append(segment.seq)
        self._ack_append(segment.ack)
        self._flags_append(segment.flags)
        self._plen_append(segment.payload_len)
        self._window_append(segment.window)

    def attach(self, *links) -> "TraceCapture":
        """Attach to any number of links or paths; returns self.

        Paths are tapped from the *client's* vantage point (endpoint b):
        downstream packets are stamped on arrival and lost ones never
        appear, exactly like a tcpdump on the measurement machine.
        Plain links are tapped at the sender side.
        """
        for link in links:
            if hasattr(link, "add_client_side_tap"):
                self._joined.extend(link.add_client_side_tap(self.tap))
            else:
                self._joined.append(link.add_tap(self.tap))
        return self

    def stop(self) -> None:
        """Stop recording (the 180-second capture cutoff of Section 4.2)
        and detach from every link joined."""
        self._stopped = True
        for taps in self._joined:
            taps.remove(self.tap)
        self._joined.clear()

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._t)

    def _order(self) -> np.ndarray:
        """Capture indices sorted by timestamp, capture order on ties."""
        return np.argsort(np.array(self._t), kind="stable")

    def columns(self) -> CaptureColumns:
        """The captured packets as a time-ordered :class:`CaptureColumns`.

        A snapshot: packets tapped afterwards need a new view.  Every
        column is a copy, so the tap's buffers stay resizable.  Sequence
        numbers are wrapped and windows quantized here, once per column,
        so the tap itself stays one append per field.
        """
        columns = [np.array(column) for column in (
            self._t, self._flow, self._seq, self._flags, self._plen,
            self._window)]
        ts = columns[0]
        payloads = dict(self._payloads) if self.keep_payload else {}
        if not (ts[1:] >= ts[:-1]).all():
            # A few packets were tapped out of time order (a delivery
            # stamped before an upstream send tapped earlier).
            order = np.argsort(ts, kind="stable")
            columns = [column[order] for column in columns]
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            payloads = dict(zip(rank[list(payloads)].tolist(),
                                payloads.values()))
        ts, flows, seqs, flags, plens, windows = columns
        seqs &= _SEQ_MASK
        # the wire's 16-bit window field: unscaled on SYNs, >> WSCALE_SHIFT
        # (saturating at 0xFFFF) on everything else
        syn = (flags & F_SYN) != 0
        np.minimum(windows, np.where(syn, 0xFFFF, _WINDOW_FIELD_CAP - 1),
                   out=windows)
        windows &= np.where(syn, -1, -1 << WSCALE_SHIFT)
        return CaptureColumns(ts, flows, seqs, flags, plens, windows,
                              payloads, list(self._flow_table))

    @property
    def records(self) -> List[PacketRecord]:
        """All captured segments as analysis records, in time order.

        Built from :meth:`columns` on first access and cached (keyed on
        the capture length) so repeated passes share one record list.
        """
        cached = self._records_cache
        if cached is not None and len(cached) == len(self._t):
            return cached
        view = self.columns()
        table = view.flow_table
        payload_get = view.payloads.get
        acks = np.array(self._ack)[self._order()] & _SEQ_MASK
        wire_lens = view.payload_lens + np.where(
            view.flags & F_SYN, header_overhead(F_SYN), header_overhead(0))
        # Bypass the dataclass __init__ (keyword processing dominates when
        # materializing tens of thousands of records): build the instance
        # dict directly.
        new = PacketRecord.__new__
        cls = PacketRecord
        out = []
        append = out.append
        for row, t, fid, seq, ack, flags, plen, window, wire_len in zip(
                count(), view.timestamps.tolist(), view.flow_ids.tolist(),
                view.seqs.tolist(), acks.tolist(), view.flags.tolist(),
                view.payload_lens.tolist(), view.windows.tolist(),
                wire_lens.tolist()):
            src_ip, src_port, dst_ip, dst_port = table[fid]
            rec = new(cls)
            rec.__dict__ = {
                "timestamp": t,
                "src_ip": src_ip,
                "src_port": src_port,
                "dst_ip": dst_ip,
                "dst_port": dst_port,
                "seq": seq,
                "ack": ack,
                "flags": flags,
                "payload_len": plen,
                "window": window,
                "wire_len": wire_len,
                "payload": payload_get(row),
            }
            append(rec)
        self._records_cache = out
        return out

    def iter_segments(self):
        """Yield ``(timestamp, TcpSegment)`` in record order.

        Segments are *reconstructed* from the columns (the originals are
        not retained); pcap writers use this to serialize real frames.
        """
        table = self._flow_table
        for i in self._order().tolist():
            src_ip, src_port, dst_ip, dst_port = table[self._flow[i]]
            yield self._t[i], TcpSegment(
                src_ip, src_port, dst_ip, dst_port,
                seq=self._seq[i], ack=self._ack[i], flags=self._flags[i],
                window=self._window[i], payload_len=self._plen[i],
                payload=self._payloads.get(i),
            )

    def write_pcap(self, path: str, snaplen: int = DEFAULT_SNAPLEN) -> int:
        """Serialize the capture to a libpcap file; returns packet count."""
        with open(path, "wb") as f:
            writer = PcapWriter(f, snaplen=snaplen)
            for timestamp, seg in self.iter_segments():
                writer.write_packet(timestamp, segment_to_frame(seg))
            return writer.packets_written


def records_from_pcap(path: str, *, verify_checksums: bool = True
                      ) -> List[PacketRecord]:
    """Parse a capture file into :class:`PacketRecord` objects.

    Both classic libpcap (tcpdump/windump) and pcapng (Wireshark/dumpcap)
    are accepted — the format is sniffed from the first block.  Window-
    scale shifts are learned from each direction's SYN, as any tcpdump-
    based analysis must.  Truncated (snaplen-limited) payloads are still
    accounted at their original length.
    """
    from .pcapng import PcapngReader, is_pcapng

    records: List[PacketRecord] = []
    with open(path, "rb") as f:
        reader = PcapngReader(f) if is_pcapng(path) else PcapReader(f)
        scales: Dict[Tuple[str, int, str, int], int] = {}
        for timestamp, frame, orig_len in reader:
            _dst, _src, ethertype, ip_payload = ethernet.unpack(frame)
            if ethertype != ethernet.ETHERTYPE_IPV4:
                continue
            truncated = orig_len > len(frame)
            src_ip, dst_ip, proto, tcp_bytes = ipv4.unpack(
                ip_payload, verify_checksum=verify_checksums and not truncated
            )
            if proto != ipv4.PROTO_TCP:
                continue
            wire = tcpwire.unpack(
                src_ip, dst_ip, tcp_bytes,
                verify_checksum=verify_checksums and not truncated,
            )
            key = (src_ip, wire.src_port, dst_ip, wire.dst_port)
            if wire.flags & tcpwire.SYN:
                scales[key] = wire.wscale or 0
            shift = scales.get(key, WSCALE_SHIFT)
            # payload length on the wire (before snaplen truncation):
            # orig_len - ethernet - ip header - tcp data offset
            tcp_header_len = len(tcp_bytes) - len(wire.payload)
            payload_len = orig_len - ethernet.HEADER_LEN - ipv4.HEADER_LEN - tcp_header_len
            records.append(
                PacketRecord(
                    timestamp=timestamp,
                    src_ip=src_ip,
                    src_port=wire.src_port,
                    dst_ip=dst_ip,
                    dst_port=wire.dst_port,
                    seq=wire.seq,
                    ack=wire.ack,
                    flags=wire.flags,
                    payload_len=payload_len,
                    window=wire.scaled_window(shift),
                    wire_len=orig_len,
                    payload=wire.payload if not truncated else None,
                )
            )
    return records
