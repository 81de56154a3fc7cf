"""TCP segments as exchanged inside the simulator.

A segment carries its 4-tuple (the simulator does not wrap segments in a
separate IP object), *unwrapped* sequence/ack numbers, flags, the advertised
receive window in bytes, and a payload.

Payloads can be **real** (``payload`` is a ``bytes`` of length
``payload_len`` — used for HTTP headers and container metadata the analysis
layer must parse) or **virtual** (``payload is None`` — video body bytes
whose content is irrelevant; only the length matters).  Virtual payloads
keep multi-megabyte streaming sessions cheap; the pcap writer zero-fills
them so emitted captures remain well-formed.
"""

from __future__ import annotations

from typing import Optional

from .constants import ACK, FIN, PSH, SYN, flags_repr, header_overhead


class TcpSegment:
    """One TCP segment in flight.

    Segments built via :meth:`acquire` are *pooled*: the delivering link
    hands them back through :meth:`release` once the receiver is done
    (delivery is synchronous and the capture taps copy fields out), so
    the sender's retransmit-free virtual-payload path reuses a handful of
    objects instead of allocating one per MSS.  Only segments with
    ``poolable`` set participate; hand-built segments are never recycled.
    """

    __slots__ = (
        "src_ip",
        "src_port",
        "dst_ip",
        "dst_port",
        "seq",
        "ack",
        "flags",
        "window",
        "payload_len",
        "payload",
        "sent_at",
        "retransmission",
        "poolable",
        "wire_size",
    )

    #: Shared free list for :meth:`acquire`/:meth:`release`.
    _pool: list = []
    #: Upper bound on the free list; beyond this, released segments are
    #: simply dropped for the garbage collector.
    _POOL_LIMIT = 1024

    def __init__(
        self,
        src_ip: str,
        src_port: int,
        dst_ip: str,
        dst_port: int,
        *,
        seq: int,
        ack: int = 0,
        flags: int = ACK,
        window: int = 0,
        payload_len: int = 0,
        payload: Optional[bytes] = None,
        sent_at: float = 0.0,
        retransmission: bool = False,
    ) -> None:
        if payload is not None and len(payload) != payload_len:
            raise ValueError(
                f"payload length mismatch: len(payload)={len(payload)} "
                f"payload_len={payload_len}"
            )
        if payload_len < 0:
            raise ValueError(f"payload_len must be >= 0, got {payload_len}")
        self.src_ip = src_ip
        self.src_port = src_port
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.payload_len = payload_len
        self.payload = payload
        self.sent_at = sent_at
        self.retransmission = retransmission
        self.poolable = False
        #: Bytes on the wire (Ethernet + IP + TCP headers + payload).
        #: Precomputed: flags and payload_len never change after build,
        #: and the link layer reads this once per hop.
        self.wire_size = header_overhead(flags) + payload_len

    # -- pooling ------------------------------------------------------------

    @classmethod
    def acquire(
        cls,
        src_ip: str,
        src_port: int,
        dst_ip: str,
        dst_port: int,
        *,
        seq: int,
        ack: int,
        flags: int,
        window: int,
        payload_len: int = 0,
        sent_at: float = 0.0,
    ) -> "TcpSegment":
        """Build a virtual-payload segment, reusing a pooled object if one
        is free.

        Only for the sender's hot path: the payload is always virtual
        (``payload is None``) and the segment is never a retransmission.
        The returned segment has ``poolable`` set, which tells the
        delivering link to :meth:`release` it after the receiver has
        processed it.
        """
        pool = cls._pool
        if pool:
            seg = pool.pop()
            seg.src_ip = src_ip
            seg.src_port = src_port
            seg.dst_ip = dst_ip
            seg.dst_port = dst_port
            seg.seq = seq
            seg.ack = ack
            seg.flags = flags
            seg.window = window
            seg.payload_len = payload_len
            seg.payload = None
            seg.sent_at = sent_at
            seg.retransmission = False
            seg.wire_size = header_overhead(flags) + payload_len
        else:
            seg = cls(
                src_ip,
                src_port,
                dst_ip,
                dst_port,
                seq=seq,
                ack=ack,
                flags=flags,
                window=window,
                payload_len=payload_len,
                sent_at=sent_at,
            )
        seg.poolable = True
        return seg

    def release(self) -> None:
        """Return a pooled segment to the free list (idempotence guard:
        clears ``poolable`` so a double release is a no-op)."""
        if self.poolable:
            self.poolable = False
            pool = TcpSegment._pool
            if len(pool) < TcpSegment._POOL_LIMIT:
                pool.append(self)

    # -- derived ------------------------------------------------------------

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & ACK)

    def materialized_payload(self) -> bytes:
        """The payload as real bytes, zero-filling virtual content."""
        if self.payload is not None:
            return self.payload
        return bytes(self.payload_len)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TcpSegment({self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port} "
            f"{flags_repr(self.flags)} seq={self.seq} ack={self.ack} "
            f"len={self.payload_len} win={self.window})"
        )
