"""Append-only logical byte stream with real and virtual regions.

The TCP send buffer is a :class:`StreamBuffer`: applications append HTTP
headers as real bytes and video bodies as virtual byte counts.  The sender
reads arbitrary ranges back for (re)transmission; ranges that fall entirely
inside virtual regions yield ``None`` payloads (cheap), mixed ranges are
materialized with zero fill.

Acknowledged prefixes are trimmed to keep memory proportional to the
in-flight window, not the whole video.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

# Chunk: (start_offset, end_offset, data or None). data is None for virtual.
Chunk = Tuple[int, int, Optional[bytes]]


class StreamBuffer:
    """The logical outbound byte stream of one connection."""

    def __init__(self) -> None:
        self._chunks: List[Chunk] = []
        self._starts: List[int] = []  # parallel array for bisect
        self._length = 0              # total bytes ever appended
        self._trimmed = 0             # bytes discarded from the front

    # -- append -------------------------------------------------------------

    def append(self, data: bytes) -> None:
        """Append real bytes to the stream."""
        if not data:
            return
        start = self._length
        self._chunks.append((start, start + len(data), bytes(data)))
        self._starts.append(start)
        self._length += len(data)

    def append_virtual(self, n: int) -> None:
        """Append ``n`` virtual (content-free) bytes."""
        if n < 0:
            raise ValueError(f"cannot append {n} virtual bytes")
        if n == 0:
            return
        start = self._length
        # merge with a trailing virtual chunk to keep the list small
        if self._chunks and self._chunks[-1][2] is None and self._chunks[-1][1] == start:
            s, _e, _d = self._chunks[-1]
            self._chunks[-1] = (s, start + n, None)
        else:
            self._chunks.append((start, start + n, None))
            self._starts.append(start)
        self._length += n

    # -- inspect ------------------------------------------------------------

    @property
    def length(self) -> int:
        """Total bytes appended since creation (monotonic)."""
        return self._length

    def _chunk_index_for(self, offset: int) -> int:
        """Index of the chunk containing ``offset``."""
        i = bisect.bisect_right(self._starts, offset) - 1
        if i < 0:
            raise IndexError(f"offset {offset} below trimmed region")
        return i

    def is_virtual_range(self, start: int, end: int) -> bool:
        """True when ``[start, end)`` lies entirely in virtual chunks."""
        if start >= end:
            return True
        if start < self._trimmed or end > self._length:
            raise IndexError(
                f"range [{start}, {end}) outside [{self._trimmed}, {self._length})"
            )
        i = self._chunk_index_for(start)
        pos = start
        while pos < end:
            s, e, data = self._chunks[i]
            if data is not None:
                return False
            pos = e
            i += 1
        return True

    def read_range(self, start: int, end: int) -> Optional[bytes]:
        """Bytes in ``[start, end)``; ``None`` when fully virtual.

        Mixed ranges are materialized with zeros standing in for virtual
        bytes so real header bytes keep their exact stream positions.
        """
        if start >= end:
            return b""
        if start < self._trimmed or end > self._length:
            raise IndexError(
                f"range [{start}, {end}) outside [{self._trimmed}, {self._length})"
            )
        chunks = self._chunks
        if len(chunks) == 1 and chunks[0][2] is None:
            # steady state of a video transfer: after the real response
            # head is acked and trimmed, the whole live stream is one
            # virtual chunk — skip the per-chunk walk
            return None
        if self.is_virtual_range(start, end):
            return None
        parts: List[bytes] = []
        i = self._chunk_index_for(start)
        pos = start
        while pos < end:
            s, e, data = self._chunks[i]
            take_end = min(e, end)
            if data is None:
                parts.append(bytes(take_end - pos))
            else:
                parts.append(data[pos - s : take_end - s])
            pos = take_end
            i += 1
        return b"".join(parts)

    # -- trim ---------------------------------------------------------------

    def trim(self, upto: int) -> None:
        """Discard stream content below offset ``upto`` (cumulative ACK)."""
        if upto <= self._trimmed:
            return
        if upto > self._length:
            raise IndexError(f"cannot trim to {upto}; only {self._length} appended")
        keep_from = 0
        for idx, (s, e, data) in enumerate(self._chunks):
            if e > upto:
                keep_from = idx
                break
        else:
            keep_from = len(self._chunks)
        if keep_from:
            del self._chunks[:keep_from]
            del self._starts[:keep_from]
        # partially-covered head chunk: shrink it
        if self._chunks:
            s, e, data = self._chunks[0]
            if s < upto:
                if data is None:
                    self._chunks[0] = (upto, e, None)
                else:
                    self._chunks[0] = (upto, e, data[upto - s :])
                self._starts[0] = upto
        self._trimmed = upto

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamBuffer(length={self._length}, trimmed={self._trimmed}, "
            f"chunks={len(self._chunks)})"
        )
