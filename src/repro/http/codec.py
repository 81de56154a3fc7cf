"""Container-format metadata headers (FLV-like and webM-like).

Section 5 of the paper extracts the video encoding rate from the header of
the streamed file when the container is Flash (FLV carries ``videodatarate``
in its onMetaData block), but cannot do so for HTML5 because the webM files
observed in 2011 carried an *invalid frame-rate entry*; the encoding rate of
HTML5 videos is instead estimated as ``Content-Length / duration``.

We reproduce both behaviours with compact, parseable stand-ins:

* :func:`build_flv_header` emits a blob whose metadata (encoding rate,
  duration, frame rate) parses back exactly;
* :func:`build_webm_header` emits a blob whose frame-rate field is the
  invalid sentinel and whose rate field is zeroed, forcing analysers down
  the Content-Length/duration path, exactly as the paper experienced.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

FLV_MAGIC = b"FLV\x01"
WEBM_MAGIC = b"wEBM"      # stand-in for the EBML magic
HEADER_STRUCT = struct.Struct("!4sdddI")  # magic, rate, duration, fps, size
HEADER_LEN = HEADER_STRUCT.size

#: The "invalid entry for the frame rate" the paper found in webM headers.
INVALID_FRAME_RATE = -1.0


class CodecError(ValueError):
    """Malformed container header."""


@dataclass
class ContainerMetadata:
    """Metadata recovered from a container header."""

    container: str                       # "flv" or "webm"
    encoding_rate_bps: Optional[float]   # None when the header lies
    duration: Optional[float]
    frame_rate: Optional[float]
    header_size: int = HEADER_LEN

    @property
    def has_valid_rate(self) -> bool:
        return self.encoding_rate_bps is not None and self.encoding_rate_bps > 0


def build_flv_header(encoding_rate_bps: float, duration: float,
                     frame_rate: float = 25.0) -> bytes:
    """An FLV-like header carrying trustworthy metadata."""
    if encoding_rate_bps <= 0 or duration <= 0:
        raise CodecError(
            f"rate and duration must be positive "
            f"(rate={encoding_rate_bps!r}, duration={duration!r})"
        )
    return HEADER_STRUCT.pack(FLV_MAGIC, encoding_rate_bps, duration,
                              frame_rate, HEADER_LEN)


def build_webm_header(duration: float) -> bytes:
    """A webM-like header with the 2011 invalid-frame-rate defect.

    The rate field is zero and the frame rate is the invalid sentinel, so
    no parser can recover the encoding rate from the header alone.
    """
    if duration <= 0:
        raise CodecError(f"duration must be positive, got {duration!r}")
    return HEADER_STRUCT.pack(WEBM_MAGIC, 0.0, duration,
                              INVALID_FRAME_RATE, HEADER_LEN)


def parse_container_header(data: bytes) -> ContainerMetadata:
    """Parse the leading container header of a video byte stream.

    Raises :class:`CodecError` when the magic is unknown or the blob is
    shorter than a header.
    """
    if len(data) < HEADER_LEN:
        raise CodecError(
            f"need {HEADER_LEN} bytes of header, got {len(data)}"
        )
    magic, rate, duration, fps, size = HEADER_STRUCT.unpack(data[:HEADER_LEN])
    if magic == FLV_MAGIC:
        return ContainerMetadata(
            container="flv",
            encoding_rate_bps=rate,
            duration=duration,
            frame_rate=fps,
            header_size=size,
        )
    if magic == WEBM_MAGIC:
        # the frame-rate entry is invalid and the rate field is unusable:
        # report what a careful parser could actually trust
        return ContainerMetadata(
            container="webm",
            encoding_rate_bps=None,
            duration=duration,
            frame_rate=None if fps == INVALID_FRAME_RATE else fps,
            header_size=size,
        )
    raise CodecError(f"unknown container magic {magic!r}")
