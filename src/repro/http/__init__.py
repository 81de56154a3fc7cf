"""Minimal HTTP/1.1 plus container metadata for video streaming."""

from .codec import (
    HEADER_LEN as CONTAINER_HEADER_LEN,
    INVALID_FRAME_RATE,
    CodecError,
    ContainerMetadata,
    build_flv_header,
    build_webm_header,
    parse_container_header,
)
from .messages import (
    Headers,
    HttpError,
    HttpRequest,
    HttpResponse,
    parse_request,
    parse_response_head,
)
from .range import (
    RangeError,
    format_content_range,
    parse_content_range,
    parse_range,
)

__all__ = [
    "Headers",
    "HttpRequest",
    "HttpResponse",
    "HttpError",
    "parse_request",
    "parse_response_head",
    "RangeError",
    "parse_range",
    "format_content_range",
    "parse_content_range",
    "ContainerMetadata",
    "CodecError",
    "build_flv_header",
    "build_webm_header",
    "parse_container_header",
    "CONTAINER_HEADER_LEN",
    "INVALID_FRAME_RATE",
]
