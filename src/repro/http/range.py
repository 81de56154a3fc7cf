"""HTTP byte-range parsing and formatting (RFC 7233 subset).

The native iPad YouTube application and Netflix request video content in
explicit byte ranges across many successive TCP connections (Section 5.1.3
and 5.2); this module implements the ``Range`` / ``Content-Range`` headers
they use.
"""

from __future__ import annotations

from typing import Optional, Tuple


class RangeError(ValueError):
    """Unsatisfiable or malformed byte range."""


def parse_range(value: str, total: int) -> Tuple[int, int]:
    """Resolve a ``Range`` header against a ``total``-byte resource.

    Returns the inclusive ``(start, end)`` pair.  Supports the three RFC
    forms ``bytes=a-b``, ``bytes=a-`` and ``bytes=-n`` (final n bytes).
    """
    if total <= 0:
        raise RangeError(f"resource has no content (total={total})")
    if not value.startswith("bytes="):
        raise RangeError(f"unsupported range unit in {value!r}")
    spec = value[len("bytes="):]
    if "," in spec:
        raise RangeError("multi-range requests not supported")
    first, _sep, last = spec.partition("-")
    first = first.strip()
    last = last.strip()
    if first == "" and last == "":
        raise RangeError(f"empty range spec {value!r}")
    if first == "":
        # suffix form: final N bytes
        n = int(last)
        if n <= 0:
            raise RangeError(f"bad suffix length in {value!r}")
        start = max(0, total - n)
        end = total - 1
    else:
        start = int(first)
        end = int(last) if last else total - 1
    if start >= total:
        raise RangeError(f"range {value!r} starts beyond resource of {total} bytes")
    end = min(end, total - 1)
    if end < start:
        raise RangeError(f"range {value!r} is inverted")
    return start, end


def format_content_range(start: int, end: int, total: int) -> str:
    """``Content-Range`` header value for a 206 response."""
    if not 0 <= start <= end < total:
        raise RangeError(f"invalid content range {start}-{end}/{total}")
    return f"bytes {start}-{end}/{total}"


def parse_content_range(value: str) -> Tuple[int, int, Optional[int]]:
    """Parse ``Content-Range``; total is ``None`` for ``*``."""
    if not value.startswith("bytes "):
        raise RangeError(f"unsupported content-range {value!r}")
    span, _sep, total_part = value[len("bytes "):].partition("/")
    first, _sep2, last = span.partition("-")
    try:
        start = int(first)
        end = int(last)
    except ValueError:
        raise RangeError(f"bad content-range span in {value!r}") from None
    total = None if total_part.strip() == "*" else int(total_part)
    if end < start or (total is not None and end >= total):
        raise RangeError(f"inconsistent content-range {value!r}")
    return start, end, total
