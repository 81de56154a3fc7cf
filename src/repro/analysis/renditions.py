"""Rendition-ladder inference from traces (the Akhshabi method).

The paper explains Netflix's huge buffering amounts by citing Akhshabi et
al. [11]: during buffering the player downloads fragments of *all* the
available encoding rates.  That claim is checkable from a capture alone:
each rendition is fetched through requests whose ``Content-Range`` headers
advertise that rendition's total size, so the set of distinct totals seen
across a session's flows is the set of renditions touched — and each
total/duration is that rendition's encoding rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..http import HttpError, parse_content_range, parse_response_head
from .flowtable import DownloadTrace, FlowData


@dataclass
class RenditionObservation:
    """One rendition inferred from a session's traffic."""

    total_bytes: int                 # resource size advertised on the wire
    flows: int                       # connections that fetched from it
    bytes_fetched: int               # payload attributable to it
    rate_estimate_bps: Optional[float] = None  # with a known duration


@dataclass
class LadderObservation:
    """All renditions touched during one session."""

    renditions: List[RenditionObservation]

    @property
    def count(self) -> int:
        return len(self.renditions)


def _resource_total(flow: FlowData) -> Optional[int]:
    """The Content-Range total (or Content-Length) of a flow's first response."""
    head = bytes(flow.head_bytes)
    if not head:
        return None
    try:
        parsed = parse_response_head(head)
    except HttpError:
        return None
    if parsed is None:
        return None
    response, _consumed = parsed
    content_range = response.headers.get("Content-Range")
    if content_range is not None:
        try:
            _start, _end, total = parse_content_range(content_range)
        except Exception:
            return None
        return total
    return response.content_length


def detect_renditions(
    trace: DownloadTrace,
    *,
    duration: Optional[float] = None,
    tolerance: float = 0.02,
) -> LadderObservation:
    """Infer the rendition ladder touched by a session.

    Flows whose advertised resource totals agree within ``tolerance``
    (relative) are treated as the same rendition.  With the video
    ``duration`` known out-of-band, each rendition's encoding rate is
    ``total * 8 / duration``.
    """
    groups: List[Dict] = []  # {"total": int, "flows": int, "bytes": int}
    for flow in trace.flows.values():
        total = _resource_total(flow)
        if total is None or total <= 0:
            continue
        for group in groups:
            if abs(group["total"] - total) <= tolerance * group["total"]:
                group["flows"] += 1
                group["bytes"] += flow.unique_bytes
                break
        else:
            groups.append({"total": total, "flows": 1,
                           "bytes": flow.unique_bytes})
    renditions = [
        RenditionObservation(
            total_bytes=group["total"],
            flows=group["flows"],
            bytes_fetched=group["bytes"],
            rate_estimate_bps=(group["total"] * 8 / duration
                               if duration else None),
        )
        for group in sorted(groups, key=lambda g: g["total"])
    ]
    return LadderObservation(renditions)
