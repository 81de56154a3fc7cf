"""Campaign reports: render a run ledger into markdown or HTML.

``repro report`` is the post-hoc half of the health plane: the ledger
(:mod:`repro.runner.ledger`) records what a campaign did, this module
replays it into a self-contained document — event timeline, per-worker
utilization, unit latency percentiles (via the same
:mod:`repro.stats` sketches the aggregate exports use), cache-hit /
retry / quarantine tallies, failure attribution and health suspicions —
plus, for distributed campaigns, the fabric's story (queue, shards
published vs prefilled, every re-leased shard with who lost it and who
finished it).

Markdown is the primary rendering (readable in a terminal, a gist, or
a CI artifact); :func:`render_html` wraps the same content in one
dependency-free HTML file for browsers.  Everything here is a pure
function of the loaded :class:`~repro.runner.ledger.LedgerView` — the
report never touches the engine, the cache, or the clock beyond
formatting the timestamps the ledger already recorded.
"""

from __future__ import annotations

import html
import time
from pathlib import Path
from typing import List, Optional, Sequence

from ..stats import HistogramSketch, MomentAccumulator
from ..runner.ledger import LedgerView, UnitCounts

__all__ = [
    "render_html",
    "render_report",
    "write_report",
]

#: Percentiles reported on the unit-latency table.
_PERCENTILES = (50, 90, 99)


def _fmt_wall(ts: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))


def _fmt_seconds(value: float) -> str:
    if value >= 100:
        return f"{value:.0f}s"
    if value >= 1:
        return f"{value:.2f}s"
    return f"{value * 1000:.0f}ms"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def _clip(text: str, width: int = 60) -> str:
    text = str(text).replace("\n", " ").replace("|", "\\|")
    return text if len(text) <= width else text[:width - 3] + "..."


def render_report(view: LedgerView, *,
                  title: Optional[str] = None) -> str:
    """The campaign report for one loaded ledger, as markdown."""
    meta = view.meta
    counts = view.counts()
    span = view.span()
    duration = (span[1] - span[0]) if span else 0.0
    experiment = meta.get("experiment", "?")
    if title is None:
        title = (f"Campaign report — {experiment} "
                 f"(scale={meta.get('scale', '?')}, "
                 f"seed={meta.get('seed', '?')})")

    lines: List[str] = [f"# {title}", ""]
    lines.append(f"- Schema: `{view.schema}`, {len(view.events)} events")
    if span:
        lines.append(f"- Window: {_fmt_wall(span[0])} → {_fmt_wall(span[1])} "
                     f"({_fmt_seconds(duration)})")
    tally = UnitCounts()
    for event in view.events:
        tally.fold(event)
    lines.append(
        f"- Units: {tally.total} scheduled ({tally.cache_hits} cache hits), "
        f"{counts.get('done', 0)} done, {tally.retries} retried, "
        f"{tally.failed} quarantined")
    if counts.get("merged"):
        lines.append(f"- Shards merged: {counts['merged']}")
    if counts.get("suspect"):
        lines.append(f"- Health suspicions: {counts['suspect']}")
    lines.append("")

    # -- timeline ------------------------------------------------------------
    lines += ["## Timeline", ""]
    if span:
        base = span[0]
        rows = [(kind, len(stamps),
                 f"+{_fmt_seconds(min(stamps) - base)}",
                 f"+{_fmt_seconds(max(stamps) - base)}")
                for kind, stamps in sorted(view.timeline().items())]
        lines += _table(("event", "count", "first", "last"), rows)
    else:
        lines.append("(empty ledger)")
    lines.append("")

    # -- workers -------------------------------------------------------------
    workers = view.workers()
    if workers:
        lines += ["## Workers", ""]
        rows = []
        for name in sorted(workers):
            lane = workers[name]
            util = (100.0 * lane["busy_s"] / duration) if duration > 0 else 0.0
            rows.append((
                name,
                ",".join(str(p) for p in lane["pids"]) or "?",
                lane["done"], _fmt_seconds(lane["busy_s"]), f"{util:.0f}%",
                lane["retried"], lane["quarantined"],
                f"{lane['rss_kb'] // 1024}MB" if lane["rss_kb"] else "?",
                lane["suspicions"]))
        lines += _table(("worker", "pid(s)", "units", "busy", "util",
                         "retried", "quarantined", "rss", "suspicions"), rows)
        lines.append("")

    # -- distribution --------------------------------------------------------
    dist = view.distribution()
    if dist is not None:
        lines += ["## Distribution", ""]
        lines.append(f"- Queue: `{dist.get('queue', '?')}` "
                     f"(lease TTL {dist.get('ttl', '?')}s, "
                     f"{dist.get('workers', 0)} coordinator-spawned "
                     f"workers)")
        lines.append(f"- Shards: {dist.get('shards', 0)} published "
                     f"({dist.get('cache_hits', 0)} prefilled from the "
                     f"store)")
        lines.append(f"- Re-leases: {dist['re_leases']}, worker exits: "
                     f"{dist['worker_exits']}")
        lines.append("")
        releases = view.releases()
        if releases:
            rows = [(event.get("unit", "?"),
                     _clip(event.get("shard", "") or "", 40),
                     event.get("previous") or "?",
                     event.get("worker", "?"))
                    for event in releases]
            lines += _table(("unit", "shard", "lost by", "re-leased to"),
                            rows)
            lines.append("")

    # -- unit latencies ------------------------------------------------------
    latencies = view.unit_latencies()
    if latencies:
        lines += ["## Unit latencies", ""]
        moments = MomentAccumulator()
        sketch = HistogramSketch()
        moments.add_many(latencies)
        sketch.observe_many(latencies)
        row = [moments.count, _fmt_seconds(moments.mean),
               _fmt_seconds(moments.min), _fmt_seconds(moments.max)]
        headers = ["count", "mean", "min", "max"]
        for q in _PERCENTILES:
            headers.append(f"p{q}")
            value = sketch.percentile(q)
            row.append(_fmt_seconds(value) if value is not None else "?")
        lines += _table(headers, [row])
        lines.append("")

    # -- failures ------------------------------------------------------------
    failures = view.failures()
    if failures:
        lines += ["## Failures", ""]
        rows = [(event.get("event", "?"), event.get("unit", "?"),
                 event.get("worker") or "?", event.get("kind", "?"),
                 event.get("attempts", "?"),
                 _clip(event.get("error", "")))
                for event in failures]
        lines += _table(("outcome", "unit", "worker", "kind", "attempts",
                         "error"), rows)
        lines.append("")

    # -- suspicions ----------------------------------------------------------
    suspicions = view.suspicions()
    if suspicions:
        lines += ["## Health suspicions", ""]
        rows = [(event.get("kind", "?"), event.get("worker", "?"),
                 event.get("unit", ""),
                 _fmt_seconds(event.get("age_s", 0.0)),
                 _clip(event.get("detail", "")))
                for event in suspicions]
        lines += _table(("kind", "worker", "unit", "age", "detail"), rows)
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"


def render_html(markdown: str, title: str = "Campaign report") -> str:
    """Wrap a markdown report in one self-contained HTML document.

    A tiny renderer for exactly the subset :func:`render_report` emits —
    headings, pipe tables, bullet lists, paragraphs — with no external
    assets, so the file travels whole.
    """
    body: List[str] = []
    in_table = False
    in_list = False

    def close_blocks() -> None:
        nonlocal in_table, in_list
        if in_table:
            body.append("</table>")
            in_table = False
        if in_list:
            body.append("</ul>")
            in_list = False

    for raw in markdown.splitlines():
        line = raw.rstrip()
        if not line:
            close_blocks()
            continue
        if line.startswith("#"):
            close_blocks()
            level = len(line) - len(line.lstrip("#"))
            text = html.escape(line.lstrip("#").strip())
            body.append(f"<h{level}>{text}</h{level}>")
        elif line.startswith("|"):
            cells = [html.escape(c.strip().replace("\\|", "|"))
                     for c in line.strip("|").split("|")]
            if all(set(c) <= {"-"} for c in cells):
                continue  # the separator row
            tag = "td" if in_table else "th"
            if not in_table:
                body.append("<table>")
                in_table = True
            body.append("<tr>" + "".join(f"<{tag}>{c}</{tag}>"
                                         for c in cells) + "</tr>")
        elif line.startswith("- "):
            if not in_list:
                close_blocks()
                body.append("<ul>")
                in_list = True
            body.append(f"<li>{html.escape(line[2:])}</li>")
        else:
            close_blocks()
            body.append(f"<p>{html.escape(line)}</p>")
    close_blocks()
    styles = ("body{font-family:sans-serif;max-width:60em;margin:2em auto;"
              "padding:0 1em}table{border-collapse:collapse}"
              "td,th{border:1px solid #999;padding:.25em .6em;"
              "text-align:left}")
    return ("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            f"<title>{html.escape(title)}</title>"
            f"<style>{styles}</style></head>\n<body>\n"
            + "\n".join(body) + "\n</body></html>\n")


def write_report(view: LedgerView, path, *,
                 title: Optional[str] = None) -> str:
    """Render ``view`` to ``path`` — HTML when the suffix says so
    (``.html``/``.htm``), markdown otherwise.  Returns the rendered
    markdown either way (the CLI prints it when no path is given)."""
    markdown = render_report(view, title=title)
    target = Path(path)
    if target.suffix.lower() in (".html", ".htm"):
        first = markdown.splitlines()[0].lstrip("# ").strip()
        target.write_text(render_html(markdown, title=first),
                          encoding="utf-8")
    else:
        target.write_text(markdown, encoding="utf-8")
    return markdown
