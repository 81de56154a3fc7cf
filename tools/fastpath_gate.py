#!/usr/bin/env python
"""The CI fast-path gate: long-ON/OFF A/B, byte-identical and >= 2x.

Runs the gate workload (a receive-window-throttled 2 Mbps stream on the
clean 100 Mbps Research profile, the paper's long ON/OFF cycle shape) on
the shipped path, then on the scalar reference path that
:func:`reference_path` rebuilds — one scheduler event per delivered
packet, TCP's generic receive and send paths, dense monitor polling and
no fast-forward — and fails unless

* the two legs export **byte-identical** results (MD5 over packet
  records, flow records, metric samples and QoE), and
* the shipped leg is at least ``--min-speedup`` (default 2x) faster.

Legs are interleaved and the minimum wall time per leg is compared, so
one noisy-neighbour incident on a shared runner cannot produce a bogus
pass or fail.  The reference is patched in-process (the same context
manager the equivalence suite uses), so both legs share one import and
one warmed-up interpreter.

Usage::

    PYTHONPATH=src python tools/fastpath_gate.py [--rounds 3]
                                                 [--min-speedup 2.0]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import time

#: The reference patches, each undoing one layer of the shipped path:
#: ``train`` delivers one packet per scheduler event, ``receive`` sends
#: every segment through TCP's generic ``on_segment`` state machine,
#: ``burst`` sends every segment through the scalar ``_try_send`` loop,
#: and ``fast-forward`` refuses every OFF-period jump and polls the
#: player monitor at its dense cadence.
REFERENCE_PATCHES = ("train", "receive", "burst", "fast-forward")


def _deliver_one(link) -> None:
    """``Link._deliver_train`` for the reference: deliver the train's
    head alone and post the next reserved entry as its own event."""
    train = link._train
    _t, _seq, packet = train.popleft()
    scheduler = link.scheduler
    if train:
        nxt = train[0]
        scheduler.post(nxt[0], nxt[1], link._deliver_train)
    stats = link.stats
    stats.packets_delivered += 1
    stats.bytes_delivered += packet.wire_size
    now = scheduler.clock._now
    for tap in link._delivery_taps:
        tap(now, packet)
    link.deliver(packet)
    if getattr(packet, "poolable", False):
        packet.release()


def _refuse(*_args) -> bool:
    return False


@contextlib.contextmanager
def reference_path(*patches: str):
    """Run the simulator on the scalar reference path inside the block.

    Monkeypatches private methods only (no flag, env var or config
    field): with no arguments every patch in :data:`REFERENCE_PATCHES`
    applies, otherwise just the ones named.  Sessions must be built
    inside the block.
    """
    from repro.simnet.link import Link
    from repro.simnet.scheduler import EventScheduler
    from repro.streaming.client import MONITOR_INTERVAL_S, PlayerBase
    from repro.tcp.connection import TcpConnection

    table = {
        "train": [(Link, "_deliver_train", _deliver_one)],
        "receive": [(TcpConnection, "_fast_inorder_data", _refuse),
                    (TcpConnection, "_fast_pure_ack", _refuse)],
        "burst": [(TcpConnection, "_burst_send", _refuse)],
        "fast-forward": [
            (EventScheduler, "fast_forward_to", _refuse),
            (PlayerBase, "_monitor_delay",
             lambda _self, _now: MONITOR_INTERVAL_S),
        ],
    }
    saved = []
    try:
        for name in patches or REFERENCE_PATCHES:
            for owner, attr, fn in table[name]:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def run_leg(shipped: bool):
    """One gate-workload session on the shipped or the reference path."""
    from repro.obs.flows import flow_records
    from repro.obs.metrics import metric_samples
    from repro.simnet.profiles import RESEARCH
    from repro.streaming import Application, Service
    from repro.streaming.session import SessionConfig, run_session
    from repro.workloads import MBPS, Video

    video = Video(video_id="gate", duration=900.0,
                  encoding_rate_bps=2 * MBPS,
                  resolution="360p", container="flv")
    config = SessionConfig(profile=RESEARCH, service=Service.YOUTUBE,
                           application=Application.FIREFOX,
                           capture_duration=180.0, seed=7)
    with contextlib.nullcontext() if shipped else reference_path():
        started = time.perf_counter()
        result = run_session(video, config)
        wall = time.perf_counter() - started

    records = [
        (r.timestamp, r.src_ip, r.src_port, r.dst_ip, r.dst_port, r.seq,
         r.ack, r.flags, r.payload_len, r.window, r.wire_len, r.payload)
        for r in result.records
    ]
    exports = (records, result.downloaded, result.stall_events,
               result.playback_position_s, result.connections_opened,
               flow_records(result, "s"), metric_samples(result, "s"))
    digest = hashlib.md5(repr(exports).encode("utf-8")).hexdigest()
    return wall, digest, len(result.capture), result.downloaded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3,
                        help="interleaved rounds per leg (default 3)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required min(reference)/min(shipped) ratio "
                             "(default 2.0)")
    args = parser.parse_args(argv)

    fast_walls, slow_walls = [], []
    digests = set()
    for i in range(args.rounds):
        for shipped, walls in ((True, fast_walls), (False, slow_walls)):
            wall, digest, packets, downloaded = run_leg(shipped)
            walls.append(wall)
            digests.add(digest)
            leg = "shipped  " if shipped else "reference"
            print(f"round {i + 1}/{args.rounds}  {leg}  {wall:7.3f}s  "
                  f"{packets} packets  {downloaded} bytes  md5 {digest[:12]}")

    if len(digests) != 1:
        print(f"FAIL: legs exported {len(digests)} distinct digests — "
              "the shipped path changed results", file=sys.stderr)
        return 1

    speedup = min(slow_walls) / min(fast_walls)
    print(f"byte-identical exports; speedup {speedup:.2f}x "
          f"(min {min(fast_walls):.3f}s shipped vs {min(slow_walls):.3f}s "
          f"reference, best of {args.rounds})")
    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x < required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
