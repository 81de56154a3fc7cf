#!/usr/bin/env python3
"""Quickstart: stream one video, capture its traffic, analyze it.

Reproduces the core loop of the paper's methodology in ~40 lines:

1. build a YouTube-Flash video and stream it through the simulated
   Research network (Section 4.2's setup);
2. capture the packets (they can also be written as a real pcap file);
3. run the measurement pipeline: ON/OFF detection, buffering phase,
   block sizes, accumulation ratio, strategy classification.

Run:  python examples/quickstart.py
"""

from repro.analysis import analyze_session, bytes_human, median
from repro.simnet import RESEARCH
from repro.streaming import (
    Application,
    Container,
    Service,
    SessionConfig,
    run_session,
)
from repro.workloads import MBPS, Video


def main() -> None:
    video = Video(
        video_id="quickstart",
        duration=300.0,                 # a five-minute clip
        encoding_rate_bps=1.0 * MBPS,   # 360p-ish
        resolution="360p",
        container="flv",                # YouTube's default on PCs in 2011
    )

    config = SessionConfig(
        profile=RESEARCH,               # 100 Mbps access, 20 ms RTT
        service=Service.YOUTUBE,
        application=Application.FIREFOX,
        container=Container.FLASH,
        capture_duration=120.0,
        seed=42,
    )

    print(f"Streaming {video} through the {config.profile.name} network ...")
    result = run_session(video, config)
    analysis = analyze_session(result)

    print(f"\ncaptured packets : {len(result.capture)}")
    print(f"downloaded       : {bytes_human(result.downloaded)}")
    print(f"strategy         : {analysis.strategy}")
    print(f"buffering amount : {bytes_human(analysis.buffering_bytes)} "
          f"(~{analysis.buffering_playback_s:.0f} s of playback)")
    blocks = analysis.block_sizes
    print(f"steady-state     : {len(blocks)} blocks, median "
          f"{bytes_human(median(blocks))}")
    print(f"accumulation     : {analysis.accumulation_ratio:.2f} "
          f"(download rate / encoding rate)")
    print(f"rate recovered   : {analysis.rate_estimate.method} -> "
          f"{analysis.encoding_rate_bps / 1e6:.2f} Mbps")

    # the capture is byte-exact pcap if you want to inspect it elsewhere
    path = "/tmp/quickstart_session.pcap"
    n = result.capture.write_pcap(path)
    print(f"\nwrote {n} packets to {path} (open with wireshark/tcpdump)")


if __name__ == "__main__":
    main()
