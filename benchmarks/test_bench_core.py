"""Microbenchmarks for the simulation fast path (PR 5 + PR 8 tentpoles).

Five probes of the allocation-lean core; CI gates HEAD against its
parent on them with pytest-benchmark's ``--benchmark-compare-fail``:

* **scheduler churn** — raw event-loop throughput: tuple-entry posts,
  argument-carrying callbacks, handle cancellation and lazy deletion.
* **single long-cycle session** — the PR 5 acceptance workload: one
  600 s 2 Mbps video over the Residence profile, whose block transfer
  settles into the paper's long ON-OFF cycles (Figure 2 receive-window
  throttling).
* **fast-path gate session** — the PR 8 CI gate workload: the same
  throttled ON/OFF shape on the clean 100 Mbps Research profile, where
  fast-forward + vectorized dispatch + train batching carry the run
  (this is the workload ``.github/workflows/ci.yml`` times A/B).
* **bulk train session** — the no-ON/OFF bulk-transfer strategy (HTML5
  webm over Firefox), where ``transmit_train`` and the vectorized
  delivery loop dominate.
* **64-session campaign** — many short sessions back to back, the shape
  of the ROADMAP's campaign engine.

Each benchmark asserts the workload's deterministic outputs, so a perf
run doubles as a byte-identity check.
"""

import pytest

from repro.simnet import EventScheduler
from repro.simnet.profiles import RESEARCH, RESIDENCE
from repro.streaming import Application, Service
from repro.streaming.session import SessionConfig, run_session
from repro.workloads import MBPS, Video


def _long_cycle_session():
    """One long ON-OFF-cycle session (the acceptance microbenchmark)."""
    video = Video(video_id="bench-core", duration=600.0,
                  encoding_rate_bps=2 * MBPS,
                  resolution="360p", container="flv")
    config = SessionConfig(profile=RESIDENCE, service=Service.YOUTUBE,
                           application=Application.FIREFOX,
                           capture_duration=180.0, seed=7)
    return run_session(video, config)


def test_bench_core_scheduler_churn(benchmark):
    """Raw scheduler throughput: post/fire/cancel churn, no simulation."""

    def churn() -> int:
        sched = EventScheduler()
        fired = [0]

        def bump(n: int) -> None:
            fired[0] += n

        def plain() -> None:
            fired[0] += 1

        handles = []
        for i in range(20_000):
            t = (i % 997) * 1e-3 + 1e-6
            sched.call_at(t, bump, 1)
            handles.append(sched.at(t, plain))
        for handle in handles[::2]:     # cancel half: lazy deletion path
            handle.cancel()
        sched.run_until(2.0)
        return fired[0]

    fired = benchmark.pedantic(churn, rounds=3, iterations=1)
    assert fired == 20_000 + 10_000


def test_bench_core_session_long_cycle(benchmark):
    """The ≥2x acceptance workload: one long ON-OFF-cycle session."""
    result = benchmark.pedantic(_long_cycle_session, rounds=3, iterations=1)
    # Byte-identity pins (identical on main before the fast path landed).
    assert len(result.capture) == 69583
    assert result.downloaded == 66164352
    assert not result.failed


def test_bench_core_session_ff_gate(benchmark):
    """The CI fast-path gate workload: throttled ON/OFF streaming on a
    clean fast link, where the analytic layers do the heavy lifting."""

    def gate_session():
        video = Video(video_id="bench-ff", duration=900.0,
                      encoding_rate_bps=2 * MBPS,
                      resolution="360p", container="flv")
        config = SessionConfig(profile=RESEARCH, service=Service.YOUTUBE,
                               application=Application.FIREFOX,
                               capture_duration=180.0, seed=7)
        return run_session(video, config)

    result = benchmark.pedantic(gate_session, rounds=3, iterations=1)
    # Byte-identity pins (identical with every fast-path layer off).
    assert len(result.capture) == 68706
    assert result.downloaded == 66229888
    assert not result.failed


def test_bench_core_session_bulk_train(benchmark):
    """Bulk no-ON/OFF transfer: the vectorized packet-train workload."""

    def bulk_session():
        video = Video(video_id="bench-bulk", duration=120.0,
                      encoding_rate_bps=2 * MBPS,
                      resolution="360p", container="webm")
        config = SessionConfig(profile=RESEARCH, service=Service.YOUTUBE,
                               application=Application.FIREFOX,
                               capture_duration=60.0, seed=5)
        return run_session(video, config)

    result = benchmark.pedantic(bulk_session, rounds=3, iterations=1)
    assert not result.failed
    assert len(result.capture) == BULK_TRAIN_PACKETS
    assert result.downloaded == BULK_TRAIN_BYTES


#: Byte-identity pins for the bulk-train workload (identical with every
#: fast-path layer off; see tests/test_fastpath_equivalence.py).
BULK_TRAIN_PACKETS = 32891
BULK_TRAIN_BYTES = 30000032


def test_bench_core_campaign_64(benchmark):
    """64 short sessions back to back — the campaign-engine shape."""

    def campaign() -> int:
        total = 0
        for seed in range(64):
            video = Video(video_id=f"c{seed}", duration=120.0,
                          encoding_rate_bps=1 * MBPS,
                          resolution="360p", container="flv")
            config = SessionConfig(profile=RESIDENCE, service=Service.YOUTUBE,
                                   application=Application.FIREFOX,
                                   capture_duration=12.0, seed=seed)
            total += run_session(video, config).downloaded
        return total

    total = benchmark.pedantic(campaign, rounds=1, iterations=1)
    assert total > 0
