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
  fast-forward, batched train delivery and TCP's steady-state receive
  branch carry the run (this is the workload ``tools/fastpath_gate.py``
  times against its reference path).
* **bulk train session** — the no-ON/OFF bulk-transfer strategy (HTML5
  webm over Firefox), where burst sends (``transmit_train``) and the
  batched delivery loop dominate.
* **64-session campaign** — many short sessions back to back, the shape
  of the ROADMAP's campaign engine.
* **Monte-Carlo shard** — one 5,000-session shard of the Sec. 6
  ``model_validation`` campaign per strategy: the aggregate-rate grid
  kernel that fills the sharded and distributed campaigns.

Each benchmark asserts the workload's deterministic outputs, so a perf
run doubles as a byte-identity check.
"""

import pytest

from repro.model import (
    constant_strategy,
    short_onoff_strategy,
    simulate_aggregate_moments,
)
from repro.simnet import EventScheduler
from repro.simnet.profiles import RESEARCH, RESIDENCE
from repro.streaming import Application, Service
from repro.streaming.session import SessionConfig, run_session
from repro.workloads import MBPS, Video, make_youflash


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


#: Session count and Eq (3) mean of each strategy's shard; the means are
#: exact, as the shard's grid is deterministic to the last bit.
MC_SHARD_PINS = {
    "No ON-OFF": (4971, 62843772.84913478),
    "Short ON-OFF": (4971, 63611117.46540089),
    "Long ON-OFF": (4971, 63636322.41242489),
}


def test_bench_core_mc_shard(benchmark):
    """One 5,000-session Monte-Carlo shard per strategy, as the
    ``model_validation`` campaign runs them (arrival rate 0.3/s, 8 Mbps
    peak, the small YouFlash catalog, shard seed 1)."""
    catalog = make_youflash(seed=0, scale=0.02)
    strategies = {
        "No ON-OFF": constant_strategy,
        "Short ON-OFF": short_onoff_strategy(),
        "Long ON-OFF": short_onoff_strategy(block_bytes=5 * 1024 * 1024,
                                            buffering_playback_s=60.0),
    }

    def shards():
        return {name: simulate_aggregate_moments(
                    catalog, 0.3, horizon=5000 / 0.3, strategy=strategy,
                    peak_bps=8e6, seed=1)
                for name, strategy in strategies.items()}

    results = benchmark.pedantic(shards, rounds=3, iterations=1)
    assert {name: (shard.sessions, shard.mean_bps)
            for name, shard in results.items()} == MC_SHARD_PINS
