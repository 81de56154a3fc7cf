"""The shipped hot path must be invisible in results.

The simulator ships one delivery path — the link's packet train, drained
in batches bounded by the scheduler's cancellable-event mark — plus
TCP's guard-first steady-state receive branch, burst sends, and the
OFF-period fast-forward with the analytic player monitor.  All of it
lives under one invariant: **byte-identical results**.  These tests run
full sessions across seven scenarios — every access profile, every
ON/OFF strategy family, lossy links, and scripted faults — and assert
the MD5 digest over every export — packet records, flow records, metric
samples, QoE — equals the scalar reference path that
``tools/fastpath_gate.py``'s :func:`reference_path` rebuilds, with all
of its patches and with each alone.  Profiling must not change the path
either: the session run through the engine under a ``repro profile``
subscriber fires the same scheduler events and fast-forward jumps as
the bare run, and carries them as ``sim_counters``.
"""

import hashlib
import pathlib
import sys

import pytest

import repro.streaming.session as session_mod
from repro.obs.flows import flow_records
from repro.obs.metrics import metric_samples
from repro.obs.profile import Profile
from repro.runner import RunLedger, engine_options, run_sessions
from repro.simnet.faults import FaultSchedule
from repro.simnet.profiles import ACADEMIC, HOME, RESEARCH, RESIDENCE
from repro.streaming import Application, Service
from repro.streaming.session import SessionConfig, run_session
from repro.tcp.connection import TcpConnection
from repro.tcp.constants import ACK, header_overhead
from repro.tcp.segment import TcpSegment
from repro.workloads import MBPS, Video

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from fastpath_gate import REFERENCE_PATCHES, reference_path  # noqa: E402

# The seven equivalence scenarios.  Together they cover every access
# profile, loss model (Bernoulli, bursty Gilbert-Elliott, near-clean),
# every ON/OFF strategy family (short-block Flash, bulk no-ON/OFF,
# client-throttled long-block), and scripted faults (link outage +
# bandwidth degradation over a lossy link).
SCENARIOS = {
    "residence-short-onoff": dict(
        profile=RESIDENCE, seed=7, container="flv", app=Application.FIREFOX),
    "academic-bursty-loss": dict(
        profile=ACADEMIC, seed=3, container="flv", app=Application.FIREFOX),
    "home-light-loss": dict(
        profile=HOME, seed=11, container="flv", app=Application.FIREFOX),
    "research-clean": dict(
        profile=RESEARCH, seed=7, container="flv", app=Application.FIREFOX),
    "bulk-no-onoff": dict(
        profile=RESEARCH, seed=5, container="webm", app=Application.FIREFOX),
    "throttled-long-onoff": dict(
        profile=RESEARCH, seed=9, container="webm", app=Application.CHROME),
    "faults-outage-degrade": dict(
        profile=RESIDENCE, seed=13, container="flv", app=Application.FIREFOX,
        faults=FaultSchedule().outage(8.0, 3.0).degrade(15.0, 6.0, 0.4)),
}


@pytest.fixture
def sessions(monkeypatch):
    """Every session's ``(scheduler, path)``, in run order, captured as
    its network is built."""
    built = []
    build_client_server = session_mod.build_client_server

    def build(*args, **kwargs):
        parts = build_client_server(*args, **kwargs)
        built.append((parts[0].scheduler, parts[3]))
        return parts

    monkeypatch.setattr(session_mod, "build_client_server", build)
    return built


def _sched_counts(sched):
    return (sched.fired, sched.fast_forward_jumps,
            sched.fast_forward_refusals)


def _assert_links_conserve(path) -> None:
    """Every packet handed to a link is delivered, lost, dropped at the
    queue, blackholed, or still riding the delivery train."""
    for link in (path.forward, path.reverse):
        stats = link.stats
        assert stats.packets_in == (
            stats.packets_delivered + stats.packets_lost
            + stats.packets_dropped_queue + stats.packets_blackholed
            + len(link._train)), link.name


def _run(scenario: dict, *, profiled: bool = False):
    """One short session; when ``profiled``, through the engine with a
    profile subscribed to an in-memory run ledger."""
    video = Video(video_id="equiv", duration=120.0,
                  encoding_rate_bps=2 * MBPS,
                  resolution="360p", container=scenario["container"])
    config = SessionConfig(profile=scenario["profile"],
                           service=Service.YOUTUBE,
                           application=scenario["app"],
                           capture_duration=30.0,
                           seed=scenario["seed"],
                           faults=scenario.get("faults"))
    if not profiled:
        return run_session(video, config)
    ledger = RunLedger()
    ledger.subscribe(Profile())
    with engine_options(jobs=1, ledger=ledger):
        [result] = run_sessions([(video, config)])
    return result


def _record_tuples(result):
    return [
        (r.timestamp, r.src_ip, r.src_port, r.dst_ip, r.dst_port, r.seq,
         r.ack, r.flags, r.payload_len, r.window, r.wire_len, r.payload)
        for r in result.records
    ]


def _exports(result):
    """Everything a run exports, as one comparable structure."""
    fault_times = ([(e.time, e.kind, e.detail)
                    for e in result.fault_log.entries]
                   if result.fault_log is not None else [])
    return (
        _record_tuples(result),
        result.downloaded,
        result.stall_events,
        result.playback_position_s,
        result.connections_opened,
        flow_records(result, "s"),
        metric_samples(result, "s"),
        fault_times,
    )


def _digest(exports) -> str:
    """MD5 over the full export surface of one run."""
    return hashlib.md5(repr(exports).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_exports_byte_identical_across_fastpath_toggles(name, sessions):
    """The non-negotiable contract: for each scenario the shipped run,
    the profiled run and each reference patch alone hash to the same MD5
    as the full reference path, profiling takes exactly the bare path,
    and every link conserves its packets."""
    scenario = SCENARIOS[name]
    with reference_path():
        reference = _exports(_run(scenario))
    ref_digest = _digest(reference)
    counts = {}
    for label in ("shipped", "profiled") + REFERENCE_PATCHES:
        if label in REFERENCE_PATCHES:
            with reference_path(label):
                result = _run(scenario)
        else:
            result = _run(scenario, profiled=label == "profiled")
        counts[label] = _sched_counts(sessions[-1][0])
        if label == "profiled":
            profiled = result.sim_counters
        got = _exports(result)
        if _digest(got) != ref_digest:
            # digest differs: diff the structured exports for a real
            # failure message instead of two opaque hashes
            assert got == reference, f"{name}/{label} diverged from reference"
            pytest.fail(f"{name}/{label}: digest mismatch with equal "
                        "exports (repr instability)")
    assert counts["profiled"] == counts["shipped"]
    assert tuple(profiled[key] for key in (
        "scheduler.events", "scheduler.ff_jumps",
        "scheduler.ff_refusals")) == counts["profiled"]
    assert len(sessions) == 3 + len(REFERENCE_PATCHES)  # every run above
    for _sched, path in sessions:
        _assert_links_conserve(path)


def test_fastpath_actually_engaged():
    """Guard against the fast path silently disabling itself: the lossy
    Residence scenario must really stream, and a fast-forwarding session
    must log analytic jumps over its OFF periods."""
    result = _run(SCENARIOS["residence-short-onoff"])
    assert len(result.capture) > 10_000  # the run really streamed
    # 30 s on Residence is all buffering phase (the link never idles), so
    # the OFF periods come from the clean 100 Mbps profile
    result = _run(SCENARIOS["research-clean"], profiled=True)
    assert result.sim_counters["scheduler.ff_jumps"] > 0


def _engagement_session(container: str, app: Application, sessions,
                        monkeypatch):
    """A 180 s Research session of a 900 s, 2 Mbps, 360p video (seed
    7), counting TCP's generic open-state receive calls with a spy.
    Returns ``(events fired, captured packets, generic calls)``."""
    generic = TcpConnection._segment_in_open_states
    calls = []

    def spy(conn, seg):
        calls.append(None)
        return generic(conn, seg)

    monkeypatch.setattr(TcpConnection, "_segment_in_open_states", spy)
    video = Video(video_id="gate", duration=900.0,
                  encoding_rate_bps=2 * MBPS,
                  resolution="360p", container=container)
    config = SessionConfig(profile=RESEARCH, service=Service.YOUTUBE,
                           application=app, capture_duration=180.0, seed=7)
    result = run_session(video, config)
    return sessions[-1][0].fired, len(result.capture), len(calls)


def test_gate_session_stays_on_the_batched_steady_state(sessions,
                                                        monkeypatch):
    """The fast-path gate's workload (Research, flv, Firefox): deliveries
    batch into few scheduler events, and nearly every segment takes the
    steady-state receive branch instead of the generic state machine."""
    fired, packets, generic = _engagement_session(
        "flv", Application.FIREFOX, sessions, monkeypatch)
    assert packets > 50_000
    assert fired <= 0.10 * packets
    assert generic <= 0.01 * packets


def test_client_throttled_session_batches_deliveries(sessions, monkeypatch):
    """The long ON/OFF strategy (Chrome pulling from its receive buffer):
    every data segment takes TCP's generic path, and the link's batches
    must carry on through those deliveries instead of ending at each."""
    fired, packets, _generic = _engagement_session(
        "webm", Application.CHROME, sessions, monkeypatch)
    assert packets > 50_000
    assert fired <= 0.10 * packets


def test_fault_scenario_actually_faulted():
    """The faults scenario must arm and fire its outage + degradation
    inside the captured window, or it proves nothing."""
    result = _run(SCENARIOS["faults-outage-degrade"])
    assert result.fault_log is not None
    kinds = {e.kind for e in result.fault_log.entries}
    assert "outage-start" in kinds
    assert "degrade-start" in kinds


class TestSegmentPool:
    def _acquire(self, **kw):
        defaults = dict(seq=100, ack=5, flags=ACK, window=65535,
                        payload_len=1460, sent_at=1.5)
        defaults.update(kw)
        return TcpSegment.acquire("10.0.0.1", 5000, "10.0.0.2", 80, **defaults)

    def test_release_then_acquire_reuses_the_object(self):
        TcpSegment._pool.clear()
        seg = self._acquire()
        assert seg.poolable
        seg.release()
        seg2 = self._acquire(seq=999, payload_len=0, sent_at=2.5)
        assert seg2 is seg
        assert seg2.seq == 999
        assert seg2.payload_len == 0
        assert seg2.sent_at == 2.5
        assert seg2.wire_size == header_overhead(ACK)

    def test_acquired_segment_matches_constructed_segment(self):
        TcpSegment._pool.clear()
        fresh = TcpSegment("10.0.0.1", 5000, "10.0.0.2", 80, seq=100, ack=5,
                           flags=ACK, window=65535, payload_len=1460,
                           sent_at=1.5)
        pooled = self._acquire()
        for field in ("src_ip", "src_port", "dst_ip", "dst_port", "seq",
                      "ack", "flags", "window", "payload_len", "payload",
                      "wire_size", "sent_at", "retransmission"):
            assert getattr(pooled, field) == getattr(fresh, field), field

    def test_pool_is_bounded(self):
        TcpSegment._pool.clear()
        segs = [self._acquire() for _ in range(TcpSegment._POOL_LIMIT + 50)]
        for seg in segs:
            seg.release()
        assert len(TcpSegment._pool) == TcpSegment._POOL_LIMIT


class TestColumnarCapture:
    """The columnar TraceCapture materializes records lazily and caches."""

    def _seg(self, i, payload=None):
        plen = len(payload) if payload is not None else 1460
        return TcpSegment("10.0.0.2", 80, "10.0.0.1", 5000, seq=i * 1460,
                         ack=1, flags=ACK, window=65535, payload_len=plen,
                         payload=payload, sent_at=float(i))

    def test_records_match_tapped_segments(self):
        from repro.pcap.capture import TraceCapture, record_from_segment
        cap = TraceCapture(name="t")
        segs = [self._seg(0), self._seg(1, b"HTTP/1.1 200 OK\r\n\r\n"),
                self._seg(2)]
        for i, seg in enumerate(segs):
            cap.tap(float(i), seg)
        assert len(cap) == 3
        expected = [record_from_segment(float(i), s)
                    for i, s in enumerate(segs)]
        assert cap.records == expected

    def test_records_are_cached_until_new_packets_arrive(self):
        from repro.pcap.capture import TraceCapture
        cap = TraceCapture(name="t")
        cap.tap(0.0, self._seg(0))
        first = cap.records
        assert cap.records is first          # cached
        cap.tap(1.0, self._seg(1))
        second = cap.records
        assert second is not first           # invalidated by new packet
        assert len(second) == 2

    def test_real_payloads_are_sparse(self):
        from repro.pcap.capture import TraceCapture
        cap = TraceCapture(name="t")
        cap.tap(0.0, self._seg(0))                       # virtual body
        cap.tap(1.0, self._seg(1, b"abc"))               # real bytes
        assert cap._payloads == {1: b"abc"}
        recs = cap.records
        assert recs[0].payload is None
        assert recs[1].payload == b"abc"

    def test_columns_put_out_of_order_taps_in_time_order(self):
        """Rows tapped out of time order move to their sorted place, ties
        keep capture order, and a moved row keeps its payload."""
        from repro.pcap.capture import TraceCapture, record_from_segment
        cap = TraceCapture(name="t")
        stamps = [0.0, 2.0, 1.0, 2.0, 1.0]
        segs = [self._seg(0), self._seg(1), self._seg(2, b"late"),
                self._seg(3), self._seg(4)]
        for t, seg in zip(stamps, segs):
            cap.tap(t, seg)
        view = cap.columns()
        order = [0, 2, 4, 1, 3]
        assert view.timestamps.tolist() == [stamps[i] for i in order]
        assert view.seqs.tolist() == [segs[i].seq for i in order]
        assert view.payloads == {1: b"late"}
        assert cap.records == [record_from_segment(stamps[i], segs[i])
                               for i in order]

    def test_columns_survive_segment_pooling(self):
        """The tap copies fields out, so recycling the segment afterwards
        must not disturb what was captured."""
        from repro.pcap.capture import TraceCapture
        TcpSegment._pool.clear()
        cap = TraceCapture(name="t")
        seg = TcpSegment.acquire("10.0.0.2", 80, "10.0.0.1", 5000, seq=42,
                                 ack=7, flags=ACK, window=1000,
                                 payload_len=1460, sent_at=0.0)
        cap.tap(0.0, seg)
        seg.release()
        TcpSegment.acquire("10.0.0.2", 80, "10.0.0.1", 5000, seq=999,
                           ack=999, flags=ACK, window=9, payload_len=1,
                           sent_at=9.0)
        rec = cap.records[0]
        assert rec.seq == 42
        assert rec.ack == 7
        assert rec.payload_len == 1460


# -- one trace builder: capture columns vs. pcap round trip -----------------

def _flat_times(*values):
    """Time-valued outputs as one flat float list (None as -1.0), for an
    approximate comparison: pcap stores microsecond timestamps."""
    flat = []
    for value in values:
        if isinstance(value, (list, tuple)):
            flat.extend(value)
        else:
            flat.append(-1.0 if value is None else value)
    return flat


def _analysis_fields(analysis):
    """``(exact, times, heads)``: every byte-valued output of one analysis,
    its time-valued outputs, and each flow's captured leading bytes."""
    trace = analysis.trace
    flows = list(trace.flows.values())
    exact = {
        "flows": [(f.key, f.unique_bytes, f.total_payload_bytes,
                   f.retransmitted_bytes, f.max_seq_seen, f.packet_count,
                   f.advances.tolist()) for f in flows],
        "aggregate": trace.advances.tolist(),
        "windows": trace.window_series.values,
        "handshakes": [f.handshake_rtt is not None for f in flows],
        "strategy": analysis.strategy,
        "blocks": analysis.block_sizes,
        "ackclock": analysis.ackclock,
        "encoding_rate": analysis.encoding_rate_bps,
    }
    times = _flat_times(
        *[_flat_times(f.syn_time, f.synack_time, f.handshake_rtt,
                      f.first_data_time, f.last_data_time,
                      f.activity.tolist()) for f in flows],
        trace.activity.tolist(), trace.window_series.times,
        trace.capture_start, trace.capture_end)
    heads = [bytes(f.head_bytes) for f in flows]
    return exact, times, heads


def _assert_same_analysis(direct, reparsed):
    exact, times, heads = _analysis_fields(direct)
    exact_p, times_p, heads_p = _analysis_fields(reparsed)
    assert exact == exact_p
    assert times == pytest.approx(times_p, abs=1e-6)
    # pcap frames carry virtual video bodies as zero bytes, so the pcap
    # head continues with zero fill where the capture's head stops
    for head, head_p in zip(heads, heads_p):
        assert head_p[:len(head)] == head
        assert not head_p[len(head):].strip(b"\0")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_capture_columns_and_pcap_records_analyze_identically(name, tmp_path):
    """``analyze_session`` reads the capture's columns; the pcap workflow
    parses records and converts them.  Both must give the same analysis,
    and the simulator's own records must give it exactly."""
    from repro.analysis import analyze_records, analyze_session
    from repro.pcap import records_from_pcap

    result = _run(SCENARIOS[name])
    direct = analyze_session(result)
    path = str(tmp_path / "session.pcap")
    result.capture.write_pcap(path)
    reparsed = analyze_records(records_from_pcap(path), result.client_ip,
                               result.server_ip,
                               duration=result.video.duration)
    _assert_same_analysis(direct, reparsed)
    from_records = analyze_records(result.records, result.client_ip,
                                   result.server_ip,
                                   duration=result.video.duration)
    assert _analysis_fields(from_records) == _analysis_fields(direct)


class TestHandBuiltCaptures:
    CLIENT, SERVER = "10.0.0.1", "192.0.2.1"

    def _seg(self, t, *, down, seq, flags, plen=0, window=65535,
             payload=None):
        src, dst = (self.SERVER, self.CLIENT) if down else (self.CLIENT,
                                                          self.SERVER)
        sport, dport = (80, 50000) if down else (50000, 80)
        return t, TcpSegment(src, sport, dst, dport, seq=seq, ack=1,
                             flags=flags, window=window, payload_len=plen,
                             payload=payload, sent_at=t)

    def test_sequence_wrap_through_capture_and_pcap(self, tmp_path):
        from repro.analysis import analyze_records
        from repro.pcap import TraceCapture, records_from_pcap
        from repro.tcp.constants import SYN

        isn = (1 << 32) - 5000          # the data crosses 2**32
        head = b"HTTP/1.1 200 OK\r\nContent-Length: 20000\r\n\r\n"
        packets = [
            self._seg(0.0, down=False, seq=7, flags=SYN),
            self._seg(0.02, down=True, seq=isn, flags=SYN | ACK),
            self._seg(0.021, down=False, seq=8, flags=ACK, window=70_001),
            self._seg(0.05, down=True, seq=isn + 1, flags=ACK,
                      plen=len(head), payload=head),
        ]
        offset, t = len(head), 0.05
        for i in range(12):
            t += 0.001
            packets.append(self._seg(t, down=True, seq=isn + 1 + offset,
                                     flags=ACK, plen=1460))
            offset += 1460
            packets.append(self._seg(t + 0.0005, down=False, seq=8,
                                     flags=ACK, window=200_000 - 999 * i))
        # a retransmission of the fourth body segment, which straddles 2**32
        packets.append(self._seg(t + 0.2, down=True,
                                 seq=isn + 1 + len(head) + 3 * 1460,
                                 flags=ACK, plen=1460))
        capture = TraceCapture(name="wrap")
        for stamp, seg in packets:
            capture.tap(stamp, seg)
        path = str(tmp_path / "wrap.pcap")
        capture.write_pcap(path)
        direct = analyze_records(capture.columns(), self.CLIENT, self.SERVER,
                                 duration=10.0)
        reparsed = analyze_records(records_from_pcap(path), self.CLIENT,
                                   self.SERVER, duration=10.0)
        _assert_same_analysis(direct, reparsed)
        flow = direct.trace.main_flow()
        assert flow.unique_bytes == offset
        assert flow.retransmitted_bytes == 1460
        assert bytes(flow.head_bytes) == head
        # windows reach the analysis quantized to the scaled wire field
        assert direct.trace.window_series.values[0] == 70_001 >> 7 << 7

    def test_pcap_window_scale_other_than_seven_is_kept(self, tmp_path):
        """Windows learned from a SYN advertising wscale 3 reach the window
        series as field << 3; converting the records to columns must not
        re-quantize them with the simulator's shift of 7."""
        from repro.analysis import build_download_trace
        from repro.pcap import (CaptureColumns, PcapWriter, ethernet, ipv4,
                                records_from_pcap, tcpwire)
        from repro.tcp.constants import SYN

        def frame(down, *, seq, flags, window, payload=b"", wscale=None):
            src, dst = (self.SERVER, self.CLIENT) if down else (self.CLIENT,
                                                              self.SERVER)
            sport, dport = (80, 50000) if down else (50000, 80)
            tcp = tcpwire.pack(src, dst, sport, dport, seq=seq, ack=1,
                               flags=flags, window=window, payload=payload,
                               mss=1460 if wscale is not None else None,
                               wscale=wscale)
            return ethernet.pack(ethernet.mac_from_ip(dst),
                                 ethernet.mac_from_ip(src),
                                 ipv4.pack(src, dst, tcp))

        fields = [1001, 3333, 65535]
        path = str(tmp_path / "wscale3.pcap")
        with open(path, "wb") as f:
            writer = PcapWriter(f)
            writer.write_packet(0.0, frame(False, seq=0, flags=SYN,
                                           window=65535, wscale=3))
            writer.write_packet(0.02, frame(True, seq=0, flags=SYN | ACK,
                                            window=65535, wscale=3))
            for i, field in enumerate(fields):
                writer.write_packet(0.1 + i, frame(False, seq=1, flags=ACK,
                                                   window=field))
                writer.write_packet(0.15 + i, frame(True, seq=1 + 100 * i,
                                                    flags=ACK, window=65535,
                                                    payload=b"x" * 100))
        records = records_from_pcap(path)
        assert [r.window for r in records if r.src_ip == self.CLIENT][1:] \
            == [field << 3 for field in fields]
        columns = CaptureColumns.from_records(records)
        assert columns.windows.tolist() == [r.window for r in records]
        trace = build_download_trace(records, self.CLIENT, self.SERVER)
        assert trace.window_series.values == [float(field << 3)
                                              for field in fields]
        assert 1001 << 3 != (1001 << 3) >> 7 << 7   # 7 would have changed it
        assert trace.total_bytes == 300
