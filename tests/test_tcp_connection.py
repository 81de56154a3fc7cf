"""Integration tests for the TCP connection state machine on the simulator."""

import pytest

from repro.simnet import (
    DeterministicLoss,
    Network,
    NetworkProfile,
    build_client_server,
)
from repro.tcp import (
    CLOSE_WAIT,
    CLOSED,
    ESTABLISHED,
    FIN_WAIT_2,
    TcpConfig,
    TcpConnection,
    TcpListener,
)
from tests.conftest import run_bulk_transfer

CLEAN = NetworkProfile(
    name="Clean", down_bps=10e6, up_bps=10e6, rtt=0.02, loss_down=0.0,
    buffer_bytes=512 * 1024,
)
LOSSY = NetworkProfile(
    name="Lossy", down_bps=10e6, up_bps=10e6, rtt=0.02, loss_down=0.01,
    buffer_bytes=512 * 1024,
)


def make_pair(profile=CLEAN, seed=1, client_config=None, server_config=None,
              server_bytes=0, server_header=b"", auto_respond=True):
    """Wire a client and an accepting server; return the moving parts."""
    net, client_host, server_host, path = build_client_server(profile, seed=seed)
    state = {}

    def on_accept(conn):
        state["server"] = conn
        if auto_respond:
            def on_data(c):
                if c.recv(4096):
                    if server_header:
                        c.send(server_header)
                    if server_bytes:
                        c.send_virtual(server_bytes - len(server_header))
                    c.close()
            conn.on_data = on_data

    listener = TcpListener(server_host, net.scheduler, 80, on_accept,
                           config=server_config)
    client = TcpConnection(
        client_host, net.scheduler, client_host.allocate_port(),
        server_host.ip, 80, config=client_config,
    )
    return net, client, state, path, listener


class TestHandshake:
    def test_three_way_handshake_establishes_both_ends(self):
        net, client, state, _, _ = make_pair()
        connected = []
        client.on_connected = lambda c: connected.append("client")
        client.connect()
        net.run_until(1.0)
        assert client.state == ESTABLISHED
        assert state["server"].state == ESTABLISHED
        assert connected == ["client"]

    def test_handshake_takes_about_one_rtt(self):
        net, client, state, _, _ = make_pair()
        when = {}
        client.on_connected = lambda c: when.setdefault("t", net.now())
        client.connect()
        net.run_until(1.0)
        assert when["t"] == pytest.approx(CLEAN.rtt, rel=0.3)

    def test_syn_loss_is_retransmitted(self):
        net, client, state, path, _ = make_pair()
        path.reverse.loss_model = DeterministicLoss({0})  # client->server SYN
        client.connect()
        net.run_until(5.0)
        assert client.state == ESTABLISHED

    def test_synack_loss_is_recovered(self):
        net, client, state, path, _ = make_pair()
        path.forward.loss_model = DeterministicLoss({0})  # server->client SYN-ACK
        client.connect()
        net.run_until(5.0)
        assert client.state == ESTABLISHED

    def test_handshake_samples_rtt(self):
        net, client, state, _, _ = make_pair()
        client.connect()
        net.run_until(1.0)
        assert client.rtt.has_sample
        assert client.rtt.srtt == pytest.approx(CLEAN.rtt, rel=0.5)


class TestDataTransfer:
    def test_small_real_payload_integrity(self):
        payload = bytes(range(256)) * 40  # 10240 bytes
        result = run_bulk_transfer(CLEAN, len(payload), header=payload,
                                   keep_bytes=True)
        assert result.received == len(payload)
        assert b"".join(result.chunks) == payload

    def test_large_virtual_transfer_completes(self):
        result = run_bulk_transfer(CLEAN, 2_000_000)
        assert result.received == 2_000_000

    def test_payload_integrity_under_loss(self):
        payload = bytes(range(256)) * 400  # 102400 bytes, real content
        result = run_bulk_transfer(LOSSY, len(payload), header=payload,
                                   keep_bytes=True, seed=3)
        assert b"".join(result.chunks) == payload

    def test_transfer_completes_across_seeds_under_loss(self):
        for seed in range(5):
            result = run_bulk_transfer(LOSSY, 1_000_000, seed=seed)
            assert result.received == 1_000_000, f"seed {seed}"

    def test_throughput_bounded_by_link_rate(self):
        result = run_bulk_transfer(CLEAN, 2_000_000)
        rate = result.received * 8 / result.finished_at
        assert rate <= CLEAN.down_bps * 1.01

    def test_retransmission_rate_tracks_loss_rate(self):
        result = run_bulk_transfer(LOSSY, 2_000_000, seed=2)
        server = result.server
        assert server is not None
        # 1% loss should produce roughly 1% retransmitted bytes, not 5x that
        assert 0.0 < server.stats.retransmission_rate < 0.05

    def test_no_retransmissions_on_clean_path(self):
        result = run_bulk_transfer(CLEAN, 2_000_000)
        assert result.server.stats.retransmitted_segments == 0

    def test_mss_respected(self):
        net, client, state, path, _ = make_pair(server_bytes=100_000)
        sizes = []
        path.forward.add_tap(lambda t, seg: sizes.append(seg.payload_len))
        client.on_connected = lambda c: c.send(b"GET\r\n")
        client.on_data = lambda c: c.recv_discard(1 << 20)
        client.connect()
        net.run_until(10.0)
        assert max(sizes) <= client.config.mss


class TestFlowControl:
    def test_unread_data_stalls_sender(self):
        """A client that never reads must stall the server at ~rcv_buffer."""
        config = TcpConfig(recv_buffer=64 * 1024)
        net, client, state, _, _ = make_pair(
            client_config=config, server_bytes=1_000_000)
        client.on_connected = lambda c: c.send(b"GET\r\n")
        client.on_data = None  # never reads
        client.connect()
        net.run_until(10.0)
        server = state["server"]
        # sender stopped near the receive buffer size, not the full megabyte
        assert server.snd_nxt_off <= 64 * 1024 + server.config.mss
        # window effectively closed (below one MSS: sender SWS-avoids runts)
        assert client.recvbuf.window < client.config.mss

    def test_reading_reopens_window(self):
        config = TcpConfig(recv_buffer=64 * 1024)
        net, client, state, _, _ = make_pair(
            client_config=config, server_bytes=500_000)
        got = {"n": 0}
        client.on_connected = lambda c: c.send(b"GET\r\n")
        client.connect()
        net.run_until(10.0)  # buffer full, window effectively closed
        assert client.recvbuf.window < client.config.mss

        def drain():
            got["n"] += client.recv_discard(1 << 20)
            if got["n"] + client.recvbuf._unread < 500_000 \
                    or client.recvbuf._unread:
                net.scheduler.after(0.05, drain)

        net.scheduler.after(0.0, drain)
        net.run_until(60.0)
        assert got["n"] == 500_000

    def test_window_probe_fires_while_closed(self):
        config = TcpConfig(recv_buffer=32 * 1024)
        net, client, state, _, _ = make_pair(
            client_config=config, server_bytes=1_000_000)
        client.on_connected = lambda c: c.send(b"GET\r\n")
        client.connect()
        net.run_until(30.0)  # long zero-window period
        assert state["server"].stats.window_probes > 0

    def test_stall_and_resume_delivers_everything(self):
        """Pull-based reading (the HTML5/IE pattern) must not deadlock."""
        config = TcpConfig(recv_buffer=128 * 1024)
        net, client, state, _, _ = make_pair(
            client_config=config, server_bytes=600_000)
        got = {"n": 0}
        client.on_connected = lambda c: c.send(b"GET\r\n")
        client.connect()

        def pull():
            got["n"] += client.recv_discard(96 * 1024)
            if got["n"] < 600_000:
                net.scheduler.after(1.0, pull)

        net.scheduler.after(1.0, pull)
        net.run_until(60.0)
        assert got["n"] == 600_000


class TestTeardown:
    def test_server_close_reaches_client(self):
        net, client, state, _, _ = make_pair(server_bytes=10_000)
        fin_seen = []
        client.on_connected = lambda c: c.send(b"GET\r\n")
        client.on_data = lambda c: c.recv_discard(1 << 20)
        client.on_peer_fin = lambda c: fin_seen.append(net.now())
        client.connect()
        net.run_until(10.0)
        assert fin_seen
        assert client.state == CLOSE_WAIT
        assert state["server"].state == FIN_WAIT_2

    def test_full_close_both_ways(self):
        net, client, state, _, _ = make_pair(server_bytes=10_000)
        client.on_connected = lambda c: c.send(b"GET\r\n")
        client.on_data = lambda c: c.recv_discard(1 << 20)
        client.on_peer_fin = lambda c: c.close()
        client.connect()
        net.run_until(20.0)
        assert client.state == CLOSED
        assert state["server"].state == CLOSED

    def test_fin_not_sent_before_data_drains(self):
        """close() queues the FIN behind all pending data."""
        result = run_bulk_transfer(CLEAN, 500_000)
        # server closed right after send_virtual; everything must arrive
        assert result.received == 500_000

    def test_abort_sends_rst(self):
        net, client, state, _, _ = make_pair(server_bytes=1_000_000)
        closed = []
        client.on_connected = lambda c: c.send(b"GET\r\n")
        client.on_data = lambda c: c.recv_discard(1 << 20)
        client.connect()
        net.run_until(0.5)
        server = state["server"]
        server.on_closed = lambda c, reason: closed.append(reason)
        client.abort()
        net.run_until(2.0)
        assert client.state == CLOSED
        assert server.state == CLOSED
        assert closed == ["reset-by-peer"]


class TestIdleRestart:
    def _burst_after_idle(self, reset: bool) -> int:
        """Send, go idle 10 s, send again; return the post-idle cwnd."""
        config = TcpConfig(reset_cwnd_after_idle=reset)
        net, client, state, path, _ = make_pair(
            server_config=config, auto_respond=False)
        client.on_connected = lambda c: c.send(b"GET\r\n")
        client.on_data = lambda c: c.recv_discard(1 << 20)
        client.connect()
        net.run_until(0.5)
        server = state["server"]
        server.send_virtual(200_000)  # grow cwnd
        net.run_until(10.0)           # ... then idle
        server.send_virtual(10_000)
        net.run_until(10.001)
        return server.cc.cwnd

    def test_no_reset_keeps_cwnd_after_idle(self):
        cwnd = self._burst_after_idle(reset=False)
        assert cwnd > 10 * 1460  # still inflated: the paper's observation

    def test_rfc5681_reset_shrinks_cwnd_after_idle(self):
        cwnd = self._burst_after_idle(reset=True)
        assert cwnd == 3 * 1460


class TestStats:
    def test_byte_accounting_consistent(self):
        result = run_bulk_transfer(CLEAN, 300_000)
        server = result.server
        assert server.stats.bytes_sent == 300_000
        assert result.client.bytes_delivered == 300_000

    def test_segments_counted(self):
        result = run_bulk_transfer(CLEAN, 100_000)
        assert result.server.stats.segments_sent >= 100_000 // 1460
