"""Unit tests for the client-side HTTP response stream."""

import pytest

from repro.streaming import HttpResponseStream


class FakeConn:
    """A scripted socket: a queue of byte chunks (bytes or virtual ints)."""

    def __init__(self, chunks):
        self._chunks = list(chunks)

    def _take(self, max_bytes, materialize):
        if not self._chunks:
            return b"" if materialize else 0
        head = self._chunks[0]
        if isinstance(head, bytes):
            take = head[:max_bytes]
            rest = head[len(take):]
            if rest:
                self._chunks[0] = rest
            else:
                self._chunks.pop(0)
            return take if materialize else len(take)
        # virtual bytes
        take = min(head, max_bytes)
        if head - take:
            self._chunks[0] = head - take
        else:
            self._chunks.pop(0)
        return bytes(take) if materialize else take

    def recv(self, max_bytes):
        return self._take(max_bytes, materialize=True)

    def recv_discard(self, max_bytes):
        return self._take(max_bytes, materialize=False)


def response_bytes(length, extra_headers=""):
    return (f"HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n"
            f"{extra_headers}\r\n").encode()


class TestHttpResponseStream:
    def test_single_response_counted(self):
        conn = FakeConn([response_bytes(1000), 1000])
        got = []
        stream = HttpResponseStream(on_body_bytes=got.append)
        consumed = stream.take(conn, 1 << 20)
        assert consumed == 1000
        assert sum(got) == 1000
        assert stream.responses_completed == 1
        assert not stream.in_body

    def test_head_split_across_reads(self):
        head = response_bytes(500)
        conn = FakeConn([head[:10], head[10:], 500])
        stream = HttpResponseStream(on_body_bytes=lambda n: None)
        assert stream.take(conn, 1 << 20) == 500

    def test_budget_limits_body_not_head(self):
        conn = FakeConn([response_bytes(10_000), 10_000])
        stream = HttpResponseStream(on_body_bytes=lambda n: None)
        assert stream.take(conn, 4000) == 4000
        assert stream.take(conn, 10_000) == 6000
        assert stream.responses_completed == 1

    def test_sequential_responses_on_one_connection(self):
        conn = FakeConn([response_bytes(100), 100,
                         response_bytes(200), 200])
        completed = []
        stream = HttpResponseStream(
            on_body_bytes=lambda n: None,
            on_complete=lambda resp: completed.append(resp.content_length),
        )
        assert stream.take(conn, 1 << 20) == 300
        assert completed == [100, 200]
        assert stream.total_body_bytes == 300

    def test_surplus_head_bytes_after_body(self):
        """Body and the next response head arriving in one chunk."""
        first_head = response_bytes(50)
        second_head = response_bytes(70)
        conn = FakeConn([first_head + b"x" * 50 + second_head + b"y" * 70])
        completed = []
        stream = HttpResponseStream(
            on_body_bytes=lambda n: None,
            on_complete=lambda resp: completed.append(resp.content_length),
        )
        assert stream.take(conn, 1 << 20) == 120
        assert completed == [50, 70]

    def test_on_response_callback(self):
        conn = FakeConn([response_bytes(10), 10])
        seen = []
        stream = HttpResponseStream(
            on_body_bytes=lambda n: None,
            on_response=lambda resp: seen.append(resp.status),
        )
        stream.take(conn, 1 << 20)
        assert seen == [200]

    def test_empty_socket_returns_zero(self):
        stream = HttpResponseStream(on_body_bytes=lambda n: None)
        assert stream.take(FakeConn([]), 100) == 0

    def test_zero_length_body(self):
        conn = FakeConn([response_bytes(0) + response_bytes(10), 10])
        completed = []
        stream = HttpResponseStream(
            on_body_bytes=lambda n: None,
            on_complete=lambda resp: completed.append(resp.content_length),
        )
        assert stream.take(conn, 1 << 20) == 10
        assert completed == [0, 10]
