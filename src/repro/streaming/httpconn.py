"""Client-side HTTP response handling over a simulated TCP connection.

:class:`HttpResponseStream` incrementally parses response heads from the
socket and accounts body bytes (which are virtual and therefore discarded,
not materialized).  It supports several sequential responses on one
connection — the Netflix and iPad players reuse connections for many range
requests.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..http import HttpResponse, parse_response_head
from ..tcp import TcpConnection


class HttpResponseStream:
    """Sequential HTTP responses arriving on one connection."""

    def __init__(
        self,
        on_body_bytes: Callable[[int], None],
        on_response: Optional[Callable[[HttpResponse], None]] = None,
        on_complete: Optional[Callable[[HttpResponse], None]] = None,
    ) -> None:
        self.on_body_bytes = on_body_bytes
        self.on_response = on_response
        self.on_complete = on_complete
        self._headbuf = b""
        self._response: Optional[HttpResponse] = None
        self._body_expected = 0
        self._body_received = 0
        self.responses_completed = 0
        self.total_body_bytes = 0

    @property
    def in_body(self) -> bool:
        return self._response is not None

    def take(self, conn: TcpConnection, max_bytes: int) -> int:
        """Consume up to ``max_bytes`` of *body* from the socket.

        Head bytes are parsed as needed and do not count toward the
        budget.  Returns the number of body bytes consumed.
        """
        consumed = 0
        while consumed < max_bytes:
            if self._response is None:
                # surplus bytes from the previous body may already hold the
                # next head: try to parse before demanding socket data
                parsed = parse_response_head(self._headbuf) if self._headbuf else None
                if parsed is None:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    self._headbuf += chunk
                    parsed = parse_response_head(self._headbuf)
                    if parsed is None:
                        continue
                response, head_len = parsed
                surplus = self._headbuf[head_len:]
                self._headbuf = b""
                self._response = response
                length = response.content_length
                self._body_expected = length if length is not None else 1 << 62
                self._body_received = 0
                if self.on_response:
                    self.on_response(response)
                if surplus:
                    take = min(len(surplus), self._body_expected)
                    self._account_body(take)
                    consumed += take
                    extra = surplus[take:]
                    if extra:
                        # bytes of the *next* response head
                        self._headbuf = extra
                continue
            room = self._body_expected - self._body_received
            if room <= 0:
                self._finish_response()
                continue
            asked = max_bytes - consumed
            if room < asked:
                asked = room
            n = conn.recv_discard(asked)
            if n == 0:
                break
            self._account_body(n)
            consumed += n
            if n < asked:
                # the socket's in-order queue is drained; the next loop
                # iteration would just issue an empty read
                break
        if self.in_body and self._body_received >= self._body_expected:
            self._finish_response()
        return consumed

    def _account_body(self, n: int) -> None:
        self._body_received += n
        self.total_body_bytes += n
        if n:
            self.on_body_bytes(n)

    def _finish_response(self) -> None:
        response = self._response
        self._response = None
        self.responses_completed += 1
        if self.on_complete and response is not None:
            self.on_complete(response)
