"""Tests for the HTTP layer: messages, ranges, container headers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.http import (
    CONTAINER_HEADER_LEN,
    CodecError,
    Headers,
    HttpError,
    HttpRequest,
    HttpResponse,
    RangeError,
    build_flv_header,
    build_webm_header,
    format_content_range,
    parse_container_header,
    parse_content_range,
    parse_range,
    parse_request,
    parse_response_head,
)


class TestHeaders:
    def test_case_insensitive_get(self):
        h = Headers([("Content-Length", "42")])
        assert h.get("content-length") == "42"
        assert "CONTENT-LENGTH" in h

    def test_set_replaces_existing(self):
        h = Headers([("Range", "bytes=0-1")])
        h.set("range", "bytes=2-3")
        assert len(h) == 1
        assert h.get("Range") == "bytes=2-3"

    def test_missing_returns_default(self):
        assert Headers().get("X-Nope", "dflt") == "dflt"

    def test_serialize_preserves_order(self):
        h = Headers([("A", "1"), ("B", "2")])
        assert h.serialize() == b"A: 1\r\nB: 2\r\n"


class TestRequest:
    def test_serialize_parse_round_trip(self):
        req = HttpRequest("GET", "/videoplayback?id=42")
        req.headers.set("Host", "youtube.example")
        req.headers.set("Range", "bytes=0-65535")
        parsed, consumed = parse_request(req.serialize())
        assert parsed.method == "GET"
        assert parsed.path == "/videoplayback?id=42"
        assert parsed.range_header == "bytes=0-65535"
        assert consumed == len(req.serialize())

    def test_incomplete_head_returns_none(self):
        assert parse_request(b"GET / HTTP/1.1\r\nHost: x\r\n") is None

    def test_trailing_bytes_not_consumed(self):
        data = HttpRequest("GET", "/a").serialize() + b"EXTRA"
        _req, consumed = parse_request(data)
        assert data[consumed:] == b"EXTRA"

    def test_bad_request_line(self):
        with pytest.raises(HttpError):
            parse_request(b"BROKEN\r\n\r\n")

    def test_bad_header_line(self):
        with pytest.raises(HttpError):
            parse_request(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")


class TestResponse:
    def test_serialize_parse_round_trip(self):
        resp = HttpResponse(200)
        resp.headers.set("Content-Length", "123456")
        parsed, _ = parse_response_head(resp.serialize_head())
        assert parsed.status == 200
        assert parsed.reason == "OK"
        assert parsed.content_length == 123456

    def test_default_reasons(self):
        assert HttpResponse(206).reason == "Partial Content"
        assert HttpResponse(416).reason == "Range Not Satisfiable"

    def test_content_length_absent(self):
        assert HttpResponse(200).content_length is None

    def test_bad_status_line(self):
        with pytest.raises(HttpError):
            parse_response_head(b"HTTP/1.1 abc\r\n\r\n")

    def test_incomplete_returns_none(self):
        assert parse_response_head(b"HTTP/1.1 200 OK\r\n") is None


class TestRange:
    def test_simple_range(self):
        assert parse_range("bytes=0-99", 1000) == (0, 99)

    def test_open_ended_range(self):
        assert parse_range("bytes=500-", 1000) == (500, 999)

    def test_suffix_range(self):
        assert parse_range("bytes=-100", 1000) == (900, 999)

    def test_suffix_larger_than_resource(self):
        assert parse_range("bytes=-5000", 1000) == (0, 999)

    def test_end_clamped_to_resource(self):
        assert parse_range("bytes=0-99999", 1000) == (0, 999)

    def test_start_beyond_resource_rejected(self):
        with pytest.raises(RangeError):
            parse_range("bytes=1000-1100", 1000)

    def test_inverted_rejected(self):
        with pytest.raises(RangeError):
            parse_range("bytes=50-10", 1000)

    def test_multi_range_rejected(self):
        with pytest.raises(RangeError):
            parse_range("bytes=0-1,5-9", 1000)

    def test_bad_unit_rejected(self):
        with pytest.raises(RangeError):
            parse_range("items=0-1", 1000)

    def test_content_range_round_trip(self):
        value = format_content_range(100, 199, 1000)
        assert value == "bytes 100-199/1000"
        assert parse_content_range(value) == (100, 199, 1000)

    def test_content_range_unknown_total(self):
        assert parse_content_range("bytes 0-1/*") == (0, 1, None)

    def test_content_range_validation(self):
        with pytest.raises(RangeError):
            format_content_range(0, 1000, 1000)
        with pytest.raises(RangeError):
            parse_content_range("bytes 5-2/10")

    @given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(1, 10_000))
    def test_parse_format_consistency(self, start, end, total):
        """Any formatted range that parses must stay within the resource."""
        if start > end:
            start, end = end, start
        try:
            got = parse_range(f"bytes={start}-{end}", total)
        except RangeError:
            assert start >= total
            return
        assert 0 <= got[0] <= got[1] < total
        assert got[0] == start


class TestContainerHeaders:
    def test_flv_round_trip(self):
        blob = build_flv_header(1_000_000, 212.0, frame_rate=30.0)
        assert len(blob) == CONTAINER_HEADER_LEN
        meta = parse_container_header(blob)
        assert meta.container == "flv"
        assert meta.encoding_rate_bps == 1_000_000
        assert meta.duration == 212.0
        assert meta.frame_rate == 30.0
        assert meta.has_valid_rate

    def test_webm_header_hides_rate(self):
        """The 2011 webM defect: no encoding rate recoverable from the header."""
        meta = parse_container_header(build_webm_header(180.0))
        assert meta.container == "webm"
        assert meta.encoding_rate_bps is None
        assert meta.frame_rate is None       # the invalid entry
        assert meta.duration == 180.0
        assert not meta.has_valid_rate

    def test_header_parses_with_trailing_body(self):
        blob = build_flv_header(500_000, 60.0) + b"\x00" * 100
        assert parse_container_header(blob).encoding_rate_bps == 500_000

    def test_short_header_rejected(self):
        with pytest.raises(CodecError):
            parse_container_header(b"FLV\x01tooshort")

    def test_unknown_magic_rejected(self):
        with pytest.raises(CodecError):
            parse_container_header(b"\x00" * CONTAINER_HEADER_LEN)

    def test_invalid_build_params(self):
        with pytest.raises(CodecError):
            build_flv_header(0, 60.0)
        with pytest.raises(CodecError):
            build_webm_header(-1.0)
