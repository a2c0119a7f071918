"""Tests for the asyncio HTTP servers — real sockets, near-zero latencies."""

import asyncio
import random

import pytest

from repro.errors import MeshError
from repro.live import httpwire
from repro.live.clock import FakeClock
from repro.live.exposition import parse_exposition
from repro.live.proxy import HttpTransport
from repro.live.scrape import fetch_metrics
from repro.live.server import MetricsServer, ReplicaServer, start_http_server
from repro.telemetry import names
from repro.workloads.profiles import BackendProfile, constant_series

PORT_BASE = 19480  # away from the harness tests' ranges


def fast_profile(median_s=0.0005, failure_prob=0.0):
    return BackendProfile(
        median_latency_s=constant_series(median_s),
        p99_latency_s=constant_series(median_s * 2),
        failure_prob=constant_series(failure_prob),
        failure_latency_s=0.0005)


def replica_server(port=PORT_BASE, **kwargs):
    return ReplicaServer("api/cluster-1", fast_profile(**kwargs),
                         random.Random(1), FakeClock())


class TestReplicaServer:
    def test_work_and_metrics_round_trip(self):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE)
            transport = HttpTransport()
            try:
                assert await transport("127.0.0.1", port)
                page = await fetch_metrics("127.0.0.1", port)
            finally:
                await transport.aclose()
                await server.stop()
            assert server.requests_served == 1
            parsed = parse_exposition(page)
            series = names.server_series_name("api/cluster-1")
            assert parsed[series][names.SERVER_QUEUE] == 0.0

        asyncio.run(scenario())

    def test_failure_schedule_produces_500(self):
        async def scenario():
            server = ReplicaServer("api/cluster-1",
                                   fast_profile(failure_prob=1.0),
                                   random.Random(1), FakeClock())
            port = await server.start(PORT_BASE)
            transport = HttpTransport()
            try:
                assert not await transport("127.0.0.1", port)
            finally:
                await transport.aclose()
                await server.stop()
            assert server.failures_served == 1

        asyncio.run(scenario())

    def test_unknown_path_is_404_not_a_failure(self):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE)
            transport = HttpTransport(path="/nope")
            try:
                assert not await transport("127.0.0.1", port)
            finally:
                await transport.aclose()
                await server.stop()
            assert server.requests_served == 0
            assert server.failures_served == 0

        asyncio.run(scenario())

    def test_stop_releases_the_port_and_handlers(self):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE)
            transport = HttpTransport()
            await transport("127.0.0.1", port)
            await server.stop()
            await transport.aclose()
            assert not server._handlers
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)
            # The port is genuinely free again: a new server can bind it.
            reborn = replica_server()
            assert await reborn.start(port) == port
            await reborn.stop()

        asyncio.run(scenario())

    def test_capacity_validation(self):
        with pytest.raises(MeshError):
            ReplicaServer("b", fast_profile(), random.Random(1),
                          FakeClock(), capacity=0)

    def test_double_start_rejected(self):
        async def scenario():
            server = replica_server()
            await server.start(PORT_BASE)
            try:
                with pytest.raises(MeshError):
                    await server.start(PORT_BASE)
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestPortCollision:
    def test_second_server_walks_to_next_port(self):
        async def scenario():
            first = replica_server()
            second = replica_server()
            port1 = await first.start(PORT_BASE + 40)
            try:
                port2 = await second.start(port1)
                assert port2 > port1
                await second.stop()
            finally:
                await first.stop()

        asyncio.run(scenario())

    def test_exhausted_range_raises(self):
        async def scenario():
            listener, port = await start_http_server(
                lambda r, w: None, "127.0.0.1", PORT_BASE + 60)
            try:
                with pytest.raises(MeshError):
                    await start_http_server(
                        lambda r, w: None, "127.0.0.1", port, max_tries=1)
            finally:
                listener.close()
                await listener.wait_closed()

        asyncio.run(scenario())


class TestMetricsServer:
    def test_serves_render_output(self):
        async def scenario():
            server = MetricsServer(lambda: 'inflight{series="a"} 2\n')
            port = await server.start(PORT_BASE + 80)
            try:
                page = await fetch_metrics("127.0.0.1", port)
            finally:
                await server.stop()
            assert parse_exposition(page) == {
                "a": {names.INFLIGHT: 2.0}}

        asyncio.run(scenario())


async def raw_exchange(port, request):
    """Send raw request bytes; returns (response headers, body, at EOF)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(request)
        await writer.drain()
        _first, headers = await httpwire.read_head(reader)
        body = await reader.readexactly(httpwire.content_length(headers))
        closed = await asyncio.wait_for(reader.read(), 2.0) == b""
        return headers, body, closed
    finally:
        await httpwire.close_writer(writer)


class TestFraming:
    """On a reused connection a misframed message poisons every later one."""

    @pytest.mark.parametrize("headers, length", [
        ([], 0),
        (["Content-Length: 12"], 12),
        (["content-length:0"], 0),
        (["Content-Length: 3", "Content-Length: 3"], 3),
    ])
    def test_content_length_accepts_one_decimal_value(self, headers,
                                                       length):
        assert httpwire.content_length(headers) == length

    @pytest.mark.parametrize("headers", [
        ["Content-Length: -1"],
        ["Content-Length: abc"],
        ["Content-Length: +5"],
        ["Content-Length: 1_0"],
        ["Content-Length: 3, 3"],
        ["Content-Length: 3", "Content-Length: 4"],
    ])
    def test_content_length_rejects_what_would_misframe(self, headers):
        with pytest.raises(MeshError):
            httpwire.content_length(headers)

    @pytest.mark.parametrize("headers, keep", [
        ([], True),
        (["Connection: keep-alive"], True),
        (["Connection: close"], False),
        (["connection: Keep-Alive, CLOSE"], False),
        (["Connection: upgrade", "Connection: close"], False),
    ])
    def test_keep_alive_reads_the_connection_header(self, headers, keep):
        assert httpwire.keep_alive(headers) is keep

    def test_messages_announce_their_connection(self):
        assert b"Connection: keep-alive\r\n" in httpwire.request_bytes(
            "GET", "/work", "h")
        assert b"Connection: close\r\n" in httpwire.request_bytes(
            "GET", "/work", "h", keep=False)
        assert b"Connection: keep-alive\r\n" in httpwire.response_bytes(
            200, b"ok")
        assert b"Connection: close\r\n" in httpwire.response_bytes(
            200, b"ok", keep=False)

    def test_keep_alive_request_keeps_its_connection(self):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE + 100)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                for _ in range(2):
                    writer.write(httpwire.request_bytes("GET", "/work", "h"))
                    first, headers = await httpwire.read_head(reader)
                    assert httpwire.parse_status_line(first) == 200
                    assert httpwire.keep_alive(headers)
                    await reader.readexactly(
                        httpwire.content_length(headers))
                await httpwire.close_writer(writer)
            finally:
                await server.stop()
            assert server.requests_served == 2

        asyncio.run(scenario())

    @pytest.mark.parametrize("extra", [
        b"Content-Length: 5\r\n\r\nhello",
        b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        b"Transfer-Encoding: identity\r\n\r\n",
    ])
    def test_request_with_a_body_is_answered_with_close(self, extra):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE + 100)
            try:
                request = (b"GET /work HTTP/1.1\r\nHost: h\r\n"
                           b"Connection: keep-alive\r\n" + extra)
                headers, body, closed = await raw_exchange(port, request)
            finally:
                await server.stop()
            assert not httpwire.keep_alive(headers)
            assert body == b"ok\n"
            # The unread body never became a second request.
            assert closed
            assert server.requests_served == 1

        asyncio.run(scenario())

    @pytest.mark.parametrize("length", [
        b"-1", b"x", b"3\r\nContent-Length: 4"])
    def test_misframed_request_is_dropped_unanswered(self, length):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE + 100)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(b"GET /work HTTP/1.1\r\nHost: h\r\n"
                             b"Content-Length: " + length + b"\r\n\r\n")
                assert await asyncio.wait_for(reader.read(), 2.0) == b""
                await httpwire.close_writer(writer)
            finally:
                await server.stop()
            assert server.requests_served == 0

        asyncio.run(scenario())
