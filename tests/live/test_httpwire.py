"""Connection reuse on the live data path — real sockets on loopback.

Connections are counted where the server accepts them, so the counts
are exact and repeatable: a pooling regression shows up as a number,
not as a slower run.
"""

import asyncio
import random
import time

import pytest

from repro.live import httpwire
from repro.live.clock import FakeClock, WallClock
from repro.live.harness import LiveHarness
from repro.live.proxy import HttpTransport, LiveProxy
from repro.live.scrape import fetch_metrics
from repro.live.server import ReplicaServer

from tests.live.test_harness import degraded_scenario, fast_config
from tests.live.test_server import fast_profile

PORT_BASE = 19660  # away from the other live tests' ranges
HOST = "127.0.0.1"
BACKEND = "api/cluster-1"


class CountingReplica(ReplicaServer):
    """A replica server that counts the connections it accepts."""

    def __init__(self, **profile):
        super().__init__(BACKEND, fast_profile(**profile),
                         random.Random(1), FakeClock())
        self.accepted = 0

    async def _handle_connection(self, reader, writer):
        self.accepted += 1
        await super()._handle_connection(reader, writer)


def serve(scenario, **profile):
    """Run ``scenario(server, transport, port)`` against one replica."""
    async def main():
        server = CountingReplica(**profile)
        port = await server.start(PORT_BASE)
        transport = HttpTransport()
        try:
            await scenario(server, transport, port)
        finally:
            await transport.aclose()
            await server.stop()

    asyncio.run(main())


def pooled(transport, port):
    return transport._idle.get((HOST, port), [])


class OnePicker:
    def pick(self, rng, now):
        return BACKEND


class TestConnectionCounts:
    def test_sequential_calls_share_one_connection(self):
        async def scenario(server, transport, port):
            for _ in range(25):
                assert await transport(HOST, port)
            assert server.accepted == 1
            assert server.requests_served == 25
            assert len(pooled(transport, port)) == 1

        serve(scenario)

    def test_k_concurrent_calls_open_at_most_k(self):
        k = 6

        async def scenario(server, transport, port):
            for _ in range(3):
                results = await asyncio.gather(
                    *(transport(HOST, port) for _ in range(k)))
                assert all(results)
                assert server.accepted <= k
            opened = server.accepted
            for _ in range(10):
                assert await transport(HOST, port)
            assert server.accepted == opened

        serve(scenario, median_s=0.005)

    def test_error_responses_keep_the_connection(self):
        async def not_found(server, transport, port):
            transport.path = "/nope"
            for _ in range(5):
                assert not await transport(HOST, port)
            assert server.accepted == 1

        async def failing(server, transport, port):
            for _ in range(5):
                assert not await transport(HOST, port)
            assert server.failures_served == 5
            assert server.accepted == 1

        serve(not_found)
        serve(failing, failure_prob=1.0)

    def test_fetch_metrics_asks_for_and_gets_a_closed_connection(self):
        async def scenario(server, transport, port):
            for _ in range(3):
                await fetch_metrics(HOST, port)
            assert server.accepted == 3
            reader, writer = await asyncio.open_connection(HOST, port)
            writer.write(httpwire.request_bytes("GET", "/metrics", "h",
                                                keep=False))
            _first, headers = await httpwire.read_head(reader)
            assert not httpwire.keep_alive(headers)
            await reader.readexactly(httpwire.content_length(headers))
            assert await asyncio.wait_for(reader.read(), 2.0) == b""
            await httpwire.close_writer(writer)

        serve(scenario)


async def raw_server(handler):
    listener = await asyncio.start_server(handler, HOST, 0)
    return listener, listener.sockets[0].getsockname()[1]


class TestFailureSemantics:
    def test_expired_deadline_closes_the_connection_unpooled(self):
        async def scenario(server, transport, port):
            assert await transport(HOST, port)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(transport(HOST, port), 0.01)
            assert pooled(transport, port) == []
            assert await transport(HOST, port)
            assert server.accepted == 2

        serve(scenario, median_s=0.05)

    def test_fail_fast_crash_severs_pooled_connections(self):
        async def scenario(server, transport, port):
            assert await transport(HOST, port)
            ((reader, _writer),) = pooled(transport, port)
            await server.crash("fail_fast")
            await asyncio.sleep(0.05)
            assert reader.at_eof()
            with pytest.raises(OSError):
                await transport(HOST, port)
            assert pooled(transport, port) == []
            assert server.accepted == 1

        serve(scenario)

    def test_restart_after_fail_fast_succeeds_first_time(self):
        async def scenario(server, transport, port):
            assert await transport(HOST, port)
            await server.crash("fail_fast")
            await server.restart()
            assert await transport(HOST, port)
            assert server.accepted == 2

        serve(scenario)

    def test_stale_reused_connection_is_retried_once_fresh(self):
        # The first connection answers once, then closes on the next
        # request without a byte: the client cannot see that coming.
        accepted = []

        async def handler(reader, writer):
            accepted.append(writer)
            served = 0
            try:
                while True:
                    await httpwire.read_head(reader)
                    if len(accepted) == 1 and served == 1:
                        return
                    writer.write(httpwire.response_bytes(200, b"ok\n"))
                    await writer.drain()
                    served += 1
            except asyncio.IncompleteReadError:
                pass
            finally:
                await httpwire.close_writer(writer)

        async def main():
            listener, port = await raw_server(handler)
            transport = HttpTransport()
            try:
                assert await transport(HOST, port)
                assert await transport(HOST, port)
                assert len(accepted) == 2
                assert len(pooled(transport, port)) == 1
            finally:
                await transport.aclose()
                listener.close()
                await listener.wait_closed()

        asyncio.run(main())

    def test_failure_after_response_bytes_is_not_retried(self):
        accepted = []

        async def handler(reader, writer):
            accepted.append(writer)
            await httpwire.read_head(reader)
            writer.write(httpwire.response_bytes(200, b"ok\n"))
            await httpwire.read_head(reader)
            writer.write(b"HTTP/1.1 200")
            await httpwire.close_writer(writer)

        async def main():
            listener, port = await raw_server(handler)
            transport = HttpTransport()
            try:
                assert await transport(HOST, port)
                with pytest.raises(asyncio.IncompleteReadError):
                    await transport(HOST, port)
                assert len(accepted) == 1
                assert pooled(transport, port) == []
            finally:
                await transport.aclose()
                listener.close()
                await listener.wait_closed()

        asyncio.run(main())

    def test_blackhole_stalls_a_pooled_request_until_the_deadline(self):
        timeout_s = 0.2

        async def scenario(server, transport, port):
            proxy = LiveProxy("cluster-1", "api", {BACKEND: (HOST, port)},
                              OnePicker(), random.Random(1), WallClock(),
                              request_timeout_s=timeout_s,
                              transport=transport)
            assert (await proxy.dispatch()).success
            await server.crash("blackhole")
            record = await proxy.dispatch()
            assert not record.success
            assert proxy.timeouts == 1
            assert record.latency_s >= timeout_s * 0.95
            # The stalled request rode the pooled connection.
            assert server.accepted == 1
            assert pooled(transport, port) == []

        serve(scenario)

    def test_stop_with_idle_clients_is_prompt_and_cancels_nothing(self):
        async def scenario(server, transport, port):
            await asyncio.gather(*(transport(HOST, port) for _ in range(4)))
            assert pooled(transport, port)
            handlers = set(server._handlers)
            assert handlers
            start = time.monotonic()
            await server.stop(drain_s=2.0)
            assert time.monotonic() - start < 0.5
            assert all(t.done() and not t.cancelled() for t in handlers)

        serve(scenario, median_s=0.005)

    def test_proxy_aclose_is_a_no_op_for_injected_transports(self):
        async def transport(host, port):
            return True

        proxy = LiveProxy("cluster-1", "api", {BACKEND: (HOST, 1)},
                          OnePicker(), random.Random(1), FakeClock(),
                          transport=transport)
        asyncio.run(proxy.aclose())


class TestHarnessPool:
    def test_run_reuses_connections_and_shuts_down_clean(self):
        harness = LiveHarness(
            degraded_scenario(base_s=0.005),
            fast_config("round-robin", PORT_BASE + 20, duration_s=1.5))
        result = harness.run()
        assert harness.clean_shutdown, harness.leaked_tasks
        assert result.success_rate == 1.0
        assert harness.parts.proxy.transport._idle == {}
