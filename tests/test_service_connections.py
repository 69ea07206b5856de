"""Kept-alive HTTP connections between the daemon and its clients.

The daemon answers every request but an event stream on an HTTP/1.1
connection the client may reuse; :class:`ServiceClient` keeps one such
connection per thread and per process.  The daemon's own counters,
``repro_http_connections_total`` and ``repro_http_requests_total``, show
whether connections are reused.
"""

import asyncio
import gc
import logging
import os
import socket
import threading
import time

import pytest

from repro import obs
from repro.service import JobQueue, ReproService, ServiceClient, server
from tests.conftest import ThreadPool
from tests.test_execution_core import exit_seconds_after_sigint, serve, stop
from tests.test_service_server import JOB_WIRE, fast_runner, running_server

CONNECTIONS = "repro_http_connections_total"
REQUESTS = "repro_http_requests_total"


@pytest.fixture(autouse=True)
def telemetry_on():
    before = obs.enabled()
    obs.set_enabled(True)
    yield
    obs.set_enabled(before)


def counts():
    """The daemon's (this process's) connection and request counters."""
    return (obs.counter(CONNECTIONS).value, obs.counter(REQUESTS).value)


def raw_exchange(sock, request: bytes) -> bytes:
    """Send one request; return everything read until the answer's body is
    complete (by Content-Length) or the daemon closes the connection."""
    sock.sendall(request)
    data = b""
    while True:
        head, sep, body = data.partition(b"\r\n\r\n")
        if sep:
            length = next((int(line.split(b":")[1]) for line in
                           head.split(b"\r\n")
                           if line.lower().startswith(b"content-length:")),
                          None)
            if length is not None and len(body) >= length:
                return data
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


def closed_by_peer(sock, timeout=5.0) -> bool:
    """Whether the daemon ends the connection (EOF) within ``timeout``."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except socket.timeout:
        return False
    except ConnectionResetError:
        return True


HEALTHZ = b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n\r\n"


class TestClientReuse:
    def test_one_thread_reuses_one_connection(self):
        with running_server() as (service, client):
            conns, reqs = counts()
            for _ in range(10):
                assert client.healthz()["ok"] is True
            client.stats()
            assert "repro_http_requests_total" in client.metrics()
            assert counts() == (conns + 1, reqs + 12)

    def test_two_threads_use_two_connections(self):
        with running_server() as (service, client):
            conns, reqs = counts()
            errors = []

            def hammer():
                try:
                    for _ in range(5):
                        client.healthz()
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert counts() == (conns + 2, reqs + 10)

    def test_forked_child_opens_its_own_connection(self):
        with running_server() as (service, client):
            client.healthz()
            conns, _reqs = counts()
            pid = os.fork()
            if pid == 0:  # child: must not touch the parent's socket
                code = 1
                try:
                    if client.healthz()["ok"] is True:
                        code = 0
                finally:
                    os._exit(code)
            _pid, status = os.waitpid(pid, 0)
            assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
            assert client.healthz()["ok"] is True  # still the parent's own
            assert counts()[0] == conns + 1

    def test_idle_close_is_followed_by_a_transparent_reconnect(
            self, monkeypatch):
        monkeypatch.setattr(server, "KEEPALIVE_IDLE_SECONDS", 0.2)
        with running_server() as (service, client):
            conns, reqs = counts()
            assert client.healthz()["ok"] is True
            assert client.healthz()["ok"] is True
            time.sleep(0.6)  # the daemon closes the idle connection
            receipt = client.submit({"jobs": [JOB_WIRE]})
            assert client.wait(receipt["sweep"])["state"] == "done"
            assert counts()[0] >= conns + 2
            assert counts()[1] >= reqs + 4


class TestServerConnections:
    def test_keep_alive_serves_requests_one_after_another(self):
        with running_server() as (service, client):
            with socket.create_connection((client.host, client.port),
                                          timeout=5) as sock:
                for _ in range(3):
                    answer = raw_exchange(sock, HEALTHZ)
                    assert answer.startswith(b"HTTP/1.1 200 OK")
                    assert b"Connection: keep-alive" in answer
                assert not closed_by_peer(sock, timeout=0.2)

    @pytest.mark.parametrize("request_bytes,status", [
        (b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n", b"200"),
        (b"GET /v1/healthz HTTP/1.0\r\n\r\n", b"200"),
        (b"BOGUS\r\n\r\n", b"400"),
        (b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
         b"413"),
    ], ids=["connection-close", "http-1.0", "malformed", "too-large"])
    def test_connection_ends_after_the_answer(self, request_bytes, status):
        with running_server() as (service, client):
            with socket.create_connection((client.host, client.port),
                                          timeout=5) as sock:
                answer = raw_exchange(sock, request_bytes)
                assert answer.split(b" ")[1] == status
                assert b"Connection: close" in answer
                assert closed_by_peer(sock)

    def test_event_stream_ends_its_connection(self):
        with running_server() as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            client.wait(receipt["sweep"])
            with socket.create_connection((client.host, client.port),
                                          timeout=5) as sock:
                sock.sendall(f"GET /v1/sweeps/{receipt['sweep']}/events "
                             f"HTTP/1.1\r\n\r\n".encode())
                stream = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    stream += chunk
            assert stream.startswith(b"HTTP/1.1 200 OK")
            assert b"Connection: close" in stream
            assert stream.rstrip().splitlines()[-2] == b"event: sweep_done"

    def test_backlog_goes_out_in_one_write(self):
        """The response head and every event already logged leave in one
        send, not one per event."""
        with running_server() as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            client.wait(receipt["sweep"])
            expected = list(client.events(receipt["sweep"]))

            class Writer:
                def __init__(self):
                    self.writes = []

                def write(self, data):
                    self.writes.append(data)

                async def drain(self):
                    pass

            writer = Writer()
            asyncio.run_coroutine_threadsafe(
                service._stream_events(writer, receipt["sweep"], {}),
                service.queue._loop).result(10)
            assert len(writer.writes) == 1
            sent = writer.writes[0]
            assert sent.startswith(b"HTTP/1.1 200 OK")
            assert sent.count(b"\nevent: ") == len(expected) > 3


class TestShutdownWithIdleConnections:
    def test_close_ends_idle_connections_quietly(self, caplog):
        caplog.set_level(logging.WARNING, logger="asyncio")
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        async def boot():
            queue = JobQueue(workers=1, pool=ThreadPool(fast_runner))
            return await ReproService(queue, port=0).start()

        service = asyncio.run_coroutine_threadsafe(boot(), loop).result(30)
        clients = [ServiceClient(service.url) for _ in range(2)]
        for client in clients:
            client.healthz()  # one kept-alive connection each
        silent = socket.create_connection(("127.0.0.1", service.port))
        try:
            time.sleep(0.1)
            assert len(service._connections) == 3
            start = time.monotonic()
            asyncio.run_coroutine_threadsafe(service.close(),
                                             loop).result(30)
            # Idle connections end at once, not after the grace period.
            assert time.monotonic() - start < server.CLOSE_GRACE_SECONDS
            assert not service._connections
            assert closed_by_peer(silent)
        finally:
            silent.close()
            for client in clients:
                client.close()
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()
        gc.collect()
        assert not [r for r in caplog.records
                    if "destroyed" in r.getMessage()
                    or r.exc_info is not None]

    def test_cli_sigint_exit_with_idle_connections(self, tmp_path):
        proc, client = serve(tmp_path)
        try:
            other = ServiceClient(client.host + f":{client.port}")
            assert client.healthz()["ok"] and other.healthz()["ok"]
            silent = socket.create_connection((client.host, client.port))
            try:
                time.sleep(0.2)
                assert exit_seconds_after_sigint(proc) < 5.0
            finally:
                silent.close()
                other.close()
        finally:
            output = stop(proc)
        assert "Task was destroyed" not in output
        assert "Traceback" not in output, output


def test_counters_reach_metrics_and_stats():
    with running_server() as (service, client):
        client.healthz()
        stats = client.stats()["metrics"]
        assert stats[CONNECTIONS] >= 1 and stats[REQUESTS] >= 2
        lines = client.metrics().splitlines()
        assert "# TYPE repro_http_connections_total counter" in lines
        assert "# TYPE repro_http_requests_total counter" in lines
        assert any(line.startswith("repro_http_requests_total ")
                   for line in lines)
