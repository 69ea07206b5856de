"""HTTP end-to-end tests: daemon + stdlib client over a real socket.

Each test boots a :class:`ReproService` on an ephemeral port inside a
background event-loop thread and talks to it with the same
:class:`ServiceClient` the CLI uses — the full wire path (hand-rolled
HTTP/1.1 parsing, routing, auth, SSE framing) is exercised, not mocked.
"""

import asyncio
import contextlib
import json
import os
import threading
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.doctor import doctor_report
from repro.service import (
    JobQueue,
    ReproService,
    ServiceClient,
    ServiceError,
)
from repro.sweep import ResultStore, execute_job
from tests.conftest import ThreadPool, small_tile

JOB_WIRE = {"kernel": "jacobi_2d", "variant": "base",
            "tile_shape": list(small_tile("jacobi_2d"))}


def fast_runner(job):
    """Runner for wire-semantics tests: instant, real result shape."""
    return execute_job_cached(job)


_CACHED_RESULT = {}


def execute_job_cached(job):
    # One real simulation per process; reused so HTTP tests stay fast.
    if "result" not in _CACHED_RESULT:
        from repro.sweep import SweepJob
        _CACHED_RESULT["result"] = execute_job(
            SweepJob.make("jacobi_2d", "base",
                          tile_shape=small_tile("jacobi_2d")))
    return _CACHED_RESULT["result"]


@contextlib.contextmanager
def running_server(runner=fast_runner, store=None, token=None, workers=2):
    """Boot a daemon in a background loop thread; yield (service, client).

    ``runner(job)`` runs each job on a thread-backed fake pool."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    async def boot():
        queue = JobQueue(store=store, workers=workers,
                         pool=ThreadPool(runner, workers))
        service = ReproService(queue, port=0, token=token)
        return await service.start()

    service = asyncio.run_coroutine_threadsafe(boot(), loop).result(30)
    client = ServiceClient(service.url, token=token)
    try:
        yield service, client
    finally:
        client.close()
        asyncio.run_coroutine_threadsafe(service.close(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


class TestHttpRoundtrip:
    def test_submit_watch_and_job_status(self):
        with running_server() as (service, client):
            assert client.healthz()["ok"] is True
            receipt = client.submit({"jobs": [JOB_WIRE]})
            assert receipt["sweep"].startswith("s0001-")
            assert len(receipt["jobs"]) == 1
            events = list(client.events(receipt["sweep"]))
            kinds = [event["event"] for event in events]
            assert kinds[0] == "submitted"
            assert kinds.index("running") < kinds.index("progress")
            assert kinds[-2:] == ["done", "sweep_done"]
            final = client.sweep(receipt["sweep"])
            assert final["state"] == "done"
            job = client.job(receipt["jobs"][0]["hash"])
            assert job["state"] == "done"
            assert job["metrics"]["correct"] is True
            assert "result" in job  # full payload on the job endpoint

    def test_resubmit_is_memo_cache_hit(self):
        with running_server() as (service, client):
            first = client.submit({"jobs": [JOB_WIRE]})
            client.wait(first["sweep"])
            again = client.submit({"jobs": [JOB_WIRE]})
            assert again["cache_hits"] == 1
            assert client.sweep(again["sweep"])["state"] == "done"

    def test_experiment_spec_expands_cross_product(self):
        with running_server() as (service, client):
            receipt = client.submit({"experiment": {
                "kernels": ["jacobi_2d"],
                "variants": ["base", "saris"],
                "tiles": [list(small_tile("jacobi_2d"))],
                "seeds": [0, 1],
            }})
            assert len(receipt["jobs"]) == 4  # 1 kernel x 2 variants x 2 seeds
            final = client.wait(receipt["sweep"])
            assert final["counts"]["done"] == 4

    def test_sse_resume_with_from_index(self):
        with running_server() as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            full = list(client.events(receipt["sweep"]))
            resumed = list(client.events(receipt["sweep"], from_index=2))
            assert [e["seq"] for e in resumed] == \
                [e["seq"] for e in full[2:]]

    def test_cancel_endpoint(self):
        release = threading.Event()

        def slow_runner(job):
            release.wait(timeout=30)
            return execute_job_cached(job)

        try:
            with running_server(runner=slow_runner, workers=1) as (
                    service, client):
                receipt = client.submit({"jobs": [
                    JOB_WIRE, dict(JOB_WIRE, seed=7)]})
                outcome = client.cancel(receipt["sweep"])
                assert len(outcome["cancelled_jobs"]) >= 1
                release.set()
                events = list(client.events(receipt["sweep"]))
                kinds = [event["event"] for event in events]
                assert "sweep_cancelled" in kinds
                assert kinds[-1] == "sweep_done"
                assert events[-1]["state"] == "cancelled"
        finally:
            release.set()


class TestErrors:
    def test_unknown_ids_are_404(self):
        with running_server() as (service, client):
            for call in (lambda: client.sweep("s9999-beef"),
                         lambda: client.job("beefbeefbeefbeef"),
                         lambda: client.cancel("s9999-beef"),
                         lambda: list(client.events("s9999-beef"))):
                with pytest.raises(ServiceError) as err:
                    call()
                assert err.value.status == 404

    def test_bad_payloads_are_400(self):
        with running_server() as (service, client):
            bad = [
                {},  # neither jobs nor experiment
                {"jobs": [], "experiment": {}},  # both / empty
                {"jobs": [{"kernel": "no_such_kernel"}]},
                {"jobs": [{"kernel": "jacobi_2d", "bogus_key": 1}]},
                {"experiment": {"kernels": ["jacobi_2d"],
                                "machines": ["no-such-machine"]}},
            ]
            for payload in bad:
                with pytest.raises(ServiceError) as err:
                    client.submit(payload)
                assert err.value.status == 400

    def test_invalid_json_body_is_400(self):
        with running_server() as (service, client):
            connection = HTTPConnection(client.host, client.port, timeout=10)
            try:
                connection.request("POST", "/v1/sweeps", body=b"{nope",
                                   headers={"Content-Type":
                                            "application/json"})
                response = connection.getresponse()
                assert response.status == 400
                assert b"JSON" in response.read()
            finally:
                connection.close()

    def test_unrouted_paths_are_404(self):
        with running_server() as (service, client):
            connection = HTTPConnection(client.host, client.port, timeout=10)
            try:
                connection.request("GET", "/v2/everything")
                assert connection.getresponse().status == 404
            finally:
                connection.close()


class TestAuth:
    def test_wrong_or_missing_key_is_401_healthz_exempt(self):
        with running_server(token="sekrit") as (service, client):
            anonymous = ServiceClient(service.url, token="")
            wrong = ServiceClient(service.url, token="not-it")
            try:
                assert anonymous.healthz()["ok"] is True  # exempt
                with pytest.raises(ServiceError) as err:
                    anonymous.stats()
                assert err.value.status == 401
                with pytest.raises(ServiceError) as err:
                    wrong.submit({"jobs": [JOB_WIRE]})
                assert err.value.status == 401
            finally:
                anonymous.close()
                wrong.close()

    def test_bearer_and_x_api_key_both_accepted(self):
        with running_server(token="sekrit") as (service, client):
            assert "queue" in client.stats()  # Bearer via ServiceClient
            connection = HTTPConnection(client.host, client.port, timeout=10)
            try:
                connection.request("GET", "/v1/stats",
                                   headers={"X-Api-Key": "sekrit"})
                assert connection.getresponse().status == 200
            finally:
                connection.close()


class TestStats:
    def test_stats_serves_doctor_report_schema(self, tmp_path):
        store = ResultStore(tmp_path)
        with running_server(store=store) as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            client.wait(receipt["sweep"])
            stats = client.stats()
            # Queue health + the exact `repro doctor --json` schema.
            assert stats["queue"]["executed"] == 1
            assert stats["store"]["entries"] == 1
            assert stats.keys() >= doctor_report(store=store).keys()
            assert stats["native"].keys() >= {"available"}

    def test_stats_without_a_store_report_none(self, tmp_path, monkeypatch):
        # `repro serve --no-cache`: the default store root is never opened.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        opened = []
        monkeypatch.setattr(ResultStore, "_sweep_stale_tmp_files",
                            lambda store: opened.append(store.root))
        with running_server(store=None) as (service, client):
            stats = client.stats()
        assert stats["store"] is None
        assert stats["native"].keys() >= {"available"}
        assert opened == []

    def test_stats_lists_the_store_once(self, tmp_path, monkeypatch):
        """``GET /v1/stats`` runs on the event loop, and both the queue's
        and the doctor's part describe the store: one directory listing
        must serve both."""
        store = ResultStore(tmp_path)
        version_dir = store.version_dir
        listings = []
        for name in ("listdir", "scandir"):
            def counting(path=".", _list=getattr(os, name)):
                if (isinstance(path, (str, os.PathLike))
                        and Path(path) == version_dir):
                    listings.append(path)
                return _list(path)

            monkeypatch.setattr(os, name, counting)
        with running_server(store=store) as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            client.wait(receipt["sweep"])
            listings.clear()
            stats = client.stats()
        assert stats["store"]["entries"] == 1
        assert len(listings) == 1

    def test_warm_store_restart_is_pure_cache_service(self, tmp_path):
        """Daemon restart against a warm store: resubmit costs zero sims."""
        store = ResultStore(tmp_path)
        with running_server(store=store) as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            client.wait(receipt["sweep"])

        def exploding_runner(job):
            raise AssertionError("warm restart must not simulate")

        with running_server(runner=exploding_runner,
                            store=ResultStore(tmp_path)) as (
                service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            assert receipt["cache_hits"] == 1
            final = client.wait(receipt["sweep"])
            assert final["state"] == "done"
            assert client.stats()["queue"]["executed"] == 0


class TestStreamReconnect:
    def test_stream_rides_out_a_socket_drop(self):
        """`stream()` (and thus `repro watch`) survives a daemon blip: the
        listener goes down, every open socket is reset, the listener comes
        back — the client reconnects with its ?from= cursor and the event
        sequence is gapless and duplicate-free."""
        started = threading.Event()
        release = threading.Event()

        def gated_runner(job):
            started.set()
            release.wait(timeout=30)
            return execute_job_cached(job)

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        writers = []
        state = {}

        async def tracked(reader, writer):
            writers.append(writer)
            await state["service"]._handle(reader, writer)

        async def rebind(service):
            service._server = await asyncio.start_server(
                tracked, service.host, service.port)

        async def boot():
            queue = JobQueue(workers=1, pool=ThreadPool(gated_runner))
            service = ReproService(queue, port=0)
            await service.start()
            state["service"] = service
            # Swap the listener for one that records connections so the
            # test can reset them like a real daemon restart would.
            service._server.close()
            await service._server.wait_closed()
            await rebind(service)
            return service

        async def blip():
            service = state["service"]
            service._server.close()
            await service._server.wait_closed()
            for writer in list(writers):
                writer.transport.abort()  # RST every open connection
            writers.clear()
            await rebind(service)

        service = asyncio.run_coroutine_threadsafe(boot(), loop).result(30)
        client = ServiceClient(service.url)
        try:
            receipt = client.submit({"jobs": [JOB_WIRE]})
            stream = client.stream(receipt["sweep"], timeout=10,
                                   backoff_seconds=0.05)
            seen = []
            for event in stream:
                seen.append(event)
                if event["event"] == "running":
                    break  # mid-stream, job still running
            started.wait(timeout=30)
            asyncio.run_coroutine_threadsafe(blip(), loop).result(10)
            release.set()
            for event in stream:  # same iterator: must reconnect
                seen.append(event)
            assert seen[-1]["event"] == "sweep_done"
            seqs = [event["seq"] for event in seen]
            assert seqs == sorted(set(seqs))  # increasing, no duplicates
            # Nothing lost or replayed: the stitched stream equals a full
            # replay of the sweep's event log.
            full = [event["seq"]
                    for event in client.events(receipt["sweep"])]
            assert seqs == full
        finally:
            client.close()
            release.set()
            asyncio.run_coroutine_threadsafe(
                state["service"].close(), loop).result(30)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()

    def test_stream_gives_up_when_the_daemon_stays_down(self):
        client = ServiceClient("http://127.0.0.1:9")  # nothing listens
        stream = client.stream("s0001-dead", max_retries=2,
                               backoff_seconds=0.01)
        with pytest.raises(ServiceError) as err:
            next(stream)
        assert err.value.status is None
        assert "2 reconnect attempts" in str(err.value)

    def test_stream_does_not_retry_http_errors(self):
        """A real HTTP answer (e.g. 404 after a daemon restart lost the
        sweep) must surface immediately — reconnecting cannot help."""
        with running_server() as (service, client):
            with pytest.raises(ServiceError) as err:
                next(client.stream("s9999-beef", backoff_seconds=0.01))
            assert err.value.status == 404
