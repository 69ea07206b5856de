"""Distributed sweep fabric: lease protocol, expiry, workers, end-to-end.

Protocol tests drive ``POST /v1/fabric/lease`` / ``heartbeat`` /
``complete`` by hand against a short-TTL coordinator so every lease-table
transition (grant, renewal, expiry, uncharged requeue, the bounded
``lease_expired`` failure, stale adoption) is pinned down
deterministically.  Worker tests run the real :class:`FabricWorker` pull
loop in-process on a thread-backed fake pool, or on the real supervised
pool where crashes and timeouts are the point.
The end-to-end test launches two genuine ``repro worker`` subprocesses and
kills one mid-sweep via ``worker_kill`` fault injection, then checks the
merged result is bit-identical to a serial in-process run.
"""

import asyncio
import contextlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runner import KernelRunResult
from repro.service import (
    FabricCoordinator,
    FabricError,
    FabricWorker,
    JobQueue,
    ReproService,
    ServiceClient,
    ServiceError,
    job_from_wire,
)
from repro.sweep import ResultStore, execute_job
from repro.sweep import faults
from repro.sweep.store import encode_result
from repro.sweep.supervisor import RetryPolicy
from tests.conftest import ThreadPool
from tests.test_service_server import JOB_WIRE, execute_job_cached

REPO_ROOT = Path(__file__).resolve().parents[1]

JOB_WIRE_B = dict(JOB_WIRE, seed=7)


def ok_payload(job_hash, result=None):
    """A worker's success upload for ``job_hash`` (canned real result),
    which carries the result as its store text."""
    result = result if result is not None else execute_job_cached(None)
    return {"ok": True, "hash": job_hash, "result": encode_result(result),
            "attempts": 1, "degraded": False}


def wait_until(predicate, timeout=15.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out after {timeout}s waiting for {message}")


@contextlib.contextmanager
def running_fabric(store=None, ttl=5.0, retry=None, token=None):
    """Boot a fabric-mode daemon (queue + coordinator + HTTP) in a
    background loop thread; yield ``(service, client)``."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    async def boot():
        queue = JobQueue(store=store, retry=retry, dispatch="fabric")
        fabric = FabricCoordinator(queue, ttl=ttl)
        service = ReproService(queue, port=0, token=token, fabric=fabric)
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


class TestFabricProtocol:
    def test_lease_heartbeat_complete_roundtrip(self):
        result = execute_job_cached(None)  # warm before leasing
        with running_fabric() as (service, client):
            assert client.stats()["queue"]["dispatch"] == "fabric"
            receipt = client.submit({"jobs": [JOB_WIRE]})
            # No local worker lanes: the job waits for a lease.
            time.sleep(0.2)
            assert client.sweep(receipt["sweep"])["counts"]["queued"] == 1
            grants = client.lease("w1", capacity=3)["grants"]
            assert len(grants) == 1  # only one job exists
            grant = grants[0]
            assert grant["attempt"] == 1
            # The wire job decodes to the exact content hash that was
            # submitted: location-independent identity.
            job = job_from_wire(grant["job"])
            assert job.content_hash() == grant["hash"]
            assert grant["hash"] == receipt["jobs"][0]["hash"]
            beat = client.heartbeat(grant["lease"])
            assert beat["ok"] is True and beat["ttl"] == pytest.approx(5.0)
            done = client.complete(grant["lease"],
                                   ok_payload(grant["hash"], result))
            assert done["ok"] is True and done["stale"] is False
            final = client.sweep(receipt["sweep"])
            assert final["state"] == "done"
            assert final["counts"]["done"] == 1
            payload = client.job(grant["hash"])
            assert payload["state"] == "done"
            assert payload["metrics"]["correct"] is True
            served = KernelRunResult.from_json_dict(payload["result"])
            assert served.metrics_hash() == result.metrics_hash()
            entry = service.queue._jobs[grant["hash"]]
            assert not any(isinstance(value, KernelRunResult)
                           for value in vars(entry).values())
            stats = client.stats()["fabric"]
            assert stats["granted"] == 1 and stats["completed"] == 1
            assert stats["workers"]["total"] == 1
            assert stats["leases_in_flight"] == 0
            # The completed lease is gone: renewing it answers 410.
            with pytest.raises(ServiceError) as err:
                client.heartbeat(grant["lease"])
            assert err.value.status == 410

    def test_the_coordinator_never_encodes_an_uploaded_result(
            self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        result = execute_job_cached(None)
        encoded = []
        to_json_dict = KernelRunResult.to_json_dict

        def counted(self):
            encoded.append(self)
            return to_json_dict(self)
        with running_fabric(store=store) as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            grant = client.lease("w1")["grants"][0]
            payload = ok_payload(grant["hash"], result)
            monkeypatch.setattr(KernelRunResult, "to_json_dict", counted)
            client.complete(grant["lease"], payload)
            monkeypatch.undo()
            assert client.sweep(receipt["sweep"])["state"] == "done"
            served = client.job(grant["hash"])["result"]
            kept = service.queue._jobs[grant["hash"]].result
        assert encoded == []
        assert kept == payload["result"]
        assert served == json.loads(payload["result"])
        # The entry holds the uploaded text byte for byte, inside the
        # compact, key-sorted encoding of the whole entry.
        job = job_from_wire(JOB_WIRE)
        expected = json.JSONEncoder(
            sort_keys=True, separators=(",", ":")).encode({
                "engine_version": store.engine_version,
                "job": job.spec(),
                "result": result.to_json_dict(),
            }) + "\n"
        entry = store.path_for(job).read_bytes()
        assert entry == expected.encode()
        assert f',"result":{payload["result"]}}}\n'.encode() in entry

    def test_fabric_routes_404_without_fabric_mode(self):
        from tests.test_service_server import running_server

        with running_server() as (service, client):
            for call in (lambda: client.lease("w1"),
                         lambda: client.fabric(),
                         lambda: client.heartbeat("l0001-beef")):
                with pytest.raises(ServiceError) as err:
                    call()
                assert err.value.status == 404
                assert "--fabric" in str(err.value)

    def test_bad_lease_and_completion_payloads_are_400(self):
        with running_fabric() as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/v1/fabric/lease",
                                payload={"capacity": 1})
            assert err.value.status == 400
            grant = client.lease("w1")["grants"][0]
            with pytest.raises(ServiceError) as err:
                client.complete(grant["lease"],
                                {"ok": True, "hash": grant["hash"],
                                 "result": {"junk": 1}})
            assert err.value.status == 400
            assert receipt["jobs"][0]["hash"] == grant["hash"]

    @pytest.mark.parametrize("upload", ["dict", "not_json", "unknown_key"])
    def test_a_malformed_result_is_400_and_the_job_keeps_running(
            self, tmp_path, upload):
        result = execute_job_cached(None)
        bad = {"dict": result.to_json_dict(),
               "not_json": encode_result(result)[:-1],
               "unknown_key": json.dumps(dict(result.to_json_dict(),
                                              cluster=None))}[upload]
        store = ResultStore(tmp_path)
        with running_fabric(store=store) as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            grant = client.lease("w1")["grants"][0]
            with pytest.raises(ServiceError) as err:
                client.complete(grant["lease"],
                                dict(ok_payload(grant["hash"], result),
                                     result=bad))
            assert err.value.status == 400
            assert client.job(grant["hash"])["state"] == "running"
            assert client.heartbeat(grant["lease"])["ok"] is True
            assert len(store) == 0
            # The same lease still completes with a well-formed upload.
            client.complete(grant["lease"], ok_payload(grant["hash"], result))
            assert client.sweep(receipt["sweep"])["state"] == "done"

    def test_every_key_to_json_dict_writes_is_accepted(self):
        from tests.test_sweep import pinned_result

        result = pinned_result()  # activity, phase_seconds, program_info
        fabric = FabricCoordinator(JobQueue(dispatch="fabric"))
        parsed = fabric._parse_result({"result": encode_result(result)})
        assert parsed == result

    def test_coordinator_requires_fabric_queue(self):
        with pytest.raises(FabricError):
            FabricCoordinator(JobQueue())  # dispatch="local"

    def test_coordinator_takes_max_attempts_from_the_queue(self,
                                                           monkeypatch):
        # `serve --fabric --retries 5` builds the queue's policy; the
        # environment must not override it.
        monkeypatch.delenv("REPRO_SWEEP_RETRIES", raising=False)
        queue = JobQueue(retry=RetryPolicy(max_attempts=5),
                         dispatch="fabric")
        fabric = FabricCoordinator(queue)
        assert fabric.max_attempts == 5
        assert fabric.stats()["max_attempts"] == 5


class TestLeaseExpiry:
    def test_expiry_requeues_uncharged(self):
        result = execute_job_cached(None)
        with running_fabric(ttl=0.4) as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            grant = client.lease("doomed")["grants"][0]
            wait_until(lambda: client.fabric()["requeues"] == 1,
                       message="lease reaped and job requeued")
            assert client.fabric()["expired_leases"] == 1
            assert client.stats()["queue"]["pending"] == 1
            # The dead worker's lease is gone.
            with pytest.raises(ServiceError) as err:
                client.heartbeat(grant["lease"])
            assert err.value.status == 410
            # Any worker gets the job back; the grant counts the lease
            # round, the job itself is not charged.
            regrant = client.lease("rescuer")["grants"][0]
            assert regrant["hash"] == grant["hash"]
            assert regrant["attempt"] == 2
            client.complete(regrant["lease"],
                            ok_payload(regrant["hash"], result))
            final = client.sweep(receipt["sweep"])
            assert final["state"] == "done"
            assert client.job(grant["hash"])["attempts"] == 1
            events = list(client.events(receipt["sweep"]))
            kinds = [event["event"] for event in events]
            assert "requeued" in kinds
            requeued = events[kinds.index("requeued")]
            assert requeued["reason"] == "lease_expired"
            assert requeued["worker"] == "doomed"
            assert requeued["attempt"] == 1

    def test_node_death_expires_all_its_leases_together(self):
        result = execute_job_cached(None)
        with running_fabric(ttl=0.4) as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE, JOB_WIRE_B]})
            grants = client.lease("doomed", capacity=2)["grants"]
            assert len(grants) == 2
            wait_until(lambda: client.fabric()["requeues"] == 2,
                       message="both leases of the dead node reaped")
            # Node death says nothing about the jobs: both go out again
            # together, to one worker, neither charged.
            regrants = client.lease("w1", capacity=2)["grants"]
            assert sorted(g["hash"] for g in regrants) == \
                sorted(g["hash"] for g in grants)
            assert all(g["attempt"] == 2 for g in regrants)
            for grant in regrants:
                client.complete(grant["lease"],
                                ok_payload(grant["hash"], result))
            assert client.sweep(receipt["sweep"])["state"] == "done"

    def test_repeated_expiry_fails_after_max_attempts_plus_one(self):
        retry = RetryPolicy(max_attempts=2)
        with running_fabric(ttl=0.3, retry=retry) as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            job_hash = receipt["jobs"][0]["hash"]
            # Every expiry requeues uncharged until the job's leases have
            # expired max_attempts + 1 = 3 times.
            for round_no in (1, 2, 3):
                grants = client.lease(f"crashy-{round_no}")["grants"]
                assert len(grants) == 1
                assert grants[0]["attempt"] == round_no
                wait_until(
                    lambda: client.fabric()["leases_in_flight"] == 0,
                    message=f"round {round_no} lease reaped")
            wait_until(
                lambda: client.sweep(receipt["sweep"])["state"] == "failed",
                message="sweep marked failed after repeated expiries")
            job = client.job(job_hash)
            assert job["state"] == "failed"
            assert job["error"]["kind"] == "lease_expired"
            assert job["error"]["attempts"] == 3
            # Terminally failed: nothing left to grant.
            assert client.lease("fresh-worker")["grants"] == []
            stats = client.fabric()
            assert stats["expired_leases"] == 3
            assert stats["requeues"] == 2  # the terminal expiry fails instead

    def test_stale_completion_is_published_and_adopted(self, tmp_path):
        store = ResultStore(tmp_path)
        result = execute_job_cached(None)
        with running_fabric(store=store, ttl=0.3) as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            grant = client.lease("slowpoke")["grants"][0]
            wait_until(lambda: client.fabric()["requeues"] == 1,
                       message="lease reaped before upload")
            # The late upload still lands: published + adopted, not re-run.
            receipt2 = client.complete(grant["lease"],
                                       ok_payload(grant["hash"], result))
            assert receipt2["stale"] is True
            final = client.sweep(receipt["sweep"])
            assert final["state"] == "done"
            stats = client.fabric()
            assert stats["stale_completions"] == 1
            assert stats["adopted_results"] == 1
            # Published to the coordinator's store (restart = cache hit).
            assert store.load(job_from_wire(JOB_WIRE)) is not None
            # The adopted job is skipped in the queue: nobody else gets it.
            assert client.lease("w2")["grants"] == []
            assert client.stats()["queue"]["executed"] == 1


class TestFabricWorker:
    def test_worker_drains_sweep_end_to_end(self):
        with running_fabric() as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE, JOB_WIRE_B]})
            worker = FabricWorker(service.url, worker_id="w1", capacity=2,
                                  poll_seconds=0.05,
                                  pool=ThreadPool(execute_job_cached, 2))
            worker.run(exit_on_idle=10)
            final = client.sweep(receipt["sweep"])
            assert final["state"] == "done"
            assert final["counts"]["done"] == 2
            assert worker.executed == 2 and worker.uploaded == 2
            events = list(client.events(receipt["sweep"]))
            running = [e for e in events if e["event"] == "running"]
            assert {e["worker"] for e in running} == {"w1"}
            stats = client.stats()["fabric"]
            assert stats["granted"] == 2 and stats["completed"] == 2
            assert stats["workers"]["detail"][0]["completed"] == 2
            assert client.stats()["queue"]["executed"] == 2

    def test_worker_failure_upload_is_final(self):
        def exploding(job):
            raise ValueError("tile does not fit")

        with running_fabric() as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            worker = FabricWorker(service.url, worker_id="w1",
                                  poll_seconds=0.05,
                                  pool=ThreadPool(exploding))
            worker.run(exit_on_idle=10)
            final = client.sweep(receipt["sweep"])
            assert final["state"] == "failed"
            job = client.job(receipt["jobs"][0]["hash"])
            assert job["error"]["error_type"] == "ValueError"
            assert job["error"]["worker"] == "w1"
            stats = client.stats()["fabric"]
            assert stats["remote_failures"] == 1
            # An in-band failure is final: no requeue, no second grant.
            assert stats["requeues"] == 0 and stats["granted"] == 1

    def test_worker_local_store_is_a_cache_tier(self, tmp_path):
        local = ResultStore(tmp_path)
        local.save(job_from_wire(JOB_WIRE), execute_job_cached(None))

        def exploding(job):
            raise AssertionError("a local store hit must not simulate")

        with running_fabric() as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            worker = FabricWorker(service.url, worker_id="w1", store=local,
                                  poll_seconds=0.05,
                                  pool=ThreadPool(exploding))
            worker.run(exit_on_idle=10)
            assert worker.local_hits == 1 and worker.executed == 0
            assert client.sweep(receipt["sweep"])["state"] == "done"

    def test_a_shared_store_root_is_written_once_per_job(self, tmp_path,
                                                          monkeypatch):
        """A worker on the coordinator's store root (one box, one
        directory) publishes each entry; the coordinator's save finds the
        same bytes there and writes nothing."""
        execute_job_cached(None)  # simulate before counting
        coordinator_store = ResultStore(tmp_path)
        published = []
        replace = os.replace

        def counted(src, dst):
            if Path(dst).parent == coordinator_store.version_dir:
                published.append(Path(dst).name)
            return replace(src, dst)
        monkeypatch.setattr(os, "replace", counted)
        with running_fabric(store=coordinator_store) as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE, JOB_WIRE_B]})
            worker = FabricWorker(service.url, worker_id="w1", capacity=2,
                                  store=ResultStore(tmp_path),
                                  poll_seconds=0.05,
                                  pool=ThreadPool(execute_job_cached, 2))
            worker.run(exit_on_idle=10)
            assert client.sweep(receipt["sweep"])["state"] == "done"
            metrics = client.metrics()
        assert worker.executed == 2
        assert sorted(published) == sorted(
            coordinator_store.path_for(job_from_wire(wire)).name
            for wire in (JOB_WIRE, JOB_WIRE_B))
        assert coordinator_store.unchanged == 2
        assert "repro_store_unchanged_total" in metrics

    def test_net_drop_faults_are_retried_through(self, monkeypatch,
                                                 tmp_path):
        state = tmp_path / "fault-state"
        state.mkdir()
        monkeypatch.setenv(faults.FAULT_ENV_VAR, "mode=net_drop:n=2")
        monkeypatch.setenv(faults.STATE_ENV_VAR, str(state))
        with running_fabric() as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            worker = FabricWorker(service.url, worker_id="w1",
                                  poll_seconds=0.05,
                                  pool=ThreadPool(execute_job_cached))
            worker.run(exit_on_idle=10)
            assert worker.net_drops == 2
            assert client.sweep(receipt["sweep"])["state"] == "done"
            # Cross-process tokens burned on disk, one file per firing.
            assert len(list(state.iterdir())) == 2

    def test_lease_stall_expires_then_lands_stale_and_adopted(
            self, monkeypatch, tmp_path):
        state = tmp_path / "fault-state"
        state.mkdir()
        monkeypatch.setenv(faults.FAULT_ENV_VAR,
                           "mode=lease_stall:n=1:hang_seconds=30")
        monkeypatch.setenv(faults.STATE_ENV_VAR, str(state))
        with running_fabric(ttl=0.3) as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            worker = FabricWorker(service.url, worker_id="stalled",
                                  poll_seconds=0.05,
                                  pool=ThreadPool(execute_job_cached))
            worker.run(exit_on_idle=10)
            final = client.sweep(receipt["sweep"])
            assert final["state"] == "done"
            assert worker.stale == 1
            stats = client.stats()["fabric"]
            assert stats["expired_leases"] == 1
            assert stats["adopted_results"] == 1
            assert stats["completed"] == 0  # never completed fresh

    def test_first_heartbeat_follows_the_coordinator_ttl(self):
        # The heartbeat thread starts before any lease response; it must
        # re-arm on the coordinator's 0.5 s TTL, not sleep out 10 s / 3.
        def slow(job):
            time.sleep(1.5)
            return execute_job_cached(job)

        execute_job_cached(None)
        with running_fabric(ttl=0.5) as (service, client):
            client.submit({"jobs": [JOB_WIRE]})
            worker = FabricWorker(service.url, worker_id="w1",
                                  poll_seconds=0.05, pool=ThreadPool(slow))
            worker.run(exit_on_idle=5)
            stats = client.fabric()
            assert stats["expired_leases"] == 0
            assert stats["completed"] == 1
            assert worker.stale == 0


def seeded_wires(count, first_seed=100):
    """``count`` distinct jobs (one content hash per seed)."""
    return [dict(JOB_WIRE, seed=first_seed + i) for i in range(count)]


@contextlib.contextmanager
def worker_thread(worker, exit_on_idle=10):
    """Run ``worker`` in a background thread; join it on exit."""
    thread = threading.Thread(target=worker.run,
                              kwargs={"exit_on_idle": exit_on_idle},
                              daemon=True)
    thread.start()
    try:
        yield thread
    finally:
        worker.stop()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestPipelinedWorker:
    """Each lane keeps one grant waiting behind the job it runs, and one
    uploader thread publishes completions while the lanes move on."""

    def setup_method(self):
        execute_job_cached(None)  # simulate once, before any clock starts

    def test_next_job_starts_while_the_last_one_uploads(self):
        marks = []

        def runner(job):
            marks.append(("start", job.seed, time.monotonic()))
            result = execute_job_cached(job)
            marks.append(("end", job.seed, time.monotonic()))
            return result

        with running_fabric() as (service, client):
            receipt = client.submit({"jobs": seeded_wires(2)})
            worker = FabricWorker(service.url, worker_id="w1",
                                  poll_seconds=0.05, pool=ThreadPool(runner))
            complete = worker.client.complete

            def slow_complete(lease_id, payload):
                time.sleep(0.3)  # a slow coordinator
                return complete(lease_id, payload)

            worker.client.complete = slow_complete
            worker.run(exit_on_idle=5)
            assert client.sweep(receipt["sweep"])["state"] == "done"
        first_end = next(t for kind, seed, t in marks
                         if kind == "end" and seed == 100)
        second_start = next(t for kind, seed, t in marks
                            if kind == "start" and seed == 101)
        assert second_start - first_end < 0.1
        assert worker.uploaded == 2

    def test_worker_holds_one_waiting_grant_per_lane(self):
        gate, blocked = threading.Event(), threading.Event()

        def runner(job):
            if job.seed == 100:
                blocked.set()
                assert gate.wait(20)
            return execute_job_cached(job)

        with running_fabric() as (service, client):
            receipt = client.submit({"jobs": seeded_wires(5)})
            worker = FabricWorker(service.url, worker_id="w1",
                                  poll_seconds=0.05, pool=ThreadPool(runner))
            with worker_thread(worker):
                try:
                    assert blocked.wait(15)
                    time.sleep(0.3)  # several polls: the bound must hold
                    in_flight = client.fabric()["leases_in_flight"]
                    active = worker.stats()["active_leases"]
                finally:
                    gate.set()
                final = client.wait(receipt["sweep"], timeout=30)
            assert in_flight == 2 and active == 2
            assert final["counts"]["done"] == 5
        assert worker.uploaded == worker.executed == 5

    def test_waiting_grant_is_renewed_until_it_runs(self):
        def runner(job):
            if job.seed == 100:
                time.sleep(1.0)  # > 3 TTLs
            return execute_job_cached(job)

        with running_fabric(ttl=0.3) as (service, client):
            receipt = client.submit({"jobs": seeded_wires(2)})
            worker = FabricWorker(service.url, worker_id="w1",
                                  poll_seconds=0.05, pool=ThreadPool(runner))
            worker.run(exit_on_idle=5)
            first, second = (member["hash"] for member in receipt["jobs"])
            events = [(e["event"], e.get("job"))
                      for e in client.events(receipt["sweep"])]
            # Granted ahead: the second job left the queue while the
            # first still ran.
            assert events.index(("running", second)) \
                < events.index(("done", first))
            stats = client.fabric()
            assert stats["expired_leases"] == 0
            assert stats["completed"] == 2
            assert worker.stale == 0

    def test_failed_upload_does_not_stop_the_uploader(self):
        with running_fabric() as (service, client):
            client.submit({"jobs": seeded_wires(2)})
            worker = FabricWorker(service.url, worker_id="w1",
                                  poll_seconds=0.05,
                                  pool=ThreadPool(execute_job_cached))
            complete, calls = worker.client.complete, []

            def failing_first(lease_id, payload):
                calls.append(lease_id)
                if len(calls) == 1:
                    raise TypeError("payload is not JSON serializable")
                return complete(lease_id, payload)

            worker.client.complete = failing_first
            with worker_thread(worker, exit_on_idle=5) as thread:
                thread.join(timeout=30)
            assert len(calls) == 2 and worker.uploaded == 1
            assert client.fabric()["completed"] == 1

    def test_stop_drains_every_held_grant(self):
        def runner(job):
            if job.seed == 100:
                worker.stop()
            return execute_job_cached(job)

        with running_fabric() as (service, client):
            client.submit({"jobs": seeded_wires(3)})
            worker = FabricWorker(service.url, worker_id="w1",
                                  poll_seconds=0.05, pool=ThreadPool(runner))
            worker.run()
            # Running and waiting grant both finished and uploaded; the
            # third job was never leased.
            assert worker.uploaded == worker.executed == 2
            stats = client.fabric()
            assert stats["granted"] == 2 and stats["completed"] == 2
            assert stats["expired_leases"] == 0
            assert stats["leases_in_flight"] == 0

    def test_many_lanes_lose_no_update(self):
        # More lanes than cores and a tiny switch interval: every counter
        # and every held lease must still add up once the worker drains.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with running_fabric() as (service, client):
                receipt = client.submit({"jobs": seeded_wires(40)})
                worker = FabricWorker(service.url, worker_id="w1",
                                      capacity=4, poll_seconds=0.05,
                                      pool=ThreadPool(execute_job_cached, 4))
                with worker_thread(worker, exit_on_idle=5):
                    final = client.wait(receipt["sweep"], timeout=60)
                stats = client.fabric()
        finally:
            sys.setswitchinterval(interval)
        assert final["counts"]["done"] == 40
        assert stats["completed"] == stats["granted"] == 40
        assert stats["leases_in_flight"] == 0
        assert worker.uploaded == worker.executed == 40
        assert worker.stats()["active_leases"] == 0

    def test_freed_lane_starts_next_job_without_waiting_out_poll(self):
        starts = []

        def runner(job):
            if job.seed == 100:
                time.sleep(1.5)  # one lane blocked
            else:
                starts.append(time.monotonic())
                time.sleep(0.05)  # outlasts the main loop's next lease
            return execute_job_cached(job)

        with running_fabric() as (service, client):
            receipt = client.submit({"jobs": seeded_wires(6)})
            worker = FabricWorker(service.url, worker_id="w1", capacity=2,
                                  poll_seconds=1.0,
                                  pool=ThreadPool(runner, 2))
            worker.run(exit_on_idle=1)
            assert client.sweep(receipt["sweep"])["counts"]["done"] == 6
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert len(gaps) == 4 and max(gaps) < 0.3, gaps


class TestHeartbeatRace:
    """A heartbeat sent while its lease runs can reach the coordinator
    after the lease's upload began or landed, and get a 410 for it.  That
    lease was not lost: a stale upload counts from its receipt."""

    @pytest.mark.parametrize("landed", [False, True],
                             ids=["upload-in-flight", "upload-landed"])
    def test_410_for_an_uploaded_lease_is_no_lost_lease(self, landed):
        execute_job_cached(None)
        job = job_from_wire(JOB_WIRE)
        grants = [{"lease": "l0001-race", "hash": job.content_hash(),
                   "ttl": 0.3, "attempt": 1, "label": job.label,
                   "job": JOB_WIRE}]
        uploading, answered = threading.Event(), threading.Event()

        def slow(job):
            time.sleep(0.5)  # heartbeats go out while it runs
            return execute_job_cached(job)

        worker = FabricWorker("http://127.0.0.1:9", worker_id="w1",
                              poll_seconds=0.05, pool=ThreadPool(slow))

        class Coordinator:
            """Stands in for the daemon: each heartbeat arrives only once
            the upload is under way (or, with ``landed``, done)."""

            def lease(self, worker_id, capacity=1):
                granted, grants[:] = grants[:], []
                return {"ttl": 0.3, "grants": granted}

            def heartbeat(self, lease_id):
                assert uploading.wait(10)
                if landed:
                    wait_until(lambda: not worker.stats()["active_leases"])
                answered.set()
                raise ServiceError("lease gone", status=410)

            def complete(self, lease_id, payload):
                uploading.set()
                if not landed:
                    assert answered.wait(10)
                    time.sleep(0.1)  # the worker handles the 410 first
                return {"ok": True, "stale": False}

            def close(self):
                pass

        worker.client = Coordinator()
        worker.run(exit_on_idle=3)
        assert answered.is_set()
        assert worker.uploaded == 1 and worker.stale == 0
        assert worker.stats()["leases_lost"] == 0
        assert not worker._lost  # nothing held for a released lease


class TestFabricEndToEnd:
    def test_coordinator_restart_resubmit_is_pure_cache_hit(self, tmp_path):
        with running_fabric(store=ResultStore(tmp_path)) as (
                service, client):
            receipt = client.submit({"jobs": [JOB_WIRE, JOB_WIRE_B]})
            worker = FabricWorker(service.url, worker_id="w1", capacity=2,
                                  poll_seconds=0.05,
                                  pool=ThreadPool(execute_job_cached, 2))
            worker.run(exit_on_idle=10)
            assert client.sweep(receipt["sweep"])["state"] == "done"
        # "Coordinator restart": a fresh daemon over the same store.
        with running_fabric(store=ResultStore(tmp_path)) as (
                service, client):
            receipt = client.submit({"jobs": [JOB_WIRE, JOB_WIRE_B]})
            assert receipt["cache_hits"] == 2
            final = client.wait(receipt["sweep"], timeout=10)
            assert final["state"] == "done"
            stats = client.stats()
            assert stats["queue"]["executed"] == 0  # zero re-simulation
            assert stats["fabric"]["granted"] == 0  # no worker ever needed

    def test_worker_kill_mid_sweep_completes_bit_identical(self, tmp_path):
        """The acceptance scenario: 2 workers, one killed mid-sweep by
        ``worker_kill`` injection, sweep still completes and the merged
        results match a serial in-process run bit-for-bit."""
        store = ResultStore(tmp_path / "coordinator-store")
        state = tmp_path / "fault-state"
        state.mkdir()
        wires = [JOB_WIRE, dict(JOB_WIRE, variant="saris")]
        env = dict(os.environ)
        env[faults.FAULT_ENV_VAR] = "mode=worker_kill:n=1"
        env[faults.STATE_ENV_VAR] = str(state)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_SERVICE_URL", None)
        remote = {}
        with running_fabric(store=store, ttl=1.0) as (service, client):
            receipt = client.submit({"jobs": wires})
            procs = [subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker",
                 "--url", service.url, "--id", f"w{i}",
                 "--cache-dir", str(tmp_path / f"worker-{i}-store"),
                 "--poll", "0.2", "--exit-on-idle", "25"],
                cwd=str(REPO_ROOT), env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
                for i in (1, 2)]
            try:
                final = client.wait(receipt["sweep"], timeout=60)
                assert final["state"] == "done"
                assert final["counts"]["done"] == 2
                stats = client.stats()["fabric"]
                # The kill is visible in the lease machinery, and the
                # requeued grant was not charged (attempt stayed 1).
                assert stats["expired_leases"] >= 1
                assert stats["requeues"] >= 1
                events = list(client.events(receipt["sweep"]))
                requeued = [e for e in events if e["event"] == "requeued"]
                assert requeued and all(e["attempt"] == 1 for e in requeued)
                for member in receipt["jobs"]:
                    payload = client.job(member["hash"])
                    remote[member["hash"]] = KernelRunResult.from_json_dict(
                        payload["result"])
            finally:
                output = []
                for proc in procs:
                    try:
                        proc.wait(timeout=60)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                    output.append(proc.stdout.read().decode(
                        "utf-8", "replace"))
                    proc.stdout.close()
            codes = [proc.returncode for proc in procs]
            # Exactly one worker really died (kill -9 style), the survivor
            # drained the sweep and idled out cleanly.
            assert faults.WORKER_KILL_EXIT_CODE in codes, (codes, output)
            assert 0 in codes, (codes, output)
        # Bit-identity: the distributed merge equals a serial run.
        for wire in wires:
            job = job_from_wire(wire)
            serial = execute_job(job)
            assert remote[job.content_hash()].metrics_hash() == \
                serial.metrics_hash()


class TestFabricTracing:
    """Trace-context propagation across the lease protocol and real
    worker processes (the observability acceptance scenario)."""

    @pytest.fixture(autouse=True)
    def telemetry_on(self):
        from repro import obs

        before = obs.enabled()
        obs.set_enabled(True)
        yield
        obs.set_enabled(before)

    def test_grant_carries_trace_and_requeue_reuses_it(self):
        from repro import obs

        result = execute_job_cached(None)
        with running_fabric(ttl=0.4) as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            trace_id = client.sweep(receipt["sweep"])["trace"]
            assert trace_id
            grant = client.lease("doomed")["grants"][0]
            wire = grant["trace"]
            assert wire["trace"] == trace_id
            # The context rides beside the job spec, never inside it —
            # it must not perturb the content hash.
            assert "trace" not in grant["job"]
            assert job_from_wire(grant["job"]).content_hash() == \
                grant["hash"]
            wait_until(lambda: client.fabric()["requeues"] == 1,
                       message="lease reaped and job requeued")
            regrant = client.lease("rescuer")["grants"][0]
            # The requeued grant ships the SAME submit-span context, so
            # both attempts parent to the same submit span.
            assert regrant["trace"] == wire
            span1 = {"name": "attempt", "trace": wire["trace"],
                     "span": "aaaa0001", "parent": wire["span"],
                     "ts": time.time(), "dur": 0.05, "proc": "doomed",
                     "tid": 0, "attrs": {}}
            span2 = dict(span1, span="aaaa0002", proc="rescuer")
            client.complete(regrant["lease"],
                            dict(ok_payload(regrant["hash"], result),
                                 spans=[span2]))
            # The dead worker's late upload is stale, but its span is
            # still stitched into the trace.
            stale = client.complete(grant["lease"],
                                    dict(ok_payload(grant["hash"], result),
                                         spans=[span1]))
            assert stale["stale"] is True
            payload = client.trace(receipt["sweep"])
            attempts = [s for s in payload["spans"]
                        if s["name"] == "attempt"]
            assert {s["span"] for s in attempts} == \
                {"aaaa0001", "aaaa0002"}
            assert all(s["parent"] == wire["span"] for s in attempts)
            # An identical re-upload must not duplicate the span.
            client.complete(regrant["lease"],
                            dict(ok_payload(regrant["hash"], result),
                                 spans=[span2]))
            again = client.trace(receipt["sweep"])
            assert len([s for s in again["spans"]
                        if s["span"] == "aaaa0002"]) == 1
            # The export is a well-formed Chrome trace document.
            document = obs.chrome_trace(again["spans"])
            assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_trace_propagates_across_real_worker_processes(self, tmp_path):
        """Two genuine ``repro worker`` subprocesses: every span lands
        under the trace id minted at submit, worker attempt spans parent
        to the coordinator's submit spans."""
        from repro import obs

        store = ResultStore(tmp_path / "coordinator-store")
        wires = [JOB_WIRE, dict(JOB_WIRE, variant="saris")]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_SERVICE_URL", None)
        env.pop("REPRO_OBS", None)  # telemetry on in the workers
        with running_fabric(store=store, ttl=5.0) as (service, client):
            receipt = client.submit({"jobs": wires})
            trace_id = client.sweep(receipt["sweep"])["trace"]
            assert trace_id
            procs = [subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker",
                 "--url", service.url, "--id", f"w{i}",
                 "--cache-dir", str(tmp_path / f"worker-{i}-store"),
                 "--poll", "0.2", "--exit-on-idle", "15"],
                cwd=str(REPO_ROOT), env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
                for i in (1, 2)]
            try:
                final = client.wait(receipt["sweep"], timeout=120)
                assert final["state"] == "done"
                payload = client.trace(receipt["sweep"])
            finally:
                for proc in procs:
                    try:
                        proc.wait(timeout=60)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                    proc.stdout.close()
            assert payload["trace"] == trace_id
            spans = payload["spans"]
            assert spans and all(s["trace"] == trace_id for s in spans)
            roots = [s for s in spans if s["name"] == "sweep"]
            assert len(roots) == 1 and roots[0]["parent"] is None
            submits = {s["span"]: s for s in spans
                       if s["name"] == "submit"}
            assert len(submits) == 2
            assert all(s["parent"] == roots[0]["span"]
                       for s in submits.values())
            attempts = [s for s in spans if s["name"] == "attempt"]
            assert len(attempts) >= 2
            assert all(s["parent"] in submits for s in attempts)
            # Worker spans carry the worker id as their process label.
            worker_procs = {s["proc"] for s in attempts}
            assert worker_procs and worker_procs <= {"w1", "w2"}
            document = obs.chrome_trace(spans)
            named = {e["args"]["name"] for e in document["traceEvents"]
                     if e["ph"] == "M"}
            assert worker_procs <= named
