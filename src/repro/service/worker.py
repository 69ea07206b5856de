"""Fabric worker: lease jobs from a coordinator, simulate, publish results.

The pull side of :mod:`repro.service.fabric`.  A worker is deliberately
stateless from the coordinator's point of view — it owns nothing but the
leases it is currently heartbeating:

* **Pull loop** — the worker runs ``capacity`` lanes (threads) and holds
  one granted job waiting per lane beside the jobs they run, so a lane that
  finishes a job starts the next one at once instead of waiting out a
  coordinator round trip; whichever lane frees first takes the waiting
  grant.  ``POST /v1/fabric/lease`` tops the worker up to two grants per
  lane, and the main loop wakes as soon as any lane finishes.  Grants
  carry the wire job spec, a lease id and the TTL.  Each grant executes
  through the same supervised single-job core
  (:func:`~repro.sweep.supervisor.execute_supervised`) the local queue
  uses: bounded retry with backoff, degradation to the Python engine on
  native guard faults.  In-band failures are resolved *here* and uploaded
  as final — the coordinator's lease machinery only supervises the
  failure mode workers cannot report: their own death.
* **Upload behind** — a lane hands its finished payload to one uploader
  thread and moves on; the uploader publishes completions in FIFO order.
  Its backlog holds at most ``capacity`` payloads, so a slow coordinator
  holds the lanes back instead of piling up results, and a failed upload
  is logged and skipped without stopping the thread.
* **Cache tier** — the worker's local :class:`~repro.sweep.store.
  ResultStore` is consulted before simulating and written after; a local
  hit uploads immediately (result upload = publish to the coordinator's
  store).  Content-hashed jobs make this safe: the same hash is the same
  simulation everywhere.
* **Heartbeats** — one background thread renews every held lease —
  running, waiting or awaiting upload — each ``ttl / 3`` seconds, from its
  grant until its upload lands; a lease response that changes the TTL
  re-arms the thread at once.  A 410 answer means the lease is gone (the
  reaper requeued the job); the worker stops renewing and lets its
  eventual upload land as a stale completion, which the coordinator
  publishes or adopts but never double-counts.
* **Node faults** — the worker interprets the fabric-level
  :mod:`~repro.sweep.faults` modes: ``lease_stall`` suspends heartbeats
  for the leased job and over-holds past the TTL (the job still completes,
  but stale), and while it holds the stalled lease the worker leases
  nothing, as a stalled node would not; ``net_drop:n=K`` makes the next K
  outbound coordinator requests fail as if the network dropped them.
  ``worker_kill`` needs no interpretation — it fires inside
  ``execute_job`` and takes the whole process down, exactly like
  ``kill -9``.

The waiting grants are the price of the pipeline: while every lane is
busy with a hung or very long job, a waiting grant waits with it (one job
held back per lane) until the job ends.  If the worker dies first, both
jobs requeue uncharged.

Exit behaviour: ``run(exit_on_idle=N)`` returns after N consecutive empty
polls (CI and tests); without it the worker polls until stopped.  Either
way it first runs every grant it holds and drains the uploader, so no
result it computed is lost.  A coordinator that stays unreachable for
``max_errors`` consecutive lease requests ends the loop with a
:class:`ServiceError`.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import traceback
from concurrent.futures import (FIRST_COMPLETED, Future, ThreadPoolExecutor,
                                wait)
from typing import Callable, Dict, Optional, Set, Tuple

from repro import obs
from repro.runner import KernelRunResult
from repro.service.client import ServiceClient, ServiceError
from repro.service.spec import SpecError, job_from_wire
from repro.sweep import faults
from repro.sweep.job import SweepJob
from repro.sweep.store import ResultStore
from repro.sweep.supervisor import RetryPolicy, execute_supervised

#: Worker-process metrics (scraped via ``repro doctor`` snapshots and the
#: counters printed at exit; a worker has no HTTP listener of its own).
_OBS_EXECUTED = obs.counter("repro_worker_executed_total",
                            "Jobs simulated by this worker")
_OBS_LOCAL_HITS = obs.counter("repro_worker_local_hits_total",
                              "Grants served from the worker's local store")
_OBS_UPLOADS = obs.counter("repro_worker_uploads_total",
                           "Completion payloads accepted by the coordinator")
_OBS_STALE_UPLOADS = obs.counter("repro_worker_stale_uploads_total",
                                 "Uploads that landed stale")
_OBS_NET_DROPS = obs.counter("repro_worker_net_drops_total",
                             "Outbound requests lost to injected partitions")

#: Grants a worker holds per lane: the one it runs and one waiting.
_GRANTS_PER_LANE = 2


class FabricWorker:
    """One worker process's pull/execute/publish loop.

    ``runner`` replaces the supervised execution in tests (a callable
    ``job -> KernelRunResult``; raising marks the job failed); production
    leaves it ``None``.
    """

    def __init__(self, url: str, token: Optional[str] = None,
                 worker_id: Optional[str] = None, capacity: int = 1,
                 store: Optional[ResultStore] = None,
                 retry: Optional[RetryPolicy] = None,
                 poll_seconds: float = 0.5,
                 runner: Optional[Callable[[SweepJob],
                                           KernelRunResult]] = None,
                 log: Optional[Callable[[str], None]] = None) -> None:
        self.client = ServiceClient(url, token=token)
        self.worker_id = (worker_id
                          or f"{socket.gethostname()}-{os.getpid()}")
        obs.set_process_label(self.worker_id)
        self.capacity = max(1, int(capacity))
        self.store = store
        self.retry = retry if retry is not None else RetryPolicy()
        self.poll_seconds = max(0.02, float(poll_seconds))
        self._runner = runner
        self._log = log or (lambda _line: None)
        self._ttl = 10.0  # refined by every lease response
        self._active: Set[str] = set()     # held leases, until uploaded
        self._suspended: Set[str] = set()  # leases with stalled beats
        self._lost: Set[str] = set()       # leases the reaper took
        self._lock = threading.Lock()
        self._stop = threading.Event()
        #: Finished payloads waiting for the uploader (None ends it).
        self._uploads: "queue.Queue[Optional[Tuple[str, dict]]]" = \
            queue.Queue(maxsize=self.capacity)
        self._beat_wake = threading.Event()  # TTL changed, or drained
        self._drained = threading.Event()    # every held lease uploaded
        # Counters (printed by `repro worker` on exit; asserted in tests).
        self.executed = 0
        self.local_hits = 0
        self.uploaded = 0
        self.failures = 0
        self.stale = 0
        self.lease_lost = 0
        self.net_drops = 0

    # -- main loop ----------------------------------------------------------

    def stop(self) -> None:
        self._stop.set()

    def run(self, exit_on_idle: Optional[int] = None,
            max_errors: int = 10) -> None:
        """Pull-execute-publish until stopped (or idle/unreachable).

        Returns only after every held grant has run and been uploaded.
        """
        heartbeat = threading.Thread(target=self._heartbeat_loop,
                                     name=f"{self.worker_id}-heartbeat",
                                     daemon=True)
        uploader = threading.Thread(target=self._upload_loop,
                                    name=f"{self.worker_id}-uploader",
                                    daemon=True)
        heartbeat.start()
        uploader.start()
        lanes = ThreadPoolExecutor(max_workers=self.capacity,
                                   thread_name_prefix=self.worker_id)
        held: Set[Future] = set()
        idle = 0
        errors = 0
        try:
            while not self._stop.is_set():
                held = {f for f in held if not f.done()}
                grants = []
                with self._lock:
                    stalled = bool(self._suspended)
                # A stalled node leases nothing until its stalled lease
                # is uploaded; otherwise top up to two grants per lane.
                want = (0 if stalled
                        else _GRANTS_PER_LANE * self.capacity - len(held))
                if want > 0:
                    try:
                        grants = self._lease(want)
                        errors = 0
                    except ServiceError as exc:
                        errors += 1
                        if errors >= max_errors:
                            raise ServiceError(
                                f"coordinator unreachable after {errors} "
                                f"consecutive lease attempts: {exc}")
                        self._stop.wait(min(5.0, 0.1 * (2.0 ** errors)))
                        continue
                if grants:
                    idle = 0
                    for grant in grants:
                        held.add(lanes.submit(self._run_grant, grant))
                    continue
                if held:
                    idle = 0
                    wait(held, timeout=self.poll_seconds,
                         return_when=FIRST_COMPLETED)
                    continue
                idle += 1
                if exit_on_idle is not None and idle >= exit_on_idle:
                    return
                self._stop.wait(self.poll_seconds)
        finally:
            self._stop.set()
            lanes.shutdown(wait=True)  # every held grant runs...
            self._uploads.put(None)    # ...and is uploaded
            uploader.join()
            self._drained.set()
            self._beat_wake.set()
            heartbeat.join(timeout=2.0)

    def _lease(self, want: int):
        self._net_gate()
        response = self.client.lease(self.worker_id, capacity=want)
        ttl = response.get("ttl")
        if isinstance(ttl, (int, float)) and ttl > 0 and ttl != self._ttl:
            self._ttl = float(ttl)
            self._beat_wake.set()  # re-arm the heartbeat on the new TTL
        grants = response.get("grants", [])
        with self._lock:
            # Held from now on: renewed until its upload lands.
            self._active.update(str(grant.get("lease")) for grant in grants)
        return grants

    # -- per-grant execution ------------------------------------------------

    def _run_grant(self, grant: dict) -> None:
        """Lane body: run one held grant and queue its upload."""
        lease_id = str(grant.get("lease"))
        try:
            payload = self._payload(lease_id, grant)
        except Exception:  # noqa: BLE001 - the lane must keep running
            # Nothing to upload: let the lease lapse so the job requeues.
            self._log(f"[{self.worker_id}] grant {lease_id} abandoned:\n"
                      f"{traceback.format_exc()}")
            self._release(lease_id)
            return
        self._uploads.put((lease_id, payload))  # blocks while backlogged

    def _payload(self, lease_id: str, grant: dict) -> dict:
        """Run one grant (after any injected stall); build its upload."""
        try:
            job = job_from_wire(grant.get("job", {}))
        except SpecError as exc:
            self._count("failures")
            return {"ok": False, "hash": grant.get("hash"),
                    "failure": {"kind": "exception",
                                "error_type": "SpecError",
                                "message": f"undecodable grant: {exc}",
                                "worker": self.worker_id}}
        job_hash = job.content_hash()
        trace = obs.TraceContext.from_wire(grant.get("trace"))
        stall = faults.claim_node_fault("lease_stall", job)
        if stall is not None:
            # A stalled node: heartbeats stop, the lease expires while
            # the job still "runs".  Completion lands stale on purpose.
            with self._lock:
                self._suspended.add(lease_id)
            self._log(f"[{self.worker_id}] lease_stall on {job.label}: "
                      f"holding {lease_id} past its TTL")
            self._stop.wait(min(stall.hang_seconds, self._ttl * 3.0))
        # The attempt span parents to the coordinator's submit span
        # (the grant's trace context), continuing the sweep's trace
        # inside this process; its record — and everything nested
        # under it — ships home with the completion payload.
        with obs.span("attempt", parent=trace, worker=self.worker_id,
                      lease=lease_id, job=job.label,
                      attempt=int(grant.get("attempt", 1))):
            payload = self._execute(job, job_hash)
        payload["lease_was_lost"] = lease_id in self._lost
        if trace is not None:
            payload["spans"] = obs.take_spans(trace.trace_id)
        return payload

    def _count(self, counter: str) -> None:
        """Add one to a counter that lanes and helper threads share."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def _release(self, lease_id: str) -> None:
        """Stop holding a lease: no more heartbeats for it."""
        with self._lock:
            self._active.discard(lease_id)
            self._suspended.discard(lease_id)
            self._lost.discard(lease_id)

    def _execute(self, job: SweepJob, job_hash: str) -> dict:
        """Run one job (local store first) and build the upload payload."""
        cached = self.store.load(job) if self.store is not None else None
        if cached is not None:
            self._count("local_hits")
            _OBS_LOCAL_HITS.inc()
            return {"ok": True, "hash": job_hash,
                    "result": cached.to_json_dict(),
                    "attempts": 0, "degraded": False, "cache_hit": True}
        if self._runner is not None:
            try:
                result = self._runner(job)
                attempts, degraded = 1, False
            except Exception as exc:  # noqa: BLE001 - uploaded as failure
                self._count("failures")
                return {"ok": False, "hash": job_hash,
                        "failure": {"kind": "exception",
                                    "error_type": type(exc).__name__,
                                    "message": str(exc),
                                    "worker": self.worker_id}}
        else:
            outcome = execute_supervised(job, self.retry)
            if outcome.failure is not None:
                self._count("failures")
                failure = dict(outcome.failure.to_dict(),
                               kind=outcome.failure.kind,
                               worker=self.worker_id)
                return {"ok": False, "hash": job_hash, "failure": failure}
            result = outcome.result
            attempts, degraded = outcome.attempts, outcome.degraded
        self._count("executed")
        _OBS_EXECUTED.inc()
        if self.store is not None:
            self.store.save(job, result)  # local cache tier
        return {"ok": True, "hash": job_hash,
                "result": result.to_json_dict(),
                "attempts": attempts, "degraded": degraded,
                "cache_hit": False}

    def _upload(self, lease_id: str, payload: dict, tries: int = 4) -> None:
        for attempt in range(1, tries + 1):
            try:
                self._net_gate()
                receipt = self.client.complete(lease_id, payload)
            except ServiceError as exc:
                if exc.status is not None and exc.status < 500:
                    # The coordinator answered: arguing is pointless.
                    self._log(f"[{self.worker_id}] upload of {lease_id} "
                              f"rejected: {exc}")
                    return
                if attempt == tries:
                    self._log(f"[{self.worker_id}] upload of {lease_id} "
                              f"abandoned after {tries} attempts: {exc}")
                    return
                self._stop.wait(min(2.0, 0.1 * (2.0 ** attempt)))
                continue
            self.uploaded += 1
            _OBS_UPLOADS.inc()
            if receipt.get("stale"):
                self.stale += 1
                _OBS_STALE_UPLOADS.inc()
            return

    def _upload_loop(self) -> None:
        """Uploader body: publish finished payloads in FIFO order."""
        while True:
            item = self._uploads.get()
            if item is None:
                return
            lease_id, payload = item
            try:
                self._upload(lease_id, payload)
            except Exception:  # noqa: BLE001 - keep draining
                self._log(f"[{self.worker_id}] upload of {lease_id} "
                          f"failed:\n{traceback.format_exc()}")
            finally:
                self._release(lease_id)

    # -- heartbeats ---------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while True:
            woken = self._beat_wake.wait(max(0.05, self._ttl / 3.0))
            if self._drained.is_set():
                return
            if woken:  # a lease response changed the TTL: re-arm on it
                self._beat_wake.clear()
                continue
            with self._lock:
                leases = [lease for lease in self._active
                          if lease not in self._suspended
                          and lease not in self._lost]
            for lease_id in leases:
                try:
                    self._net_gate()
                    self.client.heartbeat(lease_id)
                except ServiceError as exc:
                    if exc.status == 410:
                        # The reaper requeued our job; keep running (the
                        # result is still worth publishing) but stop
                        # renewing a lease that no longer exists.
                        self.lease_lost += 1
                        with self._lock:
                            self._lost.add(lease_id)
                    # else: transient — the next beat retries

    # -- fault plumbing -----------------------------------------------------

    def _net_gate(self) -> None:
        """Simulated partition: drop the next K outbound requests."""
        if faults.claim_node_fault("net_drop") is not None:
            self._count("net_drops")
            _OBS_NET_DROPS.inc()
            raise ServiceError(
                f"injected net_drop: outbound request from "
                f"{self.worker_id} lost")

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            active = len(self._active)
        return {
            "worker": self.worker_id,
            "capacity": self.capacity,
            "active_leases": active,
            "executed": self.executed,
            "local_hits": self.local_hits,
            "uploaded": self.uploaded,
            "failures": self.failures,
            "stale_uploads": self.stale,
            "leases_lost": self.lease_lost,
            "net_drops": self.net_drops,
        }
