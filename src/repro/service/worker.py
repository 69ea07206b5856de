"""Fabric worker: lease jobs from a coordinator, simulate, publish results.

The pull side of :mod:`repro.service.fabric`.  A worker is deliberately
stateless from the coordinator's point of view — it owns nothing but the
leases it is currently heartbeating:

* **Pull loop** — the worker runs its jobs on a
  :class:`~repro.sweep.supervisor.SupervisedPool` of ``capacity``
  processes, the execution core parallel sweeps and ``repro serve`` use
  too.  It holds two grants per pool worker, the job it runs and one
  waiting in its pipe, so a pool worker that finishes a job starts the
  next one at once instead of waiting out a coordinator round trip.
  ``POST /v1/fabric/lease`` tops the worker up to that bound, and the main
  loop wakes as soon as any job finishes.  Grants carry the wire job spec,
  a lease id and the TTL.  The pool supervises each job: bounded retry
  with backoff, degradation to the Python engine on native guard faults,
  and a crash or an overrun ``REPRO_SWEEP_TIMEOUT`` charged to that job
  alone.  Every failure is resolved *here* and uploaded as the job's own,
  final failure — the coordinator's lease machinery only supervises the
  failure mode workers cannot report: their own death.
* **Upload behind** — the main loop hands each finished payload to one
  uploader thread and moves on; the uploader publishes completions in FIFO
  order.  Its backlog holds at most ``capacity`` payloads, so a slow
  coordinator holds the main loop back instead of piling up results, and a
  failed upload is logged and skipped without stopping the thread.
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
  publishes or adopts but never double-counts.  A 410 for a lease whose
  upload is under way or landed is no loss: a beat sent while the job ran
  reached the coordinator after its completion.
* **Node faults** — the worker interprets the fabric-level
  :mod:`~repro.sweep.faults` modes before a job reaches the pool:
  ``worker_kill`` ends the worker's own process with exit code 137, like
  ``kill -9``; ``lease_stall`` suspends heartbeats for the leased job and
  stalls the node past the TTL before running it (the job still completes,
  but stale), and while it holds the stalled lease the worker leases
  nothing; ``net_drop:n=K`` makes the next K outbound coordinator requests
  fail as if the network dropped them.

A waiting grant sits behind the job running on its pool worker.
``REPRO_SWEEP_TIMEOUT`` bounds that wait: an overrun job's pool worker is
replaced, and the grant behind it moves on uncharged.  Without a timeout a
hung job holds one grant back until it ends.  If the worker dies first,
both leases requeue uncharged.

Exit behaviour: ``run(exit_on_idle=N)`` returns after N consecutive empty
polls (CI and tests); without it the worker polls until stopped.  Either
way it first runs every grant it holds and drains the uploader, so no
result it computed is lost.  A ``KeyboardInterrupt`` (Ctrl-C) ends the
pool's workers at once instead, also mid-job; the leases of the jobs they
held lapse and requeue.  A coordinator that stays unreachable for
``max_errors`` consecutive lease requests ends the loop with a
:class:`ServiceError`.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Callable, Dict, Optional, Set, Tuple

from repro import obs
from repro.service.client import ServiceClient, ServiceError
from repro.service.spec import SpecError, job_from_wire
from repro.sweep import faults
from repro.sweep.job import SweepJob
from repro.sweep.store import ResultStore
from repro.sweep.supervisor import (_JOBS_PER_WORKER, RetryPolicy,
                                    SingleJobOutcome, SupervisedPool)

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

#: A granted job in the pool: its lease, the job and its trace context.
_Held = Tuple[str, SweepJob, Optional[obs.TraceContext]]


class FabricWorker:
    """One worker process's pull/execute/publish loop.

    ``pool`` replaces the supervised pool in tests (anything with the
    :class:`~repro.sweep.supervisor.SupervisedPool` interface); production
    leaves it ``None`` and :meth:`run` creates a pool of ``capacity``
    processes under ``retry``.  :meth:`run` closes the pool it used.
    """

    def __init__(self, url: str, token: Optional[str] = None,
                 worker_id: Optional[str] = None, capacity: int = 1,
                 store: Optional[ResultStore] = None,
                 retry: Optional[RetryPolicy] = None,
                 poll_seconds: float = 0.5,
                 pool: Optional[SupervisedPool] = None,
                 log: Optional[Callable[[str], None]] = None) -> None:
        self.client = ServiceClient(url, token=token)
        self.worker_id = (worker_id
                          or f"{socket.gethostname()}-{os.getpid()}")
        obs.set_process_label(self.worker_id)
        self.capacity = max(1, int(capacity))
        self.store = store
        self.retry = retry if retry is not None else RetryPolicy()
        self.poll_seconds = max(0.02, float(poll_seconds))
        self._pool = pool
        self._log = log or (lambda _line: None)
        self._ttl = 10.0  # refined by every lease response
        self._active: Set[str] = set()     # held leases, until uploaded
        self._suspended: Set[str] = set()  # leases with stalled beats
        self._lost: Set[str] = set()       # leases the reaper took
        self._handed: Set[str] = set()     # leases handed to the uploader
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

        Returns only after every held grant has run and been uploaded; a
        ``KeyboardInterrupt`` ends the pool's workers without waiting.
        """
        heartbeat = threading.Thread(target=self._heartbeat_loop,
                                     name=f"{self.worker_id}-heartbeat",
                                     daemon=True)
        uploader = threading.Thread(target=self._upload_loop,
                                    name=f"{self.worker_id}-uploader",
                                    daemon=True)
        heartbeat.start()
        uploader.start()
        pool = (self._pool if self._pool is not None
                else SupervisedPool(self.capacity, self.retry))
        held: Dict[Future, _Held] = {}
        drain = True
        idle = 0
        errors = 0
        try:
            while not self._stop.is_set():
                self._harvest(held)
                grants = []
                with self._lock:
                    stalled = bool(self._suspended)
                # A stalled node leases nothing until its stalled lease
                # is uploaded; otherwise top up to two grants per worker.
                want = (0 if stalled
                        else _JOBS_PER_WORKER * self.capacity - len(held))
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
                        self._start(grant, pool, held)
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
        except KeyboardInterrupt:
            drain = False  # the held leases lapse and requeue
            raise
        finally:
            self._stop.set()
            try:
                if drain:
                    wait(held)           # every held grant runs...
                    self._harvest(held)  # ...and is uploaded
            finally:
                pool.close()
                self._uploads.put(None)
                uploader.join()
                self._drained.set()
                self._beat_wake.set()
                heartbeat.join(timeout=2.0)
                self.client.close()

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

    def _start(self, grant: dict, pool: SupervisedPool,
               held: Dict[Future, _Held]) -> None:
        """Hand one grant to the pool, or upload it at once when it needs
        no simulation (undecodable spec, local store hit)."""
        lease_id = str(grant.get("lease"))
        try:
            try:
                job = job_from_wire(grant.get("job", {}))
            except SpecError as exc:
                self.failures += 1
                self._hand_over(lease_id, {
                    "ok": False, "hash": grant.get("hash"),
                    "failure": {"kind": "exception",
                                "error_type": "SpecError",
                                "message": f"undecodable grant: {exc}",
                                "worker": self.worker_id}})
                return
            stall = faults.claim_node_fault("lease_stall", job)
            if stall is not None:
                # A stalled node: heartbeats stop, the lease expires while
                # the job still "runs".  Completion lands stale on purpose.
                with self._lock:
                    self._suspended.add(lease_id)
                self._log(f"[{self.worker_id}] lease_stall on {job.label}: "
                          f"holding {lease_id} past its TTL")
                self._stop.wait(min(stall.hang_seconds, self._ttl * 3.0))
            cached = self.store.load(job) if self.store is not None else None
            if cached is not None:
                self.local_hits += 1
                _OBS_LOCAL_HITS.inc()
                self._hand_over(lease_id, {
                    "ok": True, "hash": job.content_hash(),
                    "result": cached.to_json_dict(), "attempts": 0,
                    "degraded": False, "cache_hit": True})
                return
            if faults.claim_node_fault("worker_kill", job) is not None:
                self._log(f"[{self.worker_id}] worker_kill on {job.label}")
                os._exit(faults.WORKER_KILL_EXIT_CODE)
            trace = obs.TraceContext.from_wire(grant.get("trace"))
            held[pool.submit(job, trace)] = (lease_id, job, trace)
        except Exception:  # noqa: BLE001 - the loop must keep running
            self._abandon(lease_id)

    def _harvest(self, held: Dict[Future, _Held]) -> None:
        """Queue the upload of every finished job (blocks while the
        uploader is backlogged)."""
        for future in [future for future in held if future.done()]:
            lease_id, job, trace = held.pop(future)
            try:
                payload = self._payload(job, future.result())
            except Exception:  # noqa: BLE001 - the loop must keep running
                self._abandon(lease_id)
                continue
            if trace is not None:
                # The attempt span and everything nested under it ship
                # home with the completion.
                payload["spans"] = obs.take_spans(trace.trace_id)
            self._hand_over(lease_id, payload)

    def _hand_over(self, lease_id: str, payload: dict) -> None:
        """Queue a finished lease's upload (blocks while the uploader is
        backlogged)."""
        with self._lock:
            self._handed.add(lease_id)
        self._uploads.put((lease_id, payload))

    def _payload(self, job: SweepJob, outcome: SingleJobOutcome) -> dict:
        """The upload for one pool outcome (a result is cached locally)."""
        job_hash = job.content_hash()
        if outcome.failure is not None:
            self.failures += 1
            return {"ok": False, "hash": job_hash,
                    "failure": dict(outcome.failure.to_dict(),
                                    worker=self.worker_id)}
        self.executed += 1
        _OBS_EXECUTED.inc()
        if self.store is not None:
            self.store.save(job, outcome.result)  # local cache tier
        return {"ok": True, "hash": job_hash,
                "result": outcome.result.to_json_dict(),
                "attempts": outcome.attempts, "degraded": outcome.degraded,
                "cache_hit": False}

    def _abandon(self, lease_id: str) -> None:
        """Nothing to upload: let the lease lapse so the job requeues."""
        self._log(f"[{self.worker_id}] grant {lease_id} abandoned:\n"
                  f"{traceback.format_exc()}")
        self._release(lease_id)

    def _release(self, lease_id: str) -> None:
        """Stop holding a lease: no more heartbeats for it."""
        with self._lock:
            self._active.discard(lease_id)
            self._suspended.discard(lease_id)
            self._lost.discard(lease_id)
            self._handed.discard(lease_id)

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
                        # renewing a lease that no longer exists.  A lease
                        # whose upload is under way or landed is not lost:
                        # a stale upload counts from its receipt.
                        with self._lock:
                            if (lease_id in self._active
                                    and lease_id not in self._handed):
                                self.lease_lost += 1
                                self._lost.add(lease_id)
                    # else: transient — the next beat retries

    # -- fault plumbing -----------------------------------------------------

    def _net_gate(self) -> None:
        """Simulated partition: drop the next K outbound requests."""
        if faults.claim_node_fault("net_drop") is not None:
            with self._lock:  # the main loop, uploader and beats all call
                self.net_drops += 1
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
