"""Lease-based coordinator core for the distributed sweep fabric.

The moment sweep work leaves one machine, the dominant failure modes stop
being Python exceptions and become dead workers, network partitions and
half-finished jobs.  This module is the coordinator side of the fabric's
answer: **every job a worker holds is a lease** — a grant with an id and a
TTL that the worker must heartbeat to keep.  A worker that dies, hangs or
falls off the network simply stops renewing; the reaper notices the expired
lease and puts the job back in play.  No worker is ever trusted to report
its own death.

A worker runs its jobs on a :class:`~repro.sweep.supervisor.SupervisedPool`,
which charges a crash or a timeout to the one job that caused it, and
uploads every such failure as that job's own.  A lease expiry therefore
means node death only (``kill -9``, the OOM killer, a lost machine or
network), never a verdict on the job:

* When a worker's lease expires the coordinator treats the whole node as
  dead and expires every lease it holds at once.
* Every expired lease requeues its job **uncharged**, behind the jobs
  already waiting.
* A job whose leases keep expiring — nodes keep dying under it — fails
  with ``kind="lease_expired"`` on its ``max_attempts + 1``-th expiry
  (:attr:`~repro.sweep.supervisor.RetryPolicy.max_attempts` of the
  queue's policy), so it cannot circulate forever.

Completion is publish-to-store: an uploaded result is saved to the
coordinator's :class:`~repro.sweep.store.ResultStore` before the job is
marked done, so a coordinator restart plus client resubmit is a pure cache
hit.  A result travels as its store text
(:func:`~repro.sweep.store.encode_result`), which the coordinator checks
and then keeps as it is, for the store and the job: it never encodes a
result.  Results are content-addressed and deterministic, which makes *stale*
completions (the lease expired first) harmless — the result is still
published, and if the job is still waiting for a re-grant it is adopted
directly instead of being simulated again.

Everything here runs on the queue's event loop; the HTTP layer
(:mod:`repro.service.server`) calls straight in.  Determinism is the
queue's problem and is already solved: sweep status and merge order follow
submission-order job hashes, so the merged report is invariant to worker
count and completion order.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import secrets
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Set

from repro import obs
from repro.result import KernelRunResult
from repro.service.queue import QUEUED, RUNNING, JobQueue
from repro.service.spec import job_to_wire

#: Fabric metrics.  A fabric-executed job moves the same ``repro_queue_*``
#: executed/failed/latency series a locally executed one does: the
#: coordinator starts and finishes jobs through the queue.
_OBS_LEASES_GRANTED = obs.counter("repro_fabric_leases_granted_total",
                                  "Leases granted to workers")
_OBS_LEASE_RENEWALS = obs.counter("repro_fabric_lease_renewals_total",
                                  "Lease heartbeat renewals")
_OBS_LEASES_EXPIRED = obs.counter("repro_fabric_leases_expired_total",
                                  "Leases expired by the reaper")
_OBS_REQUEUES = obs.counter("repro_fabric_requeues_total",
                            "Jobs requeued after lease expiry")
_OBS_STALE_UPLOADS = obs.counter("repro_fabric_stale_uploads_total",
                                 "Uploads that arrived after lease expiry")
_OBS_ADOPTED = obs.counter("repro_fabric_adopted_results_total",
                           "Stale uploads adopted as the job's result")
_OBS_COMPLETED = obs.counter("repro_fabric_completed_total",
                             "Jobs completed through fresh leases")
_OBS_REMOTE_FAILURES = obs.counter("repro_fabric_remote_failures_total",
                                   "Final failures uploaded by workers")
_OBS_LIVE_WORKERS = obs.gauge("repro_fabric_live_workers",
                              "Workers holding leases or seen recently")
_OBS_LEASES_IN_FLIGHT = obs.gauge("repro_fabric_leases_in_flight",
                                  "Leases currently held by workers")

#: The keys :meth:`KernelRunResult.to_json_dict` writes: every field but
#: the in-memory ``cluster``.
_RESULT_KEYS = frozenset(f.name for f in fields(KernelRunResult)
                         if f.name != "cluster")

#: Default lease TTL in seconds: long enough that a heartbeat every TTL/3
#: survives scheduling jitter, short enough that a dead node's work is back
#: in play quickly.
DEFAULT_LEASE_TTL = 10.0


class FabricError(RuntimeError):
    """Misuse of the fabric coordinator (bad payloads, wrong queue mode)."""


@dataclass
class Lease:
    """One granted job: worker-held ownership with an expiry deadline."""

    id: str
    job_hash: str
    worker: str
    ttl: float
    attempt: int               # 1 + the job's expired leases so far
    granted_at: float          # wall clock, for reporting
    deadline: float            # monotonic, for expiry
    renewals: int = 0


@dataclass
class WorkerInfo:
    """What the coordinator knows about one worker id."""

    id: str
    first_seen: float
    last_seen: float
    leases: Set[str] = field(default_factory=set)
    completed: int = 0
    failed: int = 0
    expired: int = 0

    def status_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "leases": len(self.leases),
            "completed": self.completed,
            "failed": self.failed,
            "expired": self.expired,
        }


class FabricCoordinator:
    """Grants leases over a ``dispatch="fabric"`` :class:`JobQueue`.

    The coordinator owns the lease table and the reaper; the queue keeps
    owning job/sweep state, event logs and the store.  All methods must be
    called on the queue's event loop (the HTTP server guarantees this).
    """

    def __init__(self, queue: JobQueue, ttl: Optional[float] = None) -> None:
        if queue.dispatch != "fabric":
            raise FabricError("the coordinator needs a JobQueue created "
                              "with dispatch='fabric' (local worker lanes "
                              "would race the lease grants)")
        self.queue = queue
        self.ttl = float(ttl) if ttl is not None else DEFAULT_LEASE_TTL
        if self.ttl <= 0:
            raise FabricError(f"lease ttl must be positive, got {self.ttl}")
        self.max_attempts = queue._retry.max_attempts
        self.leases: Dict[str, Lease] = {}
        self.workers: Dict[str, WorkerInfo] = {}
        #: Expired leases per job hash, until the job terminates.
        self._expiries: Dict[str, int] = {}
        self._lease_seq = itertools.count(1)
        #: Lease ids are ``l<seq>-<tag>``: the sequence makes them unique
        #: within this coordinator, the tag across its restarts.
        self._lease_tag = secrets.token_hex(3)
        self._reaper: Optional[asyncio.Task] = None
        self.started_at = time.time()
        # Lifetime counters (served by /v1/stats and repro doctor).
        self.granted = 0
        self.completed = 0
        self.remote_failures = 0
        self.requeues = 0
        self.expired_leases = 0
        self.stale_completions = 0
        self.adopted_results = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "FabricCoordinator":
        """Spawn the reaper task on the running loop."""
        if self._reaper is not None:
            raise FabricError("coordinator already started")
        self._reaper = asyncio.get_running_loop().create_task(
            self._reap_forever())
        # Live-state gauges sample the coordinator at scrape time; a later
        # coordinator (tests, daemon restart in-process) simply takes over.
        _OBS_LIVE_WORKERS.set_function(lambda: len(self.live_workers()))
        _OBS_LEASES_IN_FLIGHT.set_function(lambda: len(self.leases))
        return self

    async def close(self) -> None:
        """Stop the reaper; leases simply stop being enforced."""
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None

    # -- grants -------------------------------------------------------------

    def grant(self, worker_id: str, capacity: int = 1
              ) -> List[Dict[str, object]]:
        """Lease up to ``capacity`` queued jobs to ``worker_id``, in queue
        order (a requeued job waits behind the jobs queued before it)."""
        if not worker_id or not isinstance(worker_id, str):
            raise FabricError("a lease request needs a 'worker' id string")
        now = time.time()
        worker = self.workers.get(worker_id)
        if worker is None:
            worker = self.workers[worker_id] = WorkerInfo(
                id=worker_id, first_seen=now, last_seen=now)
        worker.last_seen = now
        grants: List[Dict[str, object]] = []
        for _ in range(max(1, int(capacity))):
            job_hash = self._next_queued()
            if job_hash is None:
                break
            grants.append(self._lease_out(job_hash, worker))
        return grants

    def _next_queued(self) -> Optional[str]:
        """Pop the next grantable hash from the queue's pending FIFO."""
        pending = self.queue._pending
        if pending is None:
            return None
        while True:
            try:
                job_hash = pending.get_nowait()
            except asyncio.QueueEmpty:
                return None
            entry = self.queue._jobs.get(job_hash)
            if entry is not None and entry.state == QUEUED:
                return job_hash
            # cancelled, adopted or superseded while pending: skip

    def _lease_out(self, job_hash: str,
                   worker: WorkerInfo) -> Dict[str, object]:
        entry = self.queue._jobs[job_hash]
        lease = Lease(
            id=f"l{next(self._lease_seq):04d}-{self._lease_tag}",
            job_hash=job_hash, worker=worker.id, ttl=self.ttl,
            attempt=self._expiries.get(job_hash, 0) + 1,
            granted_at=time.time(),
            deadline=time.monotonic() + self.ttl)
        self.leases[lease.id] = lease
        worker.leases.add(lease.id)
        self.granted += 1
        _OBS_LEASES_GRANTED.inc()
        self.queue._begin(entry, worker=worker.id, lease=lease.id,
                          attempt=lease.attempt)
        grant = {
            "lease": lease.id,
            "hash": job_hash,
            "ttl": self.ttl,
            "attempt": lease.attempt,
            "label": entry.job.label,
            "job": job_to_wire(entry.job),
        }
        if entry.trace is not None:
            # Trace context rides the grant beside the job spec — never
            # inside it, which would perturb content hashes.
            grant["trace"] = entry.trace.to_wire()
        return grant

    # -- heartbeat ----------------------------------------------------------

    def heartbeat(self, lease_id: str) -> Dict[str, object]:
        """Renew a lease's TTL; ``ok=False`` means the lease is gone."""
        lease = self.leases.get(lease_id)
        if lease is None:
            return {"ok": False, "lease": lease_id,
                    "reason": "unknown or expired lease (the job has been "
                              "requeued or completed elsewhere)"}
        lease.deadline = time.monotonic() + lease.ttl
        lease.renewals += 1
        _OBS_LEASE_RENEWALS.inc()
        worker = self.workers.get(lease.worker)
        if worker is not None:
            worker.last_seen = time.time()
        return {"ok": True, "lease": lease_id, "ttl": lease.ttl}

    # -- completion ---------------------------------------------------------

    def complete(self, lease_id: str,
                 payload: Dict[str, object]) -> Dict[str, object]:
        """Accept a worker's result/failure upload for a lease.

        A fresh lease completes the job (result published to the store
        first).  A stale lease — expired and reaped before the upload
        arrived — still publishes its (valid, content-addressed) result,
        and if the job is still waiting to be re-granted it is adopted
        directly; otherwise the upload is just counted.
        """
        if not isinstance(payload, dict):
            raise FabricError("completion payload must be a JSON object")
        ok = bool(payload.get("ok"))
        result = self._parse_result(payload) if ok else None
        self._stitch_spans(payload)
        lease = self.leases.pop(lease_id, None)
        if lease is None:
            return self._complete_stale(lease_id, payload, result)
        worker = self.workers.get(lease.worker)
        if worker is not None:
            worker.leases.discard(lease_id)
            worker.last_seen = time.time()
        entry = self.queue._jobs.get(lease.job_hash)
        if entry is None or entry.state != RUNNING:
            return self._complete_stale(lease_id, payload, result)
        if ok:
            self._publish(entry, result, payload)
            self.completed += 1
            _OBS_COMPLETED.inc()
            if worker is not None:
                worker.completed += 1
        else:
            # The worker's pool already ran the full supervised ladder
            # (retries, crash and timeout recovery, degradation); an
            # uploaded failure is final.
            failure = payload.get("failure")
            failure = dict(failure) if isinstance(failure, dict) else {
                "kind": "exception", "message": "worker reported failure"}
            failure.setdefault("kind", "exception")
            failure["worker"] = lease.worker
            self.queue._conclude(entry, error=failure, attempts=int(
                failure.get("attempts", lease.attempt)))
            self.remote_failures += 1
            _OBS_REMOTE_FAILURES.inc()
            if worker is not None:
                worker.failed += 1
        self._expiries.pop(lease.job_hash, None)
        return {"ok": True, "stale": False}

    def _parse_result(self, payload: Dict[str, object]) -> KernelRunResult:
        """The uploaded result text, checked: it must parse into the keys
        ``to_json_dict`` writes, and ``from_json_dict`` must accept it."""
        try:
            raw = json.loads(payload.get("result"))  # a dict: TypeError
            unknown = raw.keys() - _RESULT_KEYS
            if unknown:
                raise ValueError(f"unknown keys {sorted(unknown)}")
            return KernelRunResult.from_json_dict(raw)
        except Exception as exc:  # noqa: BLE001 - wire data, anything goes
            raise FabricError(f"completion carries an invalid result "
                              f"payload: {exc}") from None

    def _complete_stale(self, lease_id: str, payload: Dict[str, object],
                        result: Optional[KernelRunResult]
                        ) -> Dict[str, object]:
        """Handle an upload whose lease already expired or was superseded."""
        self.stale_completions += 1
        _OBS_STALE_UPLOADS.inc()
        job_hash = payload.get("hash")
        entry = (self.queue._jobs.get(job_hash)
                 if isinstance(job_hash, str) else None)
        if result is not None and entry is not None:
            if entry.state == QUEUED:
                # Reaped and requeued but not re-granted yet: adopt the
                # result instead of simulating it again (the pending FIFO
                # skips the hash once it is done).
                self._publish(entry, result, payload)
                self.adopted_results += 1
                _OBS_ADOPTED.inc()
                self._expiries.pop(entry.hash, None)
            elif self.queue.store is not None:
                # Content-addressed and deterministic: publishing a stale
                # result is always safe, and future submits hit the store.
                self.queue.store.save(entry.job, result, payload["result"])
        return {"ok": True, "stale": True, "lease": lease_id}

    def _stitch_spans(self, payload: Dict[str, object]) -> None:
        """Fold worker-uploaded span records into their sweeps' traces."""
        spans = payload.get("spans")
        if not isinstance(spans, list) or not spans:
            return
        by_trace: Dict[str, List[Dict[str, object]]] = {}
        for span in spans:
            if isinstance(span, dict) and span.get("trace"):
                by_trace.setdefault(str(span["trace"]), []).append(span)
        for trace_id, group in by_trace.items():
            self.queue.add_remote_spans(trace_id, group)

    def _publish(self, entry, result: KernelRunResult,
                 payload: Dict[str, object]) -> None:
        """Publish to the store, then mark done and fan out (crash-safe).

        The store entry and the queue keep the uploaded text as it is.
        """
        text = payload["result"]
        if self.queue.store is not None:
            self.queue.store.save(entry.job, result, text)
        self.queue._conclude(entry, result=result, text=text,
                             attempts=int(payload.get("attempts", 1)),
                             degraded=bool(payload.get("degraded", False)))

    # -- expiry -------------------------------------------------------------

    async def _reap_forever(self) -> None:
        interval = max(0.05, self.ttl / 4.0)
        while True:
            await asyncio.sleep(interval)
            self.reap()

    def reap(self, now: Optional[float] = None) -> int:
        """Expire overdue leases; returns how many leases were reaped.

        A node that lets *one* lease lapse is treated as dead wholesale:
        every lease it holds is expired together, so its other jobs requeue
        at once instead of waiting out their own TTLs.
        """
        now = time.monotonic() if now is None else now
        dead_workers = {lease.worker for lease in self.leases.values()
                        if lease.deadline <= now}
        if not dead_workers:
            return 0
        victims = [lease for lease in self.leases.values()
                   if lease.worker in dead_workers]
        for lease in victims:
            self.leases.pop(lease.id, None)
            worker = self.workers.get(lease.worker)
            if worker is not None:
                worker.leases.discard(lease.id)
                worker.expired += 1
            self.expired_leases += 1
            _OBS_LEASES_EXPIRED.inc()
            self._requeue_expired(lease)
        return len(victims)

    def _requeue_expired(self, lease: Lease) -> None:
        """Requeue the job of an expired lease, uncharged — or fail it
        once its leases have expired ``max_attempts + 1`` times."""
        entry = self.queue._jobs.get(lease.job_hash)
        if entry is None or entry.state != RUNNING:
            return  # adopted or cancelled while leased
        expiries = self._expiries.get(lease.job_hash, 0) + 1
        self._expiries[lease.job_hash] = expiries
        if expiries > self.max_attempts:
            self._expiries.pop(lease.job_hash, None)
            self.queue._conclude(entry, attempts=expiries, error={
                "kind": "lease_expired",
                "error_type": "LeaseExpired",
                "message": (f"lease expired {expiries} times (ttl="
                            f"{lease.ttl}s, last worker {lease.worker!r}); "
                            f"the nodes running this job kept dying"),
                "attempts": expiries,
                "worker": lease.worker,
            })
            return
        entry.state = QUEUED
        entry.started_at = None
        entry.started_mono = None
        self.queue._pending.put_nowait(lease.job_hash)
        self.requeues += 1
        _OBS_REQUEUES.inc()
        self.queue._emit(entry, "requeued", worker=lease.worker,
                         lease=lease.id, reason="lease_expired",
                         attempt=lease.attempt)

    # -- health -------------------------------------------------------------

    def live_workers(self) -> List[WorkerInfo]:
        """Workers considered alive: holding leases or recently seen."""
        now = time.time()
        return [w for w in self.workers.values()
                if w.leases or now - w.last_seen <= 3.0 * self.ttl]

    def stats(self) -> Dict[str, object]:
        """Fabric health summary, merged into ``GET /v1/stats``."""
        live = self.live_workers()
        return {
            "lease_ttl": self.ttl,
            "max_attempts": self.max_attempts,
            "workers": {
                "total": len(self.workers),
                "live": len(live),
                "detail": [w.status_dict()
                           for w in sorted(self.workers.values(),
                                           key=lambda w: w.id)],
            },
            "leases_in_flight": len(self.leases),
            "granted": self.granted,
            "completed": self.completed,
            "remote_failures": self.remote_failures,
            "requeues": self.requeues,
            "expired_leases": self.expired_leases,
            "stale_completions": self.stale_completions,
            "adopted_results": self.adopted_results,
        }
