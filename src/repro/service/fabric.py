"""Lease-based coordinator core for the distributed sweep fabric.

The moment sweep work leaves one machine, the dominant failure modes stop
being Python exceptions and become dead workers, network partitions and
half-finished jobs.  This module is the coordinator side of the fabric's
answer: **every job a worker holds is a lease** — a grant with an id and a
TTL that the worker must heartbeat to keep.  A worker that dies, hangs or
falls off the network simply stops renewing; the reaper notices the expired
lease and puts the job back in play.  No worker is ever trusted to report
its own death.

A worker may hold several leases at once, so an expired lease cannot say
which of its jobs (if any) killed the node.  The fabric therefore keeps its
own suspect model (a local :class:`~repro.sweep.supervisor.SupervisedPool`
worker runs one job at a time and needs none):

* A lease expiring on a **fresh** job is *not* charged as an attempt — the
  worker may have died for an unrelated reason (its other lease's job
  segfaulted the process, the OOM killer, a ``kill -9``).  The job is
  requeued as a **suspect**.
* A suspect job is only ever granted **solo** — to a worker holding zero
  other leases — so a second death is definitively attributable.  A lease
  expiring on a suspect job *is* charged; after
  :attr:`~repro.sweep.supervisor.RetryPolicy.max_attempts` charges the job
  fails terminally with ``kind="lease_expired"``.
* A suspect that completes successfully is exonerated.

When a worker's lease expires the coordinator treats the whole node as
dead and expires every lease it holds at once — its *other* jobs requeue
as suspects without charges (the innocent-sibling protection that keeps
one dying node from poisoning unrelated work).

Completion is publish-to-store: an uploaded result is saved to the
coordinator's :class:`~repro.sweep.store.ResultStore` before the job is
marked done, so a coordinator restart plus client resubmit is a pure cache
hit.  Results are content-addressed and deterministic, which makes *stale*
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
import secrets
import time
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set

from collections import deque

from repro import obs
from repro.runner import KernelRunResult
from repro.service.queue import DONE, FAILED, QUEUED, RUNNING, JobQueue
from repro.service.spec import job_to_wire

#: Fabric metrics.  The ``repro_queue_*`` lookups resolve to the same
#: instruments the queue module registered (get-or-create by name): a
#: fabric-executed job moves the same executed/failed/latency series a
#: locally executed one does.
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
_OBS_Q_EXECUTED = obs.counter("repro_queue_executed_total")
_OBS_Q_FAILED = obs.counter("repro_queue_failed_total")
_OBS_Q_WAIT_SECONDS = obs.histogram("repro_queue_wait_seconds")
_OBS_Q_EXEC_SECONDS = obs.histogram("repro_queue_exec_seconds")

#: Default lease TTL in seconds: long enough that a heartbeat every TTL/3
#: survives scheduling jitter, short enough that a dead node's work is back
#: in play quickly.
DEFAULT_LEASE_TTL = 10.0

#: Environment override for the lease TTL (``repro serve --fabric``).
TTL_ENV_VAR = "REPRO_FABRIC_TTL"


class FabricError(RuntimeError):
    """Misuse of the fabric coordinator (bad payloads, wrong queue mode)."""


@dataclass
class Lease:
    """One granted job: worker-held ownership with an expiry deadline."""

    id: str
    job_hash: str
    worker: str
    ttl: float
    attempt: int
    suspect: bool
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


@dataclass
class _JobState:
    """Fabric-side per-hash supervision state (attempt charges, suspicion)."""

    attempt: int = 1
    suspect: bool = False


class FabricCoordinator:
    """Grants leases over a ``dispatch="fabric"`` :class:`JobQueue`.

    The coordinator owns the lease table and the reaper; the queue keeps
    owning job/sweep state, event logs and the store.  All methods must be
    called on the queue's event loop (the HTTP server guarantees this).
    """

    def __init__(self, queue: JobQueue, ttl: Optional[float] = None,
                 max_attempts: Optional[int] = None) -> None:
        if queue.dispatch != "fabric":
            raise FabricError("the coordinator needs a JobQueue created "
                              "with dispatch='fabric' (local worker lanes "
                              "would race the lease grants)")
        self.queue = queue
        self.ttl = float(ttl) if ttl is not None else DEFAULT_LEASE_TTL
        if self.ttl <= 0:
            raise FabricError(f"lease ttl must be positive, got {self.ttl}")
        resolved = queue._retry.resolve()
        self.max_attempts = int(max_attempts if max_attempts is not None
                                else resolved.max_attempts)
        self.leases: Dict[str, Lease] = {}
        self.workers: Dict[str, WorkerInfo] = {}
        self._states: Dict[str, _JobState] = {}
        self._requeue: Deque[str] = deque()
        self._lease_seq = itertools.count(1)
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
        """Lease up to ``capacity`` jobs to ``worker_id``.

        Fresh jobs come first, in submission order.  A suspect job is only
        granted alone, to a worker holding no other lease, so that a crash
        while it runs is attributable to it.  A worker already holding a
        suspect lease gets nothing until that lease resolves.
        """
        if not worker_id or not isinstance(worker_id, str):
            raise FabricError("a lease request needs a 'worker' id string")
        now = time.time()
        worker = self.workers.get(worker_id)
        if worker is None:
            worker = self.workers[worker_id] = WorkerInfo(
                id=worker_id, first_seen=now, last_seen=now)
        worker.last_seen = now
        if any(lease.suspect for lease in
               (self.leases[lid] for lid in worker.leases)):
            return []  # quarantine: the suspect must finish solo
        grants: List[Dict[str, object]] = []
        for _ in range(max(1, int(capacity))):
            job_hash = self._next_fresh()
            if job_hash is None:
                break
            grants.append(self._lease_out(job_hash, worker))
        if not grants and not worker.leases:
            job_hash = self._next_suspect()
            if job_hash is not None:
                grants.append(self._lease_out(job_hash, worker))
        return grants

    def _next_fresh(self) -> Optional[str]:
        """Pop the next grantable fresh hash from the queue's pending FIFO."""
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
            # cancelled or superseded while pending: skip, like _worker does

    def _next_suspect(self) -> Optional[str]:
        while self._requeue:
            job_hash = self._requeue.popleft()
            entry = self.queue._jobs.get(job_hash)
            if entry is not None and entry.state == QUEUED:
                return job_hash
        return None

    def _lease_out(self, job_hash: str,
                   worker: WorkerInfo) -> Dict[str, object]:
        entry = self.queue._jobs[job_hash]
        state = self._states.setdefault(job_hash, _JobState())
        lease = Lease(
            id=f"l{next(self._lease_seq):04d}-{secrets.token_hex(3)}",
            job_hash=job_hash, worker=worker.id, ttl=self.ttl,
            attempt=state.attempt, suspect=state.suspect,
            granted_at=time.time(),
            deadline=time.monotonic() + self.ttl)
        self.leases[lease.id] = lease
        worker.leases.add(lease.id)
        self.granted += 1
        _OBS_LEASES_GRANTED.inc()
        entry.state = RUNNING
        entry.started_at = lease.granted_at
        entry.started_mono = time.monotonic()
        _OBS_Q_WAIT_SECONDS.observe(entry.started_mono
                                    - entry.submitted_mono)
        self.queue._emit(entry, "running", worker=worker.id, lease=lease.id,
                         attempt=state.attempt, suspect=state.suspect)
        grant = {
            "lease": lease.id,
            "hash": job_hash,
            "ttl": self.ttl,
            "attempt": state.attempt,
            "suspect": state.suspect,
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
            self._finish_entry(entry, result, payload)
            self.completed += 1
            _OBS_COMPLETED.inc()
            if worker is not None:
                worker.completed += 1
        else:
            # The worker already ran the full supervised retry ladder
            # locally (backoff, degradation); an uploaded failure is final.
            failure = payload.get("failure")
            failure = dict(failure) if isinstance(failure, dict) else {
                "kind": "exception", "message": "worker reported failure"}
            failure.setdefault("kind", "exception")
            failure["worker"] = lease.worker
            entry.state = FAILED
            entry.finished_at = time.time()
            entry.finished_mono = time.monotonic()
            entry.error = failure
            entry.attempts = int(failure.get("attempts", lease.attempt))
            self.queue.failed += 1
            _OBS_Q_FAILED.inc()
            self.remote_failures += 1
            _OBS_REMOTE_FAILURES.inc()
            if worker is not None:
                worker.failed += 1
            if entry.started_mono is not None:
                _OBS_Q_EXEC_SECONDS.observe(entry.finished_mono
                                            - entry.started_mono)
            self.queue._emit_terminal(entry)
            self.queue._record_job_span(entry)
        self._states.pop(lease.job_hash, None)
        self.queue._maybe_finish_sweeps([lease.job_hash])
        return {"ok": True, "stale": False}

    def _parse_result(self, payload: Dict[str, object]) -> KernelRunResult:
        try:
            return KernelRunResult.from_json_dict(payload["result"])
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
            if self.queue.store is not None:
                # Content-addressed and deterministic: publishing a stale
                # result is always safe, and future submits hit the store.
                self.queue.store.save(entry.job, result)
            if entry.state == QUEUED:
                # Reaped and requeued but not re-granted yet: adopt the
                # result instead of simulating it again.
                self._drop_from_requeue(entry.hash)
                self._finish_entry(entry, result, payload)
                self.adopted_results += 1
                _OBS_ADOPTED.inc()
                self._states.pop(entry.hash, None)
                self.queue._maybe_finish_sweeps([entry.hash])
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

    def _drop_from_requeue(self, job_hash: str) -> None:
        try:
            self._requeue.remove(job_hash)
        except ValueError:
            pass

    def _finish_entry(self, entry, result: KernelRunResult,
                      payload: Dict[str, object]) -> None:
        """Publish + mark done + fan out, in that order (crash-safe)."""
        if self.queue.store is not None:
            self.queue.store.save(entry.job, result)
        entry.attempts = int(payload.get("attempts", 1))
        entry.degraded = bool(payload.get("degraded", False))
        entry.state = DONE
        entry.source = "executed"
        entry.result = result
        entry.finished_at = time.time()
        entry.finished_mono = time.monotonic()
        self.queue.executed += 1
        _OBS_Q_EXECUTED.inc()
        if entry.started_mono is not None:
            _OBS_Q_EXEC_SECONDS.observe(entry.finished_mono
                                        - entry.started_mono)
        self.queue._emit_terminal(entry)
        self.queue._record_job_span(entry)

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
        as uncharged suspects instead of waiting out their own TTLs.
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
        entry = self.queue._jobs.get(lease.job_hash)
        if entry is None or entry.state != RUNNING:
            return  # adopted or cancelled while leased
        state = self._states.setdefault(lease.job_hash, _JobState())
        if lease.suspect:
            # The job ran strictly solo: this death is attributable.
            state.attempt += 1
            if state.attempt > self.max_attempts:
                entry.state = FAILED
                entry.finished_at = time.time()
                entry.attempts = state.attempt - 1
                entry.error = {
                    "kind": "lease_expired",
                    "error_type": "LeaseExpired",
                    "message": (f"lease expired {state.attempt - 1} times "
                                f"(ttl={lease.ttl}s, last worker "
                                f"{lease.worker!r}); job killed its worker "
                                f"or the node kept dying"),
                    "attempts": state.attempt - 1,
                    "worker": lease.worker,
                }
                entry.finished_mono = time.monotonic()
                self.queue.failed += 1
                _OBS_Q_FAILED.inc()
                self.queue._emit_terminal(entry)
                self.queue._record_job_span(entry)
                self._states.pop(lease.job_hash, None)
                self.queue._maybe_finish_sweeps([lease.job_hash])
                return
        state.suspect = True
        entry.state = QUEUED
        entry.started_at = None
        entry.started_mono = None
        self._requeue.append(lease.job_hash)
        self.requeues += 1
        _OBS_REQUEUES.inc()
        self.queue._emit(entry, "requeued", worker=lease.worker,
                         lease=lease.id, reason="lease_expired",
                         attempt=state.attempt, suspect=True)

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
            "suspects_queued": len(self._requeue),
            "granted": self.granted,
            "completed": self.completed,
            "remote_failures": self.remote_failures,
            "requeues": self.requeues,
            "expired_leases": self.expired_leases,
            "stale_completions": self.stale_completions,
            "adopted_results": self.adopted_results,
        }
