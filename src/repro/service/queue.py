"""Async job-queue core: submit / status / result / stream / cancel.

This is the service heart that both the HTTP daemon (:mod:`repro.service
.server`) and the in-process CLI fallback (``repro submit`` without a
server) drive.  It turns the repository's content-hashed
:class:`~repro.sweep.job.SweepJob` + persistent
:class:`~repro.sweep.store.ResultStore` combination into a multi-tenant
memoization layer:

* **Store-dedupe on submit** — a job whose hash is already materialized in
  the store completes instantly as a cache hit, zero simulations.
* **In-flight coalescing** — two clients submitting the same job hash while
  it is queued or running share one execution; the result fans out to every
  subscriber.  A million users asking for Table-1 variants cost one
  simulation per unique hash.
* **Bounded concurrency** — at most ``workers`` jobs execute at once, on
  the worker processes of a :class:`~repro.sweep.supervisor.SupervisedPool`
  that parallel sweeps use too: bounded retry with backoff, degradation to
  the forced Python engine on native guard faults, and a crash or an
  overrun ``REPRO_SWEEP_TIMEOUT`` charged to its own job, whose pool
  worker is replaced while the daemon keeps serving.  Several daemon
  processes can share one store — the advisory-locked atomic publish
  makes that safe.
* **Per-job progress events** — every job emits an ordered event stream
  (``submitted`` → ``running`` → ``progress`` → ``done`` /
  ``failed`` / ``cancelled``) that is appended to the event log of every
  sweep containing the job and fanned out to any number of subscribers
  (the HTTP daemon turns these into Server-Sent Events).

Jobs are keyed by content hash; sweeps are client-visible submission
groups.  Event logs live on the sweep, so a subscriber that connects late
(or reconnects with a ``from_index``) replays history and then follows
live — exactly the contract SSE resumption wants.

The queue is single-loop asyncio: every public method must be called from
the event loop that :meth:`JobQueue.start` ran on.  Simulation work happens
in the pool's worker processes; each outcome comes back to the loop through
the job's future.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import secrets
import time
from dataclasses import dataclass, field
from typing import (AsyncIterator, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro import obs
from repro.result import KernelRunResult
from repro.sweep.job import SweepJob
from repro.sweep.store import ResultStore, encode_result
from repro.sweep.supervisor import RetryPolicy, SupervisedPool

#: Queue metrics: lifetime counters twinning the instance attributes (so
#: they scrape from ``GET /v1/metrics``), plus the two end-to-end latency
#: histograms and the live queue-depth gauge.
_OBS_SUBMITTED = obs.counter("repro_queue_submitted_total",
                             "Jobs submitted (after in-sweep dedupe)")
_OBS_STORE_HITS = obs.counter("repro_queue_store_hits_total",
                              "Submissions served from the persistent store")
_OBS_MEMO_HITS = obs.counter("repro_queue_memo_hits_total",
                             "Submissions served from in-memory results")
_OBS_COALESCED = obs.counter("repro_queue_coalesced_total",
                             "Submissions coalesced onto in-flight jobs")
_OBS_EXECUTED = obs.counter("repro_queue_executed_total",
                            "Jobs executed to completion by this queue")
_OBS_FAILED = obs.counter("repro_queue_failed_total",
                          "Jobs that exhausted supervision and failed")
_OBS_CANCELLED = obs.counter("repro_queue_cancelled_total",
                             "Queued jobs cancelled before execution")
_OBS_WAIT_SECONDS = obs.histogram(
    "repro_queue_wait_seconds", "Queue latency: submit to running")
_OBS_EXEC_SECONDS = obs.histogram(
    "repro_queue_exec_seconds", "Execution latency: running to terminal")
_OBS_PENDING = obs.gauge("repro_queue_pending_jobs",
                         "Jobs waiting in the pending queue right now")


def _percentiles(values: Sequence[float]) -> Dict[str, object]:
    """Exact p50/p95 of a latency sample (sorted nearest-rank)."""
    if not values:
        return {"count": 0, "p50": None, "p95": None}
    ordered = sorted(values)

    def pick(q: float) -> float:
        index = min(len(ordered) - 1,
                    max(0, int(round(q * (len(ordered) - 1)))))
        return round(ordered[index], 6)

    return {"count": len(ordered), "p50": pick(0.50), "p95": pick(0.95)}

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job cannot leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: How the result of a ``done`` job was obtained: ``"executed"`` (simulated
#: by this queue), ``"store"`` (persistent-store hit at submit time) or
#: ``"memo"`` (already terminal in this queue's memory).
SOURCES = ("executed", "store", "memo")

class QueueError(RuntimeError):
    """Misuse of the job queue (unknown ids, not started, closed)."""


@dataclass
class JobEntry:
    """One content-hashed job known to the queue."""

    job: SweepJob
    hash: str
    state: str = QUEUED
    source: str = "executed"
    #: A ``done`` job's result as compact JSON text (its
    #: :meth:`~repro.result.KernelRunResult.to_json_dict` payload), parsed
    #: only when a caller asks for it, and its headline metrics, which
    #: every ``done`` event carries.
    result: Optional[str] = field(default=None, repr=False)
    metrics: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, object]] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Monotonic twins of the wall-clock stamps: latency math must be
    #: immune to wall-clock steps (NTP) on long-lived daemons.
    submitted_mono: float = 0.0
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    #: Sweeps whose event logs this job's events fan out to.
    sweeps: Set[str] = field(default_factory=set)
    #: Total submissions observed (1 = never coalesced).
    submissions: int = 1
    attempts: int = 1
    degraded: bool = False
    cancel_requested: bool = False
    #: The job's *submit span*: minted when the entry is created, shipped
    #: with fabric lease grants so worker attempt spans parent to it; its
    #: own record is written once when the job terminates.
    trace: Optional[obs.TraceContext] = field(default=None, repr=False)
    _span_recorded: bool = field(default=False, repr=False)

    def status_dict(self, include_result: bool = False) -> Dict[str, object]:
        """JSON-safe status payload (``GET /v1/jobs/<hash>``)."""
        payload: Dict[str, object] = {
            "hash": self.hash,
            "label": self.job.label,
            "kernel": self.job.kernel,
            "variant": self.job.variant,
            "state": self.state,
            "source": self.source,
            "submissions": self.submissions,
            "attempts": self.attempts,
            "degraded": self.degraded,
            "cancel_requested": self.cancel_requested,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            payload["error"] = dict(self.error)
        if self.result is not None:
            payload["metrics"] = dict(self.metrics)
            if include_result:
                payload["result"] = json.loads(self.result)
        return payload

    def set_result(self, result: KernelRunResult,
                   text: Optional[str] = None) -> None:
        """Keep ``result`` as text (its :func:`encode_result`, encoded
        here unless given) plus its headline metrics."""
        self.result = encode_result(result) if text is None else text
        self.metrics = {
            "cycles": result.cycles,
            "fpu_util": result.fpu_util,
            "ipc": result.ipc,
            "flops_per_cycle": result.flops_per_cycle,
            "correct": result.correct,
            "engine": result.engine,
        }


@dataclass
class SweepEntry:
    """One client submission: an ordered group of job hashes + event log."""

    id: str
    job_hashes: List[str]
    created_at: float
    events: List[Dict[str, object]] = field(default_factory=list)
    cache_hits: int = 0
    coalesced: int = 0
    cancelled: bool = False
    finished: bool = False
    #: Trace identity of this sweep (one trace per sweep) and its root
    #: span id; ``None`` when telemetry was disabled at submit.
    trace_id: Optional[str] = None
    root_span: Optional[str] = None
    #: Span records uploaded by remote fabric workers for this trace, one
    #: JSON array per upload: they are read only when the trace is asked
    #: for, and as text they hold a fifth of the memory of parsed records
    #: in a daemon that keeps every sweep it served.
    spans: List[str] = field(default_factory=list, repr=False)

    def status_dict(self, queue: "JobQueue") -> Dict[str, object]:
        """JSON-safe sweep summary (``GET /v1/sweeps/<id>``)."""
        jobs = [queue.job_status(job_hash) for job_hash in self.job_hashes]
        states = [job["state"] for job in jobs]
        return {
            "sweep": self.id,
            "state": self.state(queue),
            "created_at": self.created_at,
            "jobs": jobs,
            "counts": {state: states.count(state)
                       for state in (QUEUED, RUNNING, DONE, FAILED,
                                     CANCELLED)},
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "cancelled": self.cancelled,
            "events": len(self.events),
            "trace": self.trace_id,
            "latency": queue.latency_summary(self.job_hashes),
        }

    def state(self, queue: "JobQueue") -> str:
        """Aggregate sweep state derived from member job states."""
        if self.cancelled:
            return CANCELLED
        states = {queue._jobs[h].state for h in self.job_hashes
                  if h in queue._jobs}
        if not states or states <= set(TERMINAL_STATES):
            if FAILED in states:
                return FAILED
            if states == {CANCELLED}:
                return CANCELLED
            return DONE
        return RUNNING if RUNNING in states else QUEUED


class JobQueue:
    """Multi-tenant async front door over the sweep/store machinery.

    ``pool`` executes the jobs of local dispatch: anything with the
    :class:`~repro.sweep.supervisor.SupervisedPool` interface
    (``submit(job, trace) -> Future[SingleJobOutcome]`` and ``close()``).
    By default :meth:`start` creates a pool of ``workers`` processes under
    the ``retry`` policy; :meth:`close` closes whichever pool the queue
    holds.
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 workers: int = 2,
                 retry: Optional[RetryPolicy] = None,
                 dispatch: str = "local",
                 pool: Optional[SupervisedPool] = None) -> None:
        if dispatch not in ("local", "fabric"):
            raise QueueError(f"dispatch must be 'local' or 'fabric', "
                             f"got {dispatch!r}")
        self.store = store
        self.dispatch = dispatch
        self.workers = max(1, int(workers))
        self._retry = retry if retry is not None else RetryPolicy()
        self._jobs: Dict[str, JobEntry] = {}
        self._sweeps: Dict[str, SweepEntry] = {}
        self._sweep_seq = itertools.count(1)
        self._event_seq = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pending: Optional[asyncio.Queue] = None
        self._wake: Optional[asyncio.Event] = None
        self._tasks: List[asyncio.Task] = []
        self._pool = pool
        self._closed = False
        #: Reverse index for stitching worker-uploaded spans: trace id ->
        #: sweep id (one trace per sweep).
        self._trace_to_sweep: Dict[str, str] = {}
        self.started_at = time.time()
        # Lifetime counters (also served by /v1/stats).
        self.submitted = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.executed = 0
        self.failed = 0
        self.cancelled = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "JobQueue":
        """Bind to the running loop and spawn the worker tasks.

        With ``dispatch="fabric"`` no local worker lanes are spawned: the
        pending queue is drained by a :class:`~repro.service.fabric.
        FabricCoordinator` leasing jobs to remote ``repro worker``
        processes instead.
        """
        if self._loop is not None:
            raise QueueError("queue already started")
        self._loop = asyncio.get_running_loop()
        self._pending = asyncio.Queue()
        self._wake = asyncio.Event()
        if self.dispatch == "local":
            if self._pool is None:
                self._pool = SupervisedPool(self.workers, self._retry)
            self._tasks = [self._loop.create_task(self._worker())
                           for _ in range(self.workers)]
        _OBS_PENDING.set_function(
            lambda: self._pending.qsize()
            if self._pending is not None and not self._closed else 0)
        return self

    async def close(self) -> None:
        """Stop the lanes and end the pool's workers, also mid-job."""
        self._closed = True
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._pool is not None:
            self._pool.close()
        # Wake any subscriber still waiting so it can observe closure.
        if self._wake is not None:
            self._wake.set()

    def _require_started(self) -> None:
        if self._loop is None or self._closed:
            raise QueueError("queue is not running (call start(), and not "
                             "after close())")

    # -- submission ---------------------------------------------------------

    async def submit(self, jobs: Sequence[SweepJob]) -> SweepEntry:
        """Register a sweep of jobs; returns its :class:`SweepEntry`.

        Dedupe order per job: persistent store first (instant ``done`` with
        ``source="store"``), then in-memory terminal results
        (``source="memo"``), then coalescing onto a queued/running entry,
        and only then a fresh execution.  Duplicate hashes *within* one
        submission collapse to a single member job.
        """
        self._require_started()
        jobs = list(jobs)
        if not jobs:
            raise QueueError("a sweep needs at least one job")
        sweep = SweepEntry(
            id=f"s{next(self._sweep_seq):04d}-{secrets.token_hex(4)}",
            job_hashes=[], created_at=time.time())
        if obs.enabled():
            sweep.trace_id = obs.new_trace_id()
            sweep.root_span = obs.new_span_id()
            self._trace_to_sweep[sweep.trace_id] = sweep.id
        self._sweeps[sweep.id] = sweep
        for job in jobs:
            job_hash = job.content_hash()
            if job_hash in sweep.job_hashes:
                continue
            sweep.job_hashes.append(job_hash)
            self.submitted += 1
            _OBS_SUBMITTED.inc()
            entry = self._jobs.get(job_hash)
            if entry is not None and entry.state not in (FAILED, CANCELLED):
                entry.submissions += 1
                entry.sweeps.add(sweep.id)
                self._emit(entry, "submitted", sweeps=(sweep.id,),
                           source="memo" if entry.state == DONE
                           else "coalesced")
                if entry.state == DONE:
                    # Already materialized in this queue's memory.
                    self.cache_hits += 1
                    sweep.cache_hits += 1
                    _OBS_MEMO_HITS.inc()
                    self._emit_terminal(entry, sweeps=(sweep.id,))
                else:
                    # Queued or running: share the in-flight execution.
                    self.coalesced += 1
                    sweep.coalesced += 1
                    _OBS_COALESCED.inc()
                    if entry.state == RUNNING:
                        self._emit(entry, "running", sweeps=(sweep.id,))
                continue
            entry = JobEntry(job=job, hash=job_hash,
                             submitted_at=time.time(),
                             submitted_mono=time.monotonic(),
                             sweeps={sweep.id})
            if sweep.trace_id is not None:
                entry.trace = obs.TraceContext(trace_id=sweep.trace_id,
                                               span_id=obs.new_span_id())
            self._jobs[job_hash] = entry
            cached = self.store.load(job) if self.store is not None else None
            if cached is not None:
                entry.state = DONE
                entry.source = "store"
                entry.set_result(cached)
                entry.finished_at = time.time()
                entry.finished_mono = time.monotonic()
                self.cache_hits += 1
                sweep.cache_hits += 1
                _OBS_STORE_HITS.inc()
                self._emit(entry, "submitted", source="store")
                self._emit_terminal(entry)
                self._record_job_span(entry)
            else:
                self._emit(entry, "submitted", source="executed")
                self._pending.put_nowait(job_hash)
        self._maybe_finish_sweeps(sweep.job_hashes)
        return sweep

    # -- queries ------------------------------------------------------------

    def job_status(self, job_hash: str,
                   include_result: bool = False) -> Dict[str, object]:
        """Status payload of one job hash (raises on unknown hashes)."""
        entry = self._jobs.get(job_hash)
        if entry is None:
            raise KeyError(job_hash)
        return entry.status_dict(include_result=include_result)

    def sweep_status(self, sweep_id: str) -> Dict[str, object]:
        """Status payload of one sweep (raises on unknown ids)."""
        return self._get_sweep(sweep_id).status_dict(self)

    def _get_sweep(self, sweep_id: str) -> SweepEntry:
        sweep = self._sweeps.get(sweep_id)
        if sweep is None:
            raise KeyError(sweep_id)
        return sweep

    def latency_summary(self, job_hashes: Optional[Sequence[str]] = None
                        ) -> Dict[str, object]:
        """Exact p50/p95 queue- and execution-latency (seconds).

        Over the given job hashes, or every job this queue has seen.
        Queue latency is submit→running, execution latency is
        running→terminal; both use the monotonic stamps.  Store/memo hits
        never start running, so they appear in neither sample.
        """
        if job_hashes is None:
            entries: List[JobEntry] = list(self._jobs.values())
        else:
            entries = [self._jobs[h] for h in job_hashes if h in self._jobs]
        waits = [entry.started_mono - entry.submitted_mono
                 for entry in entries
                 if entry.started_mono is not None and entry.submitted_mono]
        execs = [entry.finished_mono - entry.started_mono
                 for entry in entries
                 if entry.finished_mono is not None
                 and entry.started_mono is not None]
        return {"queue": _percentiles(waits), "exec": _percentiles(execs)}

    def stats(self) -> Dict[str, object]:
        """Queue health summary (``GET /v1/stats``)."""
        states = [entry.state for entry in self._jobs.values()]
        return {
            "dispatch": self.dispatch,
            "workers": self.workers,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "sweeps": len(self._sweeps),
            "jobs": len(self._jobs),
            "states": {state: states.count(state)
                       for state in (QUEUED, RUNNING, DONE, FAILED,
                                     CANCELLED)},
            "pending": self._pending.qsize() if self._pending else 0,
            "submitted": self.submitted,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "executed": self.executed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "latency": self.latency_summary(),
        }

    # -- tracing ------------------------------------------------------------

    def add_remote_spans(self, trace_id: str,
                         spans: Sequence[Dict[str, object]]) -> int:
        """Stitch spans uploaded by a remote worker into their sweep.

        Returns how many were accepted; spans for unknown traces (an
        upload from before a coordinator restart) are dropped.
        """
        sweep = self._sweeps.get(self._trace_to_sweep.get(trace_id, ""))
        if sweep is None:
            return 0
        accepted = [span for span in spans
                    if isinstance(span, dict) and span.get("trace") == trace_id]
        if accepted:
            sweep.spans.append(json.dumps(accepted))
        return len(accepted)

    def trace_spans(self, sweep_id: str) -> Dict[str, object]:
        """Every span of one sweep's trace: local records + worker uploads.

        Deduplicated by span id (a requeued lease legitimately yields two
        *different* attempt spans; a re-uploaded identical span does not
        appear twice).  Raises ``KeyError`` on unknown sweeps.
        """
        sweep = self._get_sweep(sweep_id)
        spans: List[Dict[str, object]] = []
        seen: Set[str] = set()
        if sweep.trace_id is not None:
            uploaded = [span for upload in sweep.spans
                        for span in json.loads(upload)]
            for span in uploaded + obs.peek_spans(sweep.trace_id):
                span_id = str(span.get("span"))
                if span_id in seen:
                    continue
                seen.add(span_id)
                spans.append(span)
        spans.sort(key=lambda s: float(s.get("ts", 0.0)))
        return {"sweep": sweep.id, "trace": sweep.trace_id, "spans": spans}

    # -- cancellation -------------------------------------------------------

    def cancel(self, sweep_id: str) -> Dict[str, object]:
        """Cancel a sweep: queued member jobs are cancelled outright.

        A queued job shared with a live (uncancelled) sweep keeps running
        for that sweep's benefit — coalescing must never let one tenant
        kill another's work.  Running jobs cannot be aborted mid-simulation;
        they get ``cancel_requested`` and their (valid) result is still
        stored.  Subscribers of this sweep see ``sweep_cancelled`` and the
        stream ends.
        """
        sweep = self._get_sweep(sweep_id)
        cancelled_jobs: List[str] = []
        flagged: List[str] = []
        if not sweep.cancelled:
            sweep.cancelled = True
            for job_hash in sweep.job_hashes:
                entry = self._jobs.get(job_hash)
                if entry is None:
                    continue
                live_elsewhere = any(
                    not self._sweeps[sid].cancelled
                    for sid in entry.sweeps if sid in self._sweeps)
                if entry.state == QUEUED and not live_elsewhere:
                    entry.state = CANCELLED
                    entry.finished_at = time.time()
                    entry.finished_mono = time.monotonic()
                    self.cancelled += 1
                    _OBS_CANCELLED.inc()
                    cancelled_jobs.append(job_hash)
                    self._emit(entry, "cancelled")
                    self._record_job_span(entry)
                elif entry.state in (QUEUED, RUNNING):
                    entry.cancel_requested = True
                    flagged.append(job_hash)
            self._append_event(
                (sweep.id,),
                {"event": "sweep_cancelled", "sweep": sweep.id,
                 "cancelled_jobs": list(cancelled_jobs),
                 "still_running": list(flagged)})
            self._finish_sweep(sweep)
        return {"sweep": sweep.id, "cancelled_jobs": cancelled_jobs,
                "still_running": flagged}

    # -- event stream -------------------------------------------------------

    async def subscribe(self, sweep_id: str, from_index: int = 0
                        ) -> AsyncIterator[Tuple[int, Dict[str, object]]]:
        """Yield ``(index, event)`` for a sweep: history, then live.

        Ends after the ``sweep_done`` event (every sweep eventually gets
        one, including cancelled sweeps).  ``from_index`` resumes a
        dropped stream without replaying what the client already saw; an
        index past the end of a *finished* sweep's log ends immediately
        instead of awaiting events that can never come.
        """
        sweep = self._get_sweep(sweep_id)
        index = max(0, int(from_index))
        while True:
            wake = self._wake
            while index < len(sweep.events):
                event = sweep.events[index]
                yield index, event
                index += 1
                if event.get("event") == "sweep_done":
                    return
            if self._closed or sweep.finished:
                return
            await wake.wait()

    # -- internals ----------------------------------------------------------

    async def _worker(self) -> None:
        """One bounded-concurrency lane: pop hashes, execute on the pool."""
        while True:
            job_hash = await self._pending.get()
            entry = self._jobs.get(job_hash)
            if entry is None or entry.state != QUEUED:
                continue  # cancelled (or superseded) while waiting
            self._begin(entry)
            # The pool runs the job under an attempt span parented to the
            # job's submit span, so locally executed jobs trace exactly
            # like fabric ones; the spans come back with the outcome.
            outcome = await asyncio.wrap_future(
                self._pool.submit(entry.job, entry.trace))
            for detail in outcome.progress:
                self._emit(entry, "progress", detail)
            if outcome.failure is not None:
                self._conclude(entry, error=outcome.failure.to_dict(),
                               attempts=outcome.attempts)
                continue
            self._emit(entry, "progress", phase="simulated", elapsed=round(
                time.monotonic() - entry.started_mono, 4))
            try:
                text = encode_result(outcome.result)
                if self.store is not None:
                    self.store.save(entry.job, outcome.result, text)
            except Exception as exc:  # noqa: BLE001 - fails the job
                self._conclude(entry, error={
                    "kind": "exception", "error_type": type(exc).__name__,
                    "message": str(exc)}, attempts=outcome.attempts)
            else:
                self._conclude(entry, result=outcome.result, text=text,
                               attempts=outcome.attempts,
                               degraded=outcome.degraded)

    def _begin(self, entry: JobEntry, **detail: object) -> None:
        """Mark a queued job running (locally or under a fabric lease)."""
        entry.state = RUNNING
        entry.started_at = time.time()
        entry.started_mono = time.monotonic()
        _OBS_WAIT_SECONDS.observe(entry.started_mono - entry.submitted_mono)
        self._emit(entry, "running", **detail)

    def _conclude(self, entry: JobEntry,
                  result: Optional[KernelRunResult] = None,
                  error: Optional[Dict[str, object]] = None,
                  attempts: int = 1, degraded: bool = False,
                  text: Optional[str] = None) -> None:
        """Finish a running job: ``done`` with ``result`` (and its text,
        if already encoded), or ``failed`` with ``error``; then fan out
        its terminal event."""
        entry.attempts = attempts
        entry.finished_at = time.time()
        entry.finished_mono = time.monotonic()
        if error is None:
            entry.state = DONE
            entry.source = "executed"
            entry.set_result(result, text)
            entry.degraded = degraded
            self.executed += 1
            _OBS_EXECUTED.inc()
        else:
            entry.state = FAILED
            entry.error = error
            self.failed += 1
            _OBS_FAILED.inc()
        if entry.started_mono is not None:  # None: adopted while requeued
            _OBS_EXEC_SECONDS.observe(entry.finished_mono
                                      - entry.started_mono)
        self._emit_terminal(entry)
        self._record_job_span(entry)
        self._maybe_finish_sweeps([entry.hash])

    def _emit(self, entry: JobEntry, event: str,
              detail: Optional[Dict[str, object]] = None,
              sweeps: Optional[Sequence[str]] = None,
              **extra: object) -> None:
        """Append a job event to the logs of its (or the given) sweeps."""
        payload: Dict[str, object] = {
            "event": event,
            "job": entry.hash,
            "label": entry.job.label,
            "state": entry.state,
        }
        if detail:
            payload.update(detail)
        payload.update(extra)
        self._append_event(tuple(sweeps) if sweeps is not None
                           else tuple(entry.sweeps), payload)

    def _emit_terminal(self, entry: JobEntry,
                       sweeps: Optional[Sequence[str]] = None) -> None:
        """Emit the ``done`` / ``failed`` / ``cancelled`` event for a job."""
        if entry.state == DONE:
            self._emit(entry, "done", sweeps=sweeps, source=entry.source,
                       metrics=entry.metrics,
                       attempts=entry.attempts, degraded=entry.degraded)
        elif entry.state == FAILED:
            self._emit(entry, "failed", sweeps=sweeps,
                       error=dict(entry.error or {}))
        elif entry.state == CANCELLED:
            self._emit(entry, "cancelled", sweeps=sweeps)

    def _append_event(self, sweep_ids: Sequence[str],
                      payload: Dict[str, object]) -> None:
        # Both clocks on every event: wall for humans and cross-process
        # correlation, monotonic for latency math immune to clock steps.
        payload = dict(payload, seq=next(self._event_seq), ts=time.time(),
                       ts_mono=time.monotonic())
        for sweep_id in sweep_ids:
            sweep = self._sweeps.get(sweep_id)
            if sweep is not None and not sweep.finished:
                sweep.events.append(payload)
        self._wakeup()

    def _wakeup(self) -> None:
        wake = self._wake
        self._wake = asyncio.Event()
        wake.set()

    def _maybe_finish_sweeps(self, job_hashes: Sequence[str]) -> None:
        """Emit ``sweep_done`` on every sweep whose jobs all terminated."""
        touched: Set[str] = set()
        for job_hash in job_hashes:
            entry = self._jobs.get(job_hash)
            if entry is not None:
                touched |= entry.sweeps
        for sweep_id in touched:
            sweep = self._sweeps.get(sweep_id)
            if sweep is None or sweep.finished or sweep.cancelled:
                continue
            states = {self._jobs[h].state for h in sweep.job_hashes
                      if h in self._jobs}
            if states and states <= set(TERMINAL_STATES):
                self._finish_sweep(sweep)

    def _finish_sweep(self, sweep: SweepEntry) -> None:
        """Terminal ``sweep_done`` event: ends every subscriber's stream."""
        if sweep.finished:
            return
        self._append_event((sweep.id,), {
            "event": "sweep_done",
            "sweep": sweep.id,
            "state": sweep.state(self),
            "cache_hits": sweep.cache_hits,
            "coalesced": sweep.coalesced,
        })
        sweep.finished = True
        if sweep.trace_id is not None and sweep.root_span is not None:
            # The trace's root: one "sweep" span covering submit→done.
            obs.record_span("sweep", sweep.trace_id, sweep.root_span, None,
                            ts=sweep.created_at,
                            dur=max(0.0, time.time() - sweep.created_at),
                            sweep=sweep.id, jobs=len(sweep.job_hashes))

    def _record_job_span(self, entry: JobEntry) -> None:
        """Write the job's submit-span record once, at its first terminal
        transition (its pre-minted span id is what worker attempt spans
        parent to, so the id must exist from submit even though the record
        is only written here, when the duration is known)."""
        if entry.trace is None or entry._span_recorded:
            return
        entry._span_recorded = True
        sweep_id = self._trace_to_sweep.get(entry.trace.trace_id)
        sweep = self._sweeps.get(sweep_id) if sweep_id is not None else None
        parent = sweep.root_span if sweep is not None else None
        finished = entry.finished_at or time.time()
        obs.record_span("submit", entry.trace.trace_id, entry.trace.span_id,
                        parent, ts=entry.submitted_at,
                        dur=max(0.0, finished - entry.submitted_at),
                        job=entry.hash, label=entry.job.label,
                        state=entry.state, source=entry.source)
