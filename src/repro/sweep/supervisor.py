"""Supervised process-pool execution for the sweep engine.

The plain ``ProcessPoolExecutor`` fan-out treats any worker mishap as sweep
death: one exception aborts everything, a hung job stalls forever, and a
single native-engine crash surfaces as ``BrokenProcessPool`` with every
in-flight batch silently discarded.  This module wraps the pool in a
supervision loop with explicit recovery policies:

* **Per-job wall-clock timeouts** — a batch that exceeds its deadline is
  declared hung; since a running pool task cannot be cancelled, the pool is
  killed (workers terminated) and respawned, and every other in-flight batch
  is requeued untouched.
* **Bounded retry with exponential backoff** — transient in-band failures
  (exceptions raised by ``execute_job``) are retried up to
  ``RetryPolicy.max_attempts`` times, with ``backoff_seconds *
  backoff_factor**(attempt-1)`` pauses between attempts.
* **``BrokenProcessPool`` recovery** — when a worker dies (segfault, OOM
  kill), the pool is respawned and the batches that were in flight are
  requeued instead of being lost.
* **Poisoned-batch bisection** — a batch that fails *opaquely* (pool
  breakage or timeout: the worker could not report which job was at fault)
  is split in half and re-run, recursively isolating the culprit job while
  every innocent sibling completes normally.
* **Graceful degradation** — a single job whose run crashed the worker or
  timed out is retried once more under the forced Python reference engine
  (:func:`repro.snitch.native.forced_python`), on the theory that the
  native C engine is the component most likely to crash or wedge; the
  degradation is recorded on the sweep report.

Failures that survive all of the above become structured
:class:`JobFailure` records carried alongside the partial results, so a
sweep of N jobs with one poisoned job returns N-1 results plus one
well-labelled failure instead of nothing.

Workers report per-job outcomes (:func:`execute_batch_supervised`), so an
in-band exception in one job of a batch never discards its siblings —
bisection is only needed for the opaque failure modes.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.runner import KernelRunResult
from repro.sweep.job import SweepJob

#: Supervision metrics: every attempt / retry / degradation / fault across
#: all supervised execution in this process (serial engine path, service
#: queue, fabric workers alike).
_OBS_ATTEMPTS = obs.counter("repro_supervisor_attempts_total",
                            "Supervised job execution attempts")
_OBS_RETRIES = obs.counter("repro_supervisor_retries_total",
                           "Supervised retries after in-band failures")
_OBS_DEGRADATIONS = obs.counter(
    "repro_supervisor_degradations_total",
    "Jobs degraded to the forced Python engine after a native fault")
_OBS_NATIVE_FAULTS = obs.counter(
    "repro_supervisor_native_faults_total",
    "Structured native-engine faults seen by the supervisor")
_OBS_TIMEOUTS = obs.counter("repro_supervisor_timeouts_total",
                            "Supervised pool tasks killed on timeout")

#: Per-job wall-clock timeout in seconds (float), e.g. ``REPRO_SWEEP_TIMEOUT=30``.
TIMEOUT_ENV_VAR = "REPRO_SWEEP_TIMEOUT"

#: Maximum attempts per job (int >= 1), e.g. ``REPRO_SWEEP_RETRIES=3``.
RETRIES_ENV_VAR = "REPRO_SWEEP_RETRIES"

#: First backoff pause in seconds (float); doubles per subsequent attempt.
BACKOFF_ENV_VAR = "REPRO_SWEEP_BACKOFF"

#: Extra seconds of deadline slack per batch, covering dispatch overhead and
#: worker warm-up so a tight per-job timeout does not misfire on the pickling
#: round-trip itself.
_DEADLINE_GRACE = 1.0


class _PoolBroken(Exception):
    """Internal signal: ``pool.submit`` found the pool already broken."""


class SweepJobError(RuntimeError):
    """A supervised sweep in ``on_error="raise"`` mode hit a job failure.

    Carries the underlying :class:`JobFailure` (``.failure``) with the
    original exception type, message and traceback text.
    """

    def __init__(self, failure: "JobFailure") -> None:
        super().__init__(
            f"sweep job {failure.label} failed after {failure.attempts} "
            f"attempt(s) [{failure.kind}]: {failure.error_type}: "
            f"{failure.message}")
        self.failure = failure


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def env_configured() -> bool:
    """Whether any supervision knob is set in the environment."""
    return any(os.environ.get(name, "").strip()
               for name in (TIMEOUT_ENV_VAR, RETRIES_ENV_VAR,
                            BACKOFF_ENV_VAR))


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs: retries, backoff, timeout, degradation.

    ``timeout_seconds`` is *per job*: a batch of k jobs gets ``k *
    timeout_seconds`` of wall clock (plus a fixed dispatch grace) before it
    is declared hung.  ``None`` disables timeouts.  ``degrade_to_python``
    controls whether a crashed or timed-out job earns one final attempt
    under the forced Python reference engine.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    timeout_seconds: Optional[float] = None
    degrade_to_python: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got "
                             f"{self.max_attempts}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(f"timeout_seconds must be positive, got "
                             f"{self.timeout_seconds}")

    @classmethod
    def resolve(cls, retry: Optional["RetryPolicy"] = None,
                timeout: Optional[float] = None) -> "RetryPolicy":
        """Effective policy: explicit policy > env knobs > defaults.

        ``timeout`` (a per-job seconds shortcut accepted by ``run_sweep``)
        overrides the policy's own ``timeout_seconds`` when given.
        """
        if retry is None:
            kwargs = {}
            env_retries = _env_int(RETRIES_ENV_VAR)
            if env_retries is not None:
                kwargs["max_attempts"] = env_retries
            env_backoff = _env_float(BACKOFF_ENV_VAR)
            if env_backoff is not None:
                kwargs["backoff_seconds"] = env_backoff
            env_timeout = _env_float(TIMEOUT_ENV_VAR)
            if env_timeout is not None:
                kwargs["timeout_seconds"] = env_timeout
            retry = cls(**kwargs)
        if timeout is not None:
            retry = RetryPolicy(max_attempts=retry.max_attempts,
                                backoff_seconds=retry.backoff_seconds,
                                backoff_factor=retry.backoff_factor,
                                timeout_seconds=float(timeout),
                                degrade_to_python=retry.degrade_to_python)
        return retry

    def backoff_for(self, attempt: int) -> float:
        """Pause before retrying after the ``attempt``-th failure."""
        return self.backoff_seconds * self.backoff_factor ** max(
            0, attempt - 1)


@dataclass
class JobFailure:
    """Structured record of one job that failed for good.

    ``kind`` distinguishes the failure class: ``"exception"`` (an in-band
    Python exception from ``execute_job``), ``"timeout"`` (the supervision
    deadline fired), ``"crash"`` (the worker process died —
    ``BrokenProcessPool``) or ``"native_fault"`` (a structured
    :class:`repro.snitch.native.NativeEngineError` from an in-engine guard
    — handled in-band with a degraded retry, never a pool respawn).
    ``engine`` is the engine mode of the *final*
    attempt: ``"python"`` when it ran degraded/forced, ``"auto"`` when the
    normal native-first selection applied.
    """

    label: str
    job_hash: str
    kind: str
    error_type: str
    message: str
    traceback: str
    attempts: int
    engine: str
    elapsed: float
    index: int = -1

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly payload for reports."""
        return {
            "label": self.label,
            "job_hash": self.job_hash,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "engine": self.engine,
            "elapsed": round(self.elapsed, 3),
        }


@dataclass
class SupervisionOutcome:
    """What the supervised pool did beyond the happy path."""

    failures: List[JobFailure] = field(default_factory=list)
    retries: int = 0
    pool_restarts: int = 0
    bisections: int = 0
    timeouts: int = 0
    #: Structured in-engine faults (NativeEngineError) routed in-band.
    native_faults: int = 0
    degraded: List[str] = field(default_factory=list)
    #: label -> attempts, for jobs that eventually succeeded after retries.
    retried: Dict[str, int] = field(default_factory=dict)


def execute_batch_supervised(jobs: Sequence[SweepJob], attempt: int = 1,
                             force_python: bool = False
                             ) -> List[Dict[str, object]]:
    """Pool task body: run each job, reporting per-job outcomes.

    Unlike the plain ``execute_batch``, an exception in one job does not
    poison the batch — each job yields either ``{"ok": True, "result": ...}``
    or ``{"ok": False, <error details>}``, so the supervisor can retry
    exactly the failing job.  (Hangs and worker death still swallow the
    whole batch; those are what bisection is for.)  ``force_python`` wraps
    execution in :func:`repro.snitch.native.forced_python` — the degraded
    retry path for native crashes.
    """
    from repro.snitch import native
    from repro.sweep.engine import execute_job

    outcomes: List[Dict[str, object]] = []
    for job in jobs:
        start = time.perf_counter()
        try:
            if force_python:
                with native.forced_python():
                    result = execute_job(job, attempt=attempt)
            else:
                result = execute_job(job, attempt=attempt)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            entry: Dict[str, object] = {
                "ok": False,
                "error_type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback_module.format_exc(),
                "elapsed": time.perf_counter() - start,
                "engine": "python" if (force_python or native.python_forced())
                          else "auto",
            }
            if isinstance(exc, native.NativeEngineError):
                # Structured guard fault: the engine caught its own problem
                # and returned cleanly — route as native_fault so the
                # supervisor degrades in-band instead of suspecting the
                # worker.
                entry["kind"] = "native_fault"
                entry["native"] = {"code": exc.code, "name": exc.name,
                                   "hart": exc.hart, "pc": exc.pc,
                                   "addr": exc.addr}
            outcomes.append(entry)
        else:
            outcomes.append({
                "ok": True,
                "result": result,
                "elapsed": time.perf_counter() - start,
            })
    return outcomes


@dataclass
class SingleJobOutcome:
    """What one in-process supervised execution produced.

    Exactly one of ``result`` / ``failure`` is set; ``exception`` carries
    the final raised exception alongside ``failure`` so callers that want
    fail-fast semantics can re-raise the original object (traceback
    intact).  ``retries`` / ``native_faults`` are counters for sweep-report
    aggregation; ``degraded`` records that the successful attempt ran under
    the forced Python engine.
    """

    result: Optional[KernelRunResult] = None
    failure: Optional[JobFailure] = None
    exception: Optional[BaseException] = None
    attempts: int = 1
    degraded: bool = False
    retries: int = 0
    native_faults: int = 0


#: Optional progress hook for :func:`execute_supervised`:
#: ``report(phase, **detail)`` with phases ``"retry"`` and ``"degraded"``.
ReportFn = Callable[..., None]


def execute_supervised(job: SweepJob, policy: RetryPolicy,
                       report: Optional[ReportFn] = None) -> SingleJobOutcome:
    """Run one job in-process under the full supervision policy.

    This is the single-job core shared by the sweep engine's serial
    supervised path and the service job queue
    (:mod:`repro.service.queue`): bounded retry with exponential backoff
    for in-band exceptions, and immediate degradation to the forced Python
    engine on a structured :class:`~repro.snitch.native.NativeEngineError`
    (a deterministic guard fault would just fire again natively).  Timeouts
    and crash recovery need worker processes and live in
    :class:`SupervisedPool`; an injected segfault degrades to an in-band
    exception in-process (see :mod:`repro.sweep.faults`).

    ``report``, when given, is called as ``report("retry", attempt=n,
    error=...)`` / ``report("degraded", attempt=n, error=...)`` before each
    backoff pause — the service queue fans these out to event subscribers.
    """
    from repro.snitch import native
    from repro.sweep.engine import execute_job

    attempt = 1
    force_python = False
    retries = 0
    native_faults = 0
    while True:
        _OBS_ATTEMPTS.inc()
        start = time.perf_counter()
        try:
            if force_python:
                with native.forced_python():
                    result = execute_job(job, attempt=attempt)
            else:
                result = execute_job(job, attempt=attempt)
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # noqa: BLE001 - recorded for the caller
            kind = "exception"
            if (isinstance(exc, native.NativeEngineError)
                    and not force_python):
                kind = "native_fault"
                _OBS_NATIVE_FAULTS.inc()
                if policy.degrade_to_python:
                    # Deterministic guard fault: retrying natively would
                    # hit it again — go straight to the Python engine.
                    native_faults += 1
                    retries += 1
                    _OBS_DEGRADATIONS.inc()
                    _OBS_RETRIES.inc()
                    if report is not None:
                        report("degraded", attempt=attempt,
                               error=type(exc).__name__)
                    time.sleep(policy.backoff_for(attempt))
                    attempt += 1
                    force_python = True
                    continue
            if (kind == "exception" and not force_python
                    and attempt < policy.max_attempts):
                retries += 1
                _OBS_RETRIES.inc()
                if report is not None:
                    report("retry", attempt=attempt,
                           error=type(exc).__name__)
                time.sleep(policy.backoff_for(attempt))
                attempt += 1
                continue
            return SingleJobOutcome(
                failure=JobFailure(
                    label=job.label,
                    job_hash=job.content_hash(),
                    kind=kind,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback=traceback_module.format_exc(),
                    attempts=attempt,
                    engine="python" if force_python else "auto",
                    elapsed=time.perf_counter() - start,
                ),
                exception=exc,
                attempts=attempt,
                retries=retries,
                native_faults=native_faults,
            )
        else:
            return SingleJobOutcome(result=result, attempts=attempt,
                                    degraded=force_python, retries=retries,
                                    native_faults=native_faults)


@dataclass
class _Task:
    """One unit of pool work: a batch of job indices plus retry state.

    ``attempt`` is meaningful for singleton tasks (retry bookkeeping);
    fresh multi-job batches always carry attempt 1.  ``not_before`` delays
    resubmission for backoff.  ``suspect`` marks a task that was in flight
    when the pool broke: a crash fails *every* in-flight future, so any of
    them may be the culprit — suspects are re-run solo (nothing else in
    flight) without charging an attempt, which makes the next crash
    definitively attributable and exonerates the innocent.
    """

    indices: Tuple[int, ...]
    attempt: int = 1
    force_python: bool = False
    not_before: float = 0.0
    suspect: bool = False


class SupervisedPool:
    """Runs index batches through a worker pool with recovery policies."""

    def __init__(self, jobs: Sequence[SweepJob], workers: int,
                 policy: RetryPolicy, mp_context=None) -> None:
        self.jobs = list(jobs)
        self.workers = max(1, int(workers))
        self.policy = policy
        self.mp_context = mp_context

    # -- pool lifecycle -----------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers,
                                   mp_context=self.mp_context)

    def _kill_pool(self, pool: ProcessPoolExecutor) -> None:
        """Tear a (possibly hung or broken) pool down without waiting.

        Running pool tasks cannot be cancelled, so hung workers are
        terminated outright; ``_processes`` is stable CPython executor
        internals (guarded for absence).
        """
        procs = getattr(pool, "_processes", None)
        processes = list(procs.values()) if procs else []
        for proc in processes:
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 - already-dead workers etc.
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - broken executors may complain
            pass
        for proc in processes:
            try:
                proc.join(timeout=1.0)
            except Exception:  # noqa: BLE001
                pass

    # -- supervision loop ---------------------------------------------------

    def run(self, batches: Sequence[Sequence[int]],
            on_result: Callable[[int, KernelRunResult], None]
            ) -> SupervisionOutcome:
        """Execute all batches; returns the supervision outcome.

        ``on_result(index, result)`` fires in the parent for every
        successful job as soon as its batch reports — the sweep engine uses
        it to persist results incrementally, which is what makes resume
        after an interrupt cheap.  On ``KeyboardInterrupt`` the already
        completed outcomes are flushed, the pool is torn down, and the
        interrupt propagates.
        """
        queue: deque = deque(_Task(tuple(batch)) for batch in batches)
        running: Dict[object, Tuple[_Task, Optional[float]]] = {}
        outcome = SupervisionOutcome()
        pool = self._new_pool()
        try:
            while queue or running:
                now = time.monotonic()
                try:
                    self._submit_eligible(pool, queue, running, now)
                except _PoolBroken:
                    # The pool died between completions (e.g. the breaking
                    # future has not surfaced yet): requeue everything in
                    # flight as suspects and respawn.  The poisoned batch,
                    # if any, will fail attributably when run solo.
                    for task, _deadline in running.values():
                        task.suspect = True
                        queue.append(task)
                    running.clear()
                    self._kill_pool(pool)
                    pool = self._new_pool()
                    outcome.pool_restarts += 1
                    continue
                if not running:
                    # Everything queued is waiting out a backoff pause.
                    pause = min(task.not_before for task in queue) - now
                    if pause > 0:
                        time.sleep(pause)
                    continue
                done, _ = wait(list(running), timeout=self._next_wake(running),
                               return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    task, _deadline = running.pop(future)
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool:
                        broken = True
                        if task.suspect:
                            # Suspects run solo — this crash is provably
                            # this task's own doing.
                            self._opaque_failure(task, "crash", queue,
                                                 outcome)
                        else:
                            # Possibly collateral damage from a poisoned
                            # sibling: re-run solo, no attempt charged.
                            task.suspect = True
                            queue.append(task)
                    except Exception as exc:  # noqa: BLE001 - defensive
                        self._opaque_failure(task, "exception", queue,
                                             outcome, exc)
                    else:
                        self._deliver(task, outcomes, on_result, queue,
                                      outcome)
                if broken:
                    # The whole pool is dead: the remaining in-flight
                    # batches are suspects too (any of them may have been
                    # the killer); requeue them and respawn.
                    for task, _deadline in running.values():
                        task.suspect = True
                        queue.append(task)
                    running.clear()
                    self._kill_pool(pool)
                    pool = self._new_pool()
                    outcome.pool_restarts += 1
                    continue
                hung = [(future, task)
                        for future, (task, deadline) in running.items()
                        if deadline is not None
                        and time.monotonic() >= deadline]
                if hung:
                    # Hung tasks cannot be cancelled: kill the pool, requeue
                    # the innocent in-flight batches, bisect/fail the hung
                    # ones.
                    hung_futures = {future for future, _task in hung}
                    for future, (task, _deadline) in running.items():
                        if future not in hung_futures:
                            queue.append(task)
                    running.clear()
                    outcome.timeouts += len(hung)
                    _OBS_TIMEOUTS.inc(len(hung))
                    for _future, task in hung:
                        self._opaque_failure(task, "timeout", queue, outcome)
                    self._kill_pool(pool)
                    pool = self._new_pool()
                    outcome.pool_restarts += 1
        except KeyboardInterrupt:
            # Drain cleanly: flush outcomes that already arrived, then tear
            # the pool down so no orphan workers keep simulating.  The
            # teardown must run even if the flush is itself interrupted
            # (e.g. a second Ctrl-C mid-flush).
            try:
                for future in list(running):
                    if future.done():
                        task, _deadline = running.pop(future)
                        try:
                            outcomes = future.result(timeout=0)
                        except Exception:  # noqa: BLE001 - broken/poisoned
                            continue
                        self._deliver(task, outcomes, on_result, queue,
                                      outcome, allow_requeue=False)
            finally:
                self._kill_pool(pool)
            raise
        else:
            pool.shutdown(wait=True)
        return outcome

    # -- helpers ------------------------------------------------------------

    def _submit_eligible(self, pool, queue, running, now) -> None:
        """Fill the pool up to one outstanding task per worker.

        No over-subscription: a task sitting in the executor's internal
        queue would burn deadline time without running.  Suspect tasks
        (possible pool-killers) run strictly solo: non-suspects drain in
        parallel first, then suspects go one at a time with nothing else in
        flight, so a repeat crash is attributable with certainty.
        """
        while queue and len(running) < self.workers:
            if any(task.suspect for task, _deadline in running.values()):
                return  # quarantine lane busy: nothing may join it
            task = self._pop_eligible(queue, now, suspects=False)
            solo = False
            if task is None:
                if running:
                    return  # suspects must wait for an empty pool
                task = self._pop_eligible(queue, now, suspects=True)
                if task is None:
                    return
                solo = True
            batch_jobs = [self.jobs[i] for i in task.indices]
            try:
                future = pool.submit(execute_batch_supervised, batch_jobs,
                                     task.attempt, task.force_python)
            except BrokenProcessPool:
                queue.appendleft(task)
                raise _PoolBroken() from None
            deadline = None
            if self.policy.timeout_seconds is not None:
                deadline = (time.monotonic() + _DEADLINE_GRACE
                            + self.policy.timeout_seconds * len(task.indices))
            running[future] = (task, deadline)
            if solo:
                return

    @staticmethod
    def _pop_eligible(queue: deque, now: float,
                      suspects: bool) -> Optional[_Task]:
        """First backoff-elapsed task from the requested lane, else None."""
        for _ in range(len(queue)):
            task = queue.popleft()
            if task.suspect == suspects and task.not_before <= now:
                return task
            queue.append(task)
        return None

    def _next_wake(self, running) -> Optional[float]:
        """Seconds until the nearest deadline (None = wait for completion)."""
        deadlines = [deadline for _task, deadline in running.values()
                     if deadline is not None]
        if not deadlines:
            return None
        return max(0.05, min(deadlines) - time.monotonic())

    def _deliver(self, task: _Task, outcomes, on_result, queue,
                 outcome: SupervisionOutcome, allow_requeue: bool = True
                 ) -> None:
        """Fan a finished batch's per-job outcomes into results/retries."""
        for index, job_outcome in zip(task.indices, outcomes):
            if job_outcome["ok"]:
                label = self.jobs[index].label
                if task.attempt > 1:
                    outcome.retried[label] = task.attempt
                if task.force_python:
                    outcome.degraded.append(label)
                on_result(index, job_outcome["result"])
            elif allow_requeue:
                self._job_failure(index, task,
                                  job_outcome.get("kind", "exception"),
                                  job_outcome, queue, outcome)

    def _opaque_failure(self, task: _Task, kind: str, queue,
                        outcome: SupervisionOutcome,
                        exc: Optional[BaseException] = None) -> None:
        """A batch failed without per-job attribution: bisect or escalate."""
        if len(task.indices) > 1:
            # The batch is proven poisoned but the culprit job is unknown:
            # split and re-run both halves solo (still suspects).
            mid = len(task.indices) // 2
            queue.append(_Task(task.indices[:mid],
                               force_python=task.force_python, suspect=True))
            queue.append(_Task(task.indices[mid:],
                               force_python=task.force_python, suspect=True))
            outcome.bisections += 1
            return
        info = {
            "error_type": type(exc).__name__ if exc is not None else {
                "crash": "BrokenProcessPool", "timeout": "TimeoutError",
            }.get(kind, "RuntimeError"),
            "message": str(exc) if exc is not None else {
                "crash": "worker process died while running this job",
                "timeout": (f"job exceeded its "
                            f"{self.policy.timeout_seconds}s wall-clock "
                            f"timeout"),
            }.get(kind, "batch execution failed"),
            "traceback": "",
            "elapsed": (self.policy.timeout_seconds or 0.0
                        if kind == "timeout" else 0.0),
            "engine": "python" if task.force_python else "auto",
        }
        self._job_failure(task.indices[0], task, kind, info, queue, outcome)

    def _job_failure(self, index: int, task: _Task, kind: str, info,
                     queue, outcome: SupervisionOutcome) -> None:
        """One isolated job failed once: retry, degrade, or record.

        Normal retries come first — a pool crash fails every in-flight
        future, so the first crash/timeout observed for a job may be
        collateral damage from a poisoned sibling batch rather than the
        job's own fault.  Only once ordinary attempts are exhausted does a
        crashing/hanging job earn one final attempt under the forced Python
        engine (the native C engine being the component most likely to
        crash or wedge); a failure of that degraded attempt is terminal.
        """
        now = time.monotonic()
        job = self.jobs[index]
        if task.force_python:
            # The degraded Python attempt was the last resort.
            pass
        elif kind == "native_fault" and self.policy.degrade_to_python:
            # The engine's own guards caught the problem and returned a
            # structured error through the ctypes call: the worker is
            # healthy, the fault is deterministic, and the remedy is known.
            # Degrade straight to the Python engine — in-band, no suspect
            # quarantine, no pool respawn, no bisection.
            outcome.retries += 1
            outcome.native_faults += 1
            queue.append(_Task((index,), attempt=task.attempt + 1,
                               force_python=True,
                               not_before=now
                               + self.policy.backoff_for(task.attempt)))
            return
        elif task.attempt < self.policy.max_attempts:
            # Proven crashers/hangers stay in the solo lane so their next
            # misbehavior cannot take innocent work down with it.
            outcome.retries += 1
            queue.append(_Task((index,), attempt=task.attempt + 1,
                               suspect=kind in ("crash", "timeout"),
                               not_before=now
                               + self.policy.backoff_for(task.attempt)))
            return
        elif (kind in ("crash", "timeout")
              and self.policy.degrade_to_python):
            # Native crash/hang heuristic: one more attempt, Python engine.
            outcome.retries += 1
            queue.append(_Task((index,), attempt=task.attempt + 1,
                               force_python=True, suspect=True,
                               not_before=now
                               + self.policy.backoff_for(task.attempt)))
            return
        outcome.failures.append(JobFailure(
            label=job.label,
            job_hash=job.content_hash(),
            kind=kind,
            error_type=info["error_type"],
            message=info["message"],
            traceback=info.get("traceback", ""),
            attempts=task.attempt,
            engine="python" if task.force_python else info.get("engine",
                                                               "auto"),
            elapsed=float(info.get("elapsed", 0.0)),
            index=index,
        ))
