"""Supervised worker processes: the one execution core for every job.

:class:`SupervisedPool` is a long-lived pool of worker processes behind a
streaming ``submit(job, trace=None) -> Future[SingleJobOutcome]``.  Parallel
sweeps (:func:`repro.sweep.engine.run_sweep`), the service queue's local
dispatch (``repro serve``) and the fabric worker (``repro worker``) all run
their jobs on it.  One dispatcher thread forks every worker, initial and
replacement, and lives until :meth:`SupervisedPool.close`.

Each worker owns one duplex pipe and holds at most two jobs: the head of its
list is the job it runs, and the job behind it waits in the pipe so the
worker never idles while the parent handles the previous outcome.  A worker
only ever runs its head job, so every failure a worker cannot report itself
is charged exactly:

* **Crash** — EOF on the pipe (a native segfault, the OOM killer) is charged
  to the head job alone.  Only that worker is joined and replaced; the job
  waiting behind it never started and is requeued uncharged.
* **Timeout** — ``RetryPolicy.timeout_seconds`` bounds one job's in-worker
  attempts together, counted from when its worker could first start it.  An
  overdue worker is killed, joined and replaced the same way.

Workers never outlive their parent: each one closes the parent's pipe ends
it inherited at fork, so an idle worker reads EOF when the parent dies, and
on Linux asks the kernel to SIGKILL it when the dispatcher thread ends,
which also covers a worker stuck inside a job.  ``close()`` ends the
workers at once, also one in the middle of a job.

Inside a worker every job runs through :func:`execute_supervised`, the
single-job ladder the serial sweep path uses too: bounded retry with
exponential backoff for in-band exceptions, and immediate degradation to the
forced Python engine on a structured native-engine fault.  The dispatcher
keeps only the ladder for crashes and timeouts: retry up to
``max_attempts``, then one attempt under the forced Python engine
(:func:`repro.snitch.native.forced_python`, on the theory that the native C
engine is the component most likely to crash or wedge), then a
:class:`JobFailure`.

Failures that survive all of the above become structured :class:`JobFailure`
records carried alongside the partial results, so a sweep of N jobs with one
poisoned job returns N-1 results plus one well-labelled failure instead of
nothing.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait
from typing import Deque, Dict, List, Optional, Sequence

from repro import obs
from repro.result import KernelRunResult
from repro.sweep.job import SweepJob

#: Supervision metrics: every attempt / retry / degradation / fault across
#: all supervised execution in this process and, for timeouts, its pools.
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
                            "Pool workers killed on a job timeout")

#: Per-job wall-clock timeout in seconds (float), e.g. ``REPRO_SWEEP_TIMEOUT=30``.
TIMEOUT_ENV_VAR = "REPRO_SWEEP_TIMEOUT"

#: Maximum attempts per job (int >= 1), e.g. ``REPRO_SWEEP_RETRIES=3``.
RETRIES_ENV_VAR = "REPRO_SWEEP_RETRIES"

#: First backoff pause in seconds (float); doubles per subsequent attempt.
BACKOFF_ENV_VAR = "REPRO_SWEEP_BACKOFF"

#: Jobs a pool worker holds at once: the one it runs and one waiting.
_JOBS_PER_WORKER = 2

#: ``prctl`` option that sets the signal a process gets when its parent
#: thread dies (``<linux/prctl.h>``).
_PR_SET_PDEATHSIG = 1


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


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs: retries, backoff, timeout, degradation.

    ``timeout_seconds`` is *per job*: it bounds the job's in-worker attempts
    together, counted from when its pool worker could first start it.
    ``None`` disables timeouts; the serial sweep path, which runs jobs
    in-process, cannot enforce them.  ``degrade_to_python`` controls
    whether a crashed, timed-out or native-faulting job earns one final
    attempt under the forced Python reference engine.
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
            retry = replace(retry, timeout_seconds=float(timeout))
        return retry

    def backoff_for(self, attempt: int) -> float:
        """Pause before retrying after the ``attempt``-th failure."""
        return self.backoff_seconds * self.backoff_factor ** max(
            0, attempt - 1)


@dataclass
class JobFailure:
    """Structured record of one job that failed for good.

    ``kind`` distinguishes the failure class: ``"exception"`` (an in-band
    Python exception from ``execute_job``), ``"timeout"`` (the job overran
    its wall-clock budget), ``"crash"`` (its worker process died) or
    ``"native_fault"`` (a structured
    :class:`repro.snitch.native.NativeEngineError` from an in-engine guard
    — handled in-band with a degraded retry, never a worker replacement).
    ``engine`` is the engine mode of the *final* attempt: ``"python"`` when
    it ran degraded/forced, ``"auto"`` when the normal native-first
    selection applied.
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
class SingleJobOutcome:
    """What the supervised execution of one job produced.

    Exactly one of ``result`` / ``failure`` is set; ``exception`` carries
    the final raised exception alongside ``failure`` so callers that want
    fail-fast semantics can re-raise the original object (traceback
    intact; in-process execution only).  ``retries`` / ``native_faults`` /
    ``restarts`` (pool workers replaced while running this job) /
    ``timeouts`` are counters for sweep-report aggregation; ``degraded``
    records that the successful attempt ran under the forced Python
    engine.  ``progress`` lists what the ladder did on the way, in order:
    ``{"phase": "retry" | "degraded", "attempt": n, "error": type name}``.
    """

    result: Optional[KernelRunResult] = None
    failure: Optional[JobFailure] = None
    exception: Optional[BaseException] = None
    attempts: int = 1
    degraded: bool = False
    retries: int = 0
    native_faults: int = 0
    restarts: int = 0
    timeouts: int = 0
    progress: List[Dict[str, object]] = field(default_factory=list)


@dataclass
class SupervisionOutcome:
    """What supervision did across one sweep beyond the happy path."""

    failures: List[JobFailure] = field(default_factory=list)
    retries: int = 0
    #: Pool workers killed and replaced after a crash or timeout.
    pool_restarts: int = 0
    timeouts: int = 0
    #: Structured in-engine faults (NativeEngineError) routed in-band.
    native_faults: int = 0
    degraded: List[str] = field(default_factory=list)
    #: label -> attempts, for jobs that eventually succeeded after retries.
    retried: Dict[str, int] = field(default_factory=dict)

    def record(self, index: int, label: str,
               outcome: SingleJobOutcome) -> Optional[KernelRunResult]:
        """Fold one job's outcome in; return its result (None if it failed)."""
        self.retries += outcome.retries
        self.native_faults += outcome.native_faults
        self.pool_restarts += outcome.restarts
        self.timeouts += outcome.timeouts
        if outcome.failure is not None:
            outcome.failure.index = index
            self.failures.append(outcome.failure)
            return None
        if outcome.attempts > 1:
            self.retried[label] = outcome.attempts
        if outcome.degraded:
            self.degraded.append(label)
        return outcome.result


def execute_supervised(job: SweepJob, policy: RetryPolicy, *,
                       attempt: int = 1,
                       force_python: bool = False) -> SingleJobOutcome:
    """Run one job in-process under the full supervision policy.

    This is the single-job core of the serial sweep path and of every pool
    worker: bounded retry with exponential backoff for in-band exceptions,
    and immediate degradation to the forced Python engine on a structured
    :class:`~repro.snitch.native.NativeEngineError` (a deterministic guard
    fault would just fire again natively).  Timeouts and crash recovery
    need worker processes and live in :class:`SupervisedPool`; an injected
    segfault degrades to an in-band exception in-process (see
    :mod:`repro.sweep.faults`).

    ``attempt`` and ``force_python`` say where on the ladder to start: the
    pool passes them when it re-runs a job whose worker crashed or timed out.
    Each retry and degradation is listed in the outcome's ``progress``.
    """
    from repro.snitch import native
    from repro.sweep.engine import execute_job

    retries = 0
    native_faults = 0
    progress: List[Dict[str, object]] = []
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
                    progress.append({"phase": "degraded", "attempt": attempt,
                                     "error": type(exc).__name__})
                    time.sleep(policy.backoff_for(attempt))
                    attempt += 1
                    force_python = True
                    continue
            if (kind == "exception" and not force_python
                    and attempt < policy.max_attempts):
                retries += 1
                _OBS_RETRIES.inc()
                progress.append({"phase": "retry", "attempt": attempt,
                                 "error": type(exc).__name__})
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
                progress=progress,
            )
        else:
            return SingleJobOutcome(result=result, attempts=attempt,
                                    degraded=force_python, retries=retries,
                                    native_faults=native_faults,
                                    progress=progress)


def _die_with_parent(parent: int) -> bool:
    """Have the kernel SIGKILL this worker when its parent dies (Linux).

    The signal fires when the thread that forked the worker exits: the
    pool's dispatcher thread, which joins every worker before it ends.
    Returns False if the parent is already gone.
    """
    if sys.platform.startswith("linux"):
        import ctypes

        # Without prctl, or if it fails, EOF on the pipe still ends an
        # idle worker.
        try:
            prctl = ctypes.CDLL(None).prctl
        except (OSError, AttributeError):
            pass
        else:
            prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
            prctl.restype = ctypes.c_int
            prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL))
    return os.getppid() == parent  # it may have died before the prctl


def _worker_main(conn, policy: RetryPolicy, parent: int,
                 inherited: Sequence) -> None:
    """Pool worker body: run each job sent down ``conn``, send its outcome.

    ``inherited`` are the parent's pipe ends this process got at fork (its
    own, those of the workers forked before it and the dispatcher's wake-up
    pipe); closing them lets a dead parent read as EOF here.  SIGINT is
    ignored: a Ctrl-C reaches the parent, which ends its workers.

    A job submitted with a trace context runs under an ``attempt`` span
    parented to it; the spans recorded for that trace (the attempt and
    everything ``run_kernel`` nests under it) travel back with the outcome.
    """
    for end in inherited:
        end.close()
    if not _die_with_parent(parent):
        return
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        job, attempt, force_python, trace = message
        spans: List[dict] = []
        if trace is None:
            outcome = execute_supervised(job, policy, attempt=attempt,
                                         force_python=force_python)
        else:
            with obs.span("attempt", parent=trace,
                          worker=obs.process_label(), job=job.label,
                          kernel=job.kernel, variant=job.variant):
                outcome = execute_supervised(job, policy, attempt=attempt,
                                             force_python=force_python)
            spans = obs.take_spans(trace.trace_id)
        # The failure record carries the exception's type, text and
        # traceback; the object itself need not survive pickling.
        conn.send((replace(outcome, exception=None), spans))


@dataclass
class _Task:
    """One submitted job and its place on the crash/timeout ladder."""

    job: SweepJob
    future: Future
    trace: Optional[obs.TraceContext] = None
    attempt: int = 1
    force_python: bool = False
    not_before: float = 0.0
    #: What the dispatcher's own ladder did for the job so far.
    ladder: SingleJobOutcome = field(default_factory=SingleJobOutcome)


class _Worker:
    """One worker process, the parent's end of its pipe, and the tasks sent
    down it in order (the head is the one running)."""

    def __init__(self, context, policy: RetryPolicy,
                 inherited: Sequence) -> None:
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, policy, os.getpid(),
                  [self.conn, *inherited]), daemon=True)
        self.process.start()
        child_conn.close()  # so EOF on ``conn`` means the worker died
        self.tasks: Deque[_Task] = deque()
        #: When the head task could first start running.
        self.started = 0.0

    def send(self, task: _Task) -> None:
        if not self.tasks:
            self.started = time.monotonic()
        self.tasks.append(task)
        try:
            self.conn.send((task.job, task.attempt, task.force_python,
                            task.trace))
        except OSError:
            pass  # the worker died: EOF charges its head task

    def stop(self, kill: bool) -> None:
        """Join the process after asking it to exit, or after killing it."""
        if kill:
            self.process.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:
                pass
        self.process.join()
        self.conn.close()


def _resolve(task: _Task, outcome: SingleJobOutcome) -> None:
    """Complete the task's future with ``outcome`` plus the dispatcher's
    own ladder steps for it."""
    outcome.retries += task.ladder.retries
    outcome.restarts += task.ladder.restarts
    outcome.timeouts += task.ladder.timeouts
    outcome.progress[:0] = task.ladder.progress
    try:
        task.future.set_result(outcome)
    except InvalidStateError:
        pass  # cancelled by its submitter in the meantime


class SupervisedPool:
    """Runs jobs on supervised worker processes (see module docs).

    ``submit`` may be called from any thread.  ``close`` ends the workers,
    joins them and the dispatcher thread, and cancels the future of every
    job that has not finished; it is idempotent.
    """

    def __init__(self, workers: int, policy: RetryPolicy) -> None:
        # Fork workers are cheap and inherit the parent's warm caches: load
        # the simulator here, once, not in every worker and replacement.
        import repro.runner  # noqa: F401
        import repro.sweep.engine  # noqa: F401

        self.workers = max(1, int(workers))
        self.policy = policy
        self._context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        self._lock = threading.Lock()
        self._incoming: List[_Task] = []
        self._closed = False
        self._wake_reader, self._wake_writer = self._context.Pipe(
            duplex=False)
        self._wake_pending = False
        self._thread = threading.Thread(target=self._run,
                                        name="repro-pool", daemon=True)
        self._thread.start()

    def submit(self, job: SweepJob,
               trace: Optional[obs.TraceContext] = None) -> Future:
        """Queue ``job``; the future resolves to its
        :class:`SingleJobOutcome` (a failure is an outcome, not an
        exception)."""
        task = _Task(job, Future(), trace)
        with self._lock:
            if self._closed:
                raise RuntimeError("submit on a closed SupervisedPool")
            self._incoming.append(task)
            self._wake()
        return task.future

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._wake()
        self._thread.join()

    def _wake(self) -> None:
        """Wake the dispatcher (caller holds the lock).  At most one
        wake-up byte is ever pending, so the write never blocks."""
        if not self._wake_pending:
            self._wake_pending = True
            self._wake_writer.send_bytes(b"")

    def _take(self, queue: Deque[_Task]) -> bool:
        """Move submitted tasks onto ``queue``; False once closed."""
        with self._lock:
            if self._wake_pending:
                self._wake_reader.recv_bytes()
                self._wake_pending = False
            queue.extend(self._incoming)
            self._incoming.clear()
            return not self._closed

    def _fork(self, workers: List[_Worker]) -> _Worker:
        return _Worker(self._context, self.policy,
                       [worker.conn for worker in workers]
                       + [self._wake_reader, self._wake_writer])

    def _run(self) -> None:
        """Dispatcher thread: fork, feed and supervise the workers."""
        queue: Deque[_Task] = deque()
        workers: List[_Worker] = []
        timeout = self.policy.timeout_seconds
        try:
            for _ in range(self.workers):
                workers.append(self._fork(workers))
            while self._take(queue):
                self._dispatch(queue, workers)
                wait([self._wake_reader]
                     + [worker.conn for worker in workers if worker.tasks],
                     self._wake_after(queue, workers))
                for slot, worker in enumerate(workers):
                    if not worker.tasks:
                        continue
                    if not self._receive(worker):
                        kind = "crash"
                    elif (worker.tasks and timeout is not None
                          and time.monotonic() >= worker.started + timeout):
                        kind = "timeout"
                    else:
                        continue
                    self._fail_head(worker, kind, queue)
                    workers[slot] = self._fork(workers)
        finally:
            with self._lock:
                self._closed = True
                queue.extend(self._incoming)
            for worker in workers:
                worker.stop(kill=bool(worker.tasks))
                queue.extend(worker.tasks)
            for task in queue:
                task.future.cancel()
            self._wake_reader.close()
            self._wake_writer.close()

    def _dispatch(self, queue: Deque[_Task], workers: List[_Worker]) -> None:
        """Top every worker up to two tasks, idle workers first."""
        now = time.monotonic()
        for depth in range(_JOBS_PER_WORKER):
            for worker in workers:
                if len(worker.tasks) != depth:
                    continue
                ready = next((i for i, task in enumerate(queue)
                              if task.not_before <= now), None)
                if ready is None:
                    return
                task = queue[ready]
                del queue[ready]
                worker.send(task)

    def _wake_after(self, queue: Deque[_Task],
                    workers: List[_Worker]) -> Optional[float]:
        """Seconds until the next deadline or backoff expiry (None: none)."""
        times = []
        if self.policy.timeout_seconds is not None:
            times = [worker.started + self.policy.timeout_seconds
                     for worker in workers if worker.tasks]
        if any(len(worker.tasks) < _JOBS_PER_WORKER for worker in workers):
            times.extend(task.not_before for task in queue)
        if not times:
            return None
        return max(0.0, min(times) - time.monotonic())

    def _receive(self, worker: _Worker) -> bool:
        """Take every outcome the worker has sent; False if it died."""
        while worker.tasks and worker.conn.poll():
            try:
                outcome, spans = worker.conn.recv()
            except (EOFError, OSError):
                return False
            task = worker.tasks.popleft()
            worker.started = time.monotonic()
            for span in spans:
                obs.RECORDER.record(span)
            _resolve(task, outcome)
        return True

    def _fail_head(self, worker: _Worker, kind: str,
                   queue: Deque[_Task]) -> None:
        """Kill and join the worker, charge its head task with ``kind``
        (``"crash"`` or ``"timeout"``) and requeue the task waiting behind
        it uncharged — it never started.

        The charged job is retried up to ``max_attempts``, then gets one
        final attempt under the forced Python engine; a failure of that
        attempt is terminal.
        """
        elapsed = time.monotonic() - worker.started
        worker.stop(kill=True)
        head = worker.tasks.popleft()
        queue.extendleft(reversed(worker.tasks))
        head.ladder.restarts += 1
        if kind == "crash":
            error_type = "WorkerCrash"
            message = (f"worker process died (exit code "
                       f"{worker.process.exitcode}) while running this job")
        else:
            head.ladder.timeouts += 1
            _OBS_TIMEOUTS.inc()
            error_type = "TimeoutError"
            message = (f"job exceeded its {self.policy.timeout_seconds}s "
                       f"wall-clock timeout")
        policy = self.policy
        if not head.force_python and (head.attempt < policy.max_attempts
                                      or policy.degrade_to_python):
            head.ladder.retries += 1
            head.force_python = head.attempt >= policy.max_attempts
            head.ladder.progress.append({
                "phase": "degraded" if head.force_python else "retry",
                "attempt": head.attempt, "error": error_type})
            head.not_before = (time.monotonic()
                               + policy.backoff_for(head.attempt))
            head.attempt += 1
            queue.append(head)
            return
        job = head.job
        _resolve(head, SingleJobOutcome(
            failure=JobFailure(
                label=job.label, job_hash=job.content_hash(), kind=kind,
                error_type=error_type, message=message, traceback="",
                attempts=head.attempt,
                engine="python" if head.force_python else "auto",
                elapsed=elapsed),
            attempts=head.attempt))
