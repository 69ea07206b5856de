"""Supervised worker processes: the one execution core for every job.

:class:`SupervisedPool` is a long-lived pool of worker processes behind a
streaming ``submit(job, trace=None) -> Future[SingleJobOutcome]``.  Parallel
sweeps (:func:`repro.sweep.engine.run_sweep`), the service queue's local
dispatch (``repro serve``) and the fabric worker (``repro worker``) all run
their jobs on it.  The thread that opens the pool forks the initial
workers, so they allocate from the main thread's malloc arena; one
dispatcher thread, which lives until :meth:`SupervisedPool.close`, feeds
them and forks every replacement.

Each worker owns one duplex pipe and holds exactly one job, the one it
runs.  Submitted jobs wait in the pool's shared queue, so whichever worker
frees first takes the next one, and a freed worker gets its next job before
the finished job's future resolves.  Because a worker only ever holds the
job it runs, every failure a worker cannot report itself is charged
exactly:

* **Crash** — EOF on the pipe (a native segfault, the OOM killer) is charged
  to the worker's job alone.  Only that worker is joined and replaced.
* **Timeout** — ``RetryPolicy.timeout_seconds`` bounds one job's in-worker
  attempts together, counted from when its worker got it.  An overdue
  worker is killed, joined and replaced the same way.

A worker that dies while idle is replaced without charging any job: the
dispatcher watches every worker's pipe, and an idle worker's pipe only
turns readable at EOF.

Workers never outlive their parent: each one closes the parent's pipe ends
it inherited at fork, so an idle worker reads EOF when the parent dies, and
on Linux asks the kernel to SIGKILL it when the thread that forked it ends,
which also covers a worker stuck inside a job.  That thread is the one
that opened the pool for the initial workers, so it must outlive the pool.
``close()`` ends the workers at once, also one in the middle of a job.

The supervision counters are counted from each job's outcome
(:func:`count_outcome`) by the dispatcher or the serial sweep path, never
in a pool worker, whose counts would not reach the parent.

One recovery ladder, :meth:`RetryPolicy.next_step`, decides what follows
every failure, both inside a worker (:func:`execute_supervised`, which the
serial sweep path runs too) and in the dispatcher (a crash or a timeout).
A failed job is retried after an exponential backoff up to
``max_attempts``.  A structured native-engine fault at once, and a crash or
timeout past the attempt limit, earn one attempt under the forced Python
engine (:func:`repro.snitch.native.forced_python`, on the theory that the
native C engine is the component most likely to fault, crash or wedge).
An in-band exception past the limit and any failure under the forced
Python engine are final.

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

#: Supervision metrics: every attempt / retry / degradation / fault of the
#: jobs this process supervised, in-process or on its pools.
_OBS_ATTEMPTS = obs.counter("repro_supervisor_attempts_total",
                            "Supervised job execution attempts")
_OBS_RETRIES = obs.counter("repro_supervisor_retries_total",
                           "Supervised retries and degradations after "
                           "failures")
_OBS_DEGRADATIONS = obs.counter(
    "repro_supervisor_degradations_total",
    "Jobs degraded to the forced Python engine after a failure")
_OBS_NATIVE_FAULTS = obs.counter(
    "repro_supervisor_native_faults_total",
    "Structured native-engine faults seen by the supervisor")
_OBS_TIMEOUTS = obs.counter("repro_supervisor_timeouts_total",
                            "Pool workers killed on a job timeout")

#: Per-job wall-clock timeout in seconds (float), e.g. ``REPRO_SWEEP_TIMEOUT=30``.
TIMEOUT_ENV_VAR = "REPRO_SWEEP_TIMEOUT"

#: Maximum attempts per job (int >= 1), e.g. ``REPRO_SWEEP_RETRIES=3``.
RETRIES_ENV_VAR = "REPRO_SWEEP_RETRIES"

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
    """Supervision knobs: attempts, backoff, timeout.

    ``backoff_seconds`` is the pause before the first retry; it doubles per
    further attempt.  ``timeout_seconds`` is *per job*: it bounds the job's
    in-worker attempts together, counted from when its pool worker got it.
    ``None`` disables timeouts; the serial sweep path, which runs jobs
    in-process, cannot enforce them.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    timeout_seconds: Optional[float] = None

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
            env_timeout = _env_float(TIMEOUT_ENV_VAR)
            if env_timeout is not None:
                kwargs["timeout_seconds"] = env_timeout
            retry = cls(**kwargs)
        if timeout is not None:
            retry = replace(retry, timeout_seconds=float(timeout))
        return retry

    def backoff_for(self, attempt: int) -> float:
        """Pause before retrying after the ``attempt``-th failure."""
        return self.backoff_seconds * 2.0 ** max(0, attempt - 1)

    def next_step(self, kind: str, attempt: int,
                  force_python: bool) -> Optional[str]:
        """The recovery ladder: what follows the ``attempt``-th failure of
        a job, of ``kind`` ``"exception"``, ``"native_fault"``, ``"crash"``
        or ``"timeout"``.

        ``"retry"`` runs the job again as before, ``"degraded"`` runs it
        under the forced Python engine, and ``None`` makes the failure
        final.  A deterministic native guard fault would fire again, so it
        degrades at once; a crash or a timeout degrades once the attempts
        run out.
        """
        if force_python:
            return None
        if kind == "native_fault":
            return "degraded"
        if attempt < self.max_attempts:
            return "retry"
        return "degraded" if kind in ("crash", "timeout") else None


@dataclass
class JobFailure:
    """Structured record of one job that failed for good.

    ``kind`` distinguishes the failure class: ``"exception"`` (an in-band
    Python exception from ``execute_job``), ``"timeout"`` (the job overran
    its wall-clock budget) or ``"crash"`` (its worker process died).  A
    structured :class:`repro.snitch.native.NativeEngineError` from an
    in-engine guard never ends here: it degrades in-band.  ``engine`` is
    the engine mode of the *final* attempt: ``"python"`` when it ran
    degraded/forced, ``"auto"`` when the normal native-first selection
    applied.
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

    def step(self, phase: str, attempt: int, error: str) -> None:
        """Record one rung of the ladder: a ``"retry"`` or ``"degraded"``
        re-run after the ``attempt``-th attempt failed with ``error``."""
        self.retries += 1
        self.progress.append({"phase": phase, "attempt": attempt,
                              "error": error})


def count_outcome(outcome: SingleJobOutcome) -> None:
    """Add one supervised job to this process's supervision counters."""
    _OBS_ATTEMPTS.inc(outcome.attempts)
    _OBS_RETRIES.inc(outcome.retries)
    _OBS_DEGRADATIONS.inc(sum(1 for step in outcome.progress
                              if step["phase"] == "degraded"))
    _OBS_NATIVE_FAULTS.inc(outcome.native_faults)


def execute_supervised(job: SweepJob, policy: RetryPolicy, *,
                       attempt: int = 1,
                       force_python: bool = False) -> SingleJobOutcome:
    """Run one job in-process under the full supervision policy.

    This is the single-job core of the serial sweep path and of every pool
    worker: each in-band failure takes its next step on the ladder of
    :meth:`RetryPolicy.next_step`, after the policy's backoff.  Timeouts
    and crash recovery need worker processes and live in
    :class:`SupervisedPool`; an injected segfault degrades to an in-band
    exception in-process (see :mod:`repro.sweep.faults`).

    ``attempt`` and ``force_python`` say where on the ladder to start: the
    pool passes them when it re-runs a job whose worker crashed or timed out.
    Each retry and degradation is listed in the outcome's ``progress``.
    The caller counts the outcome (:func:`count_outcome`).
    """
    from repro.snitch import native
    from repro.sweep.engine import execute_job

    outcome = SingleJobOutcome()
    while True:
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
                outcome.native_faults += 1
            step = policy.next_step(kind, attempt, force_python)
            if step is None:
                outcome.failure = JobFailure(
                    label=job.label,
                    job_hash=job.content_hash(),
                    kind=kind,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback=traceback_module.format_exc(),
                    attempts=attempt,
                    engine="python" if force_python else "auto",
                    elapsed=time.perf_counter() - start,
                )
                outcome.exception = exc
                outcome.attempts = attempt
                return outcome
            outcome.step(step, attempt, type(exc).__name__)
            time.sleep(policy.backoff_for(attempt))
            attempt += 1
            force_python = step == "degraded"
        else:
            outcome.result = result
            outcome.attempts = attempt
            outcome.degraded = force_python
            return outcome


def _die_with_parent(parent: int) -> bool:
    """Have the kernel SIGKILL this worker when its parent dies (Linux).

    The signal fires when the thread that forked the worker exits: the
    thread that opened the pool for an initial worker, which must outlive
    the pool, and the dispatcher thread, which joins every worker before
    it ends, for a replacement.  Returns False if the parent is already
    gone.
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
    """One worker process, the parent's end of its pipe and the one task it
    runs (``None`` while it idles)."""

    def __init__(self, context, policy: RetryPolicy,
                 inherited: Sequence) -> None:
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, policy, os.getpid(),
                  [self.conn, *inherited]), daemon=True)
        self.process.start()
        child_conn.close()  # so EOF on ``conn`` means the worker died
        self.task: Optional[_Task] = None
        #: When the task was sent: its timeout counts from here.
        self.started = 0.0

    def send(self, task: _Task) -> None:
        self.task = task
        self.started = time.monotonic()
        try:
            self.conn.send((task.job, task.attempt, task.force_python,
                            task.trace))
        except OSError:
            pass  # the worker died: EOF charges the task

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
    own ladder steps for it, and count it."""
    outcome.retries += task.ladder.retries
    outcome.restarts += task.ladder.restarts
    outcome.timeouts += task.ladder.timeouts
    outcome.progress[:0] = task.ladder.progress
    count_outcome(outcome)
    try:
        task.future.set_result(outcome)
    except InvalidStateError:
        pass  # cancelled by its submitter in the meantime


class SupervisedPool:
    """Runs jobs on supervised worker processes (see module docs).

    The constructor forks the initial workers on the calling thread, which
    must outlive the pool: on Linux a worker is SIGKILLed when the thread
    that forked it ends.  ``submit`` may be called from any thread.
    ``close`` ends the workers, joins them and the dispatcher thread, and
    cancels the future of every job that has not finished; it is
    idempotent.
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
        # Forked before the dispatcher thread exists, the initial workers
        # keep allocating from the main arena, not from that thread's.
        self._workers: List[_Worker] = []
        try:
            for _ in range(self.workers):
                self._workers.append(self._fork(self._workers))
        except BaseException:
            for worker in self._workers:
                worker.stop(kill=True)
            self._wake_reader.close()
            self._wake_writer.close()
            raise
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
        """Dispatcher thread: feed and supervise the workers, fork
        replacements."""
        queue: Deque[_Task] = deque()
        workers = self._workers
        timeout = self.policy.timeout_seconds
        try:
            while self._take(queue):
                self._dispatch(queue, workers)
                wait([self._wake_reader]
                     + [worker.conn for worker in workers],
                     self._wake_after(queue, workers))
                finished = []
                for slot, worker in enumerate(workers):
                    task = worker.task
                    if task is None:
                        self._replace_if_dead(workers, slot)
                        continue
                    if worker.conn.poll():
                        try:
                            outcome, spans = worker.conn.recv()
                        except (EOFError, OSError):
                            kind = "crash"
                        else:
                            worker.task = None
                            finished.append((task, outcome, spans))
                            continue
                    elif (timeout is not None
                          and time.monotonic() >= worker.started + timeout):
                        kind = "timeout"
                    else:
                        continue
                    outcome = self._charge(worker, kind, queue)
                    if outcome is not None:
                        finished.append((task, outcome, []))
                    workers[slot] = self._fork(workers)
                # Freed workers take their next jobs first: resolving a
                # future wakes its submitter, which competes for the GIL.
                self._dispatch(queue, workers)
                for task, outcome, spans in finished:
                    for span in spans:
                        obs.RECORDER.record(span)
                    _resolve(task, outcome)
        finally:
            with self._lock:
                self._closed = True
                queue.extend(self._incoming)
            for worker in workers:
                worker.stop(kill=worker.task is not None)
                if worker.task is not None:
                    queue.append(worker.task)
            for task in queue:
                task.future.cancel()
            self._wake_reader.close()
            self._wake_writer.close()

    def _replace_if_dead(self, workers: List[_Worker], slot: int) -> _Worker:
        """The idle worker in ``slot``, replaced first if it died.

        An idle worker sends nothing, so a readable pipe is EOF: it died
        (the OOM killer, a stray signal) with no job to charge.
        """
        worker = workers[slot]
        if worker.conn.poll():
            worker.stop(kill=True)
            worker = workers[slot] = self._fork(workers)
        return worker

    def _dispatch(self, queue: Deque[_Task], workers: List[_Worker]) -> None:
        """Hand every idle worker the first task whose backoff is over."""
        now = time.monotonic()
        for slot, worker in enumerate(workers):
            if worker.task is not None:
                continue
            ready = next((i for i, task in enumerate(queue)
                          if task.not_before <= now), None)
            if ready is None:
                return
            task = queue[ready]
            del queue[ready]
            self._replace_if_dead(workers, slot).send(task)

    def _wake_after(self, queue: Deque[_Task],
                    workers: List[_Worker]) -> Optional[float]:
        """Seconds until the next deadline or backoff expiry (None: none)."""
        times = []
        if self.policy.timeout_seconds is not None:
            times = [worker.started + self.policy.timeout_seconds
                     for worker in workers if worker.task is not None]
        if any(worker.task is None for worker in workers):
            times.extend(task.not_before for task in queue)
        if not times:
            return None
        return max(0.0, min(times) - time.monotonic())

    def _charge(self, worker: _Worker, kind: str,
                queue: Deque[_Task]) -> Optional[SingleJobOutcome]:
        """Kill and join the worker and charge its task with ``kind``
        (``"crash"`` or ``"timeout"``).

        The task goes back on the queue for its next step on the ladder,
        after the backoff; without one, its final failure is returned.
        """
        elapsed = time.monotonic() - worker.started
        worker.stop(kill=True)
        task = worker.task
        task.ladder.restarts += 1
        if kind == "crash":
            error_type = "WorkerCrash"
            message = (f"worker process died (exit code "
                       f"{worker.process.exitcode}) while running this job")
        else:
            task.ladder.timeouts += 1
            _OBS_TIMEOUTS.inc()
            error_type = "TimeoutError"
            message = (f"job exceeded its {self.policy.timeout_seconds}s "
                       f"wall-clock timeout")
        step = self.policy.next_step(kind, task.attempt, task.force_python)
        if step is not None:
            task.ladder.step(step, task.attempt, error_type)
            task.not_before = (time.monotonic()
                               + self.policy.backoff_for(task.attempt))
            task.attempt += 1
            task.force_python = step == "degraded"
            queue.append(task)
            return None
        job = task.job
        return SingleJobOutcome(
            failure=JobFailure(
                label=job.label, job_hash=job.content_hash(), kind=kind,
                error_type=error_type, message=message, traceback="",
                attempts=task.attempt,
                engine="python" if task.force_python else "auto",
                elapsed=elapsed),
            attempts=task.attempt)
