"""Supervised sweep executor: one serial path, one parallel path.

The full reproduction workload — every (kernel, variant, configuration) job
behind the paper's tables and figures — is embarrassingly parallel: jobs
share no mutable state and the simulator is deterministic.  ``run_sweep``
consults the persistent :class:`~repro.sweep.store.ResultStore` first,
dedupes identical jobs within one sweep, runs the rest either serially
in-process or on the worker processes of a
:class:`~repro.sweep.supervisor.SupervisedPool`, and streams per-job
progress to an optional callback.

Both paths run every job through the same single-job core
(:func:`~repro.sweep.supervisor.execute_supervised` around
:func:`execute_job`), so serial and parallel sweeps produce bit-identical
metrics; each forked worker inherits the parent's warm codegen /
DMA-utilization caches and keeps warming its own.

Fault tolerance
---------------

Every sweep is supervised, on one recovery ladder
(:meth:`~repro.sweep.supervisor.RetryPolicy.next_step`).  In-band
exceptions are retried with exponential backoff and a structured
native-engine fault degrades to the Python engine, on either path.  The
pool additionally charges a worker crash or an overrun per-job timeout to
the one job that caused it: only that job's worker is replaced, and the job
gets bounded retries and then one degraded forced-Python attempt.  Each
job's outcome is folded straight into the :class:`SweepReport`.
``on_error`` only picks what happens to a job that fails for good:
``"raise"`` (default) raises it, ``"collect"`` returns partial results plus
structured :class:`~repro.sweep.supervisor.JobFailure` records (the failed
slots in ``results`` are ``None``).  ``retry``, ``timeout`` and the
``REPRO_SWEEP_TIMEOUT`` / ``REPRO_SWEEP_RETRIES`` environment variables
only set the policy.  Because every finished job is
persisted to the store as it completes, a crashed or interrupted sweep
resumes by simply re-running — only the missing job hashes execute
(``repro reproduce --resume``).

Deterministic fault injection for all of the above lives in
:mod:`repro.sweep.faults`; :func:`execute_job` consults it on every run.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.result import KernelRunResult
from repro.sweep import faults
from repro.sweep.job import SweepJob
from repro.sweep.store import ResultStore
from repro.sweep.supervisor import (
    JobFailure,
    RetryPolicy,
    SingleJobOutcome,
    SupervisedPool,
    SweepJobError,
    count_outcome,
    execute_supervised,
)

#: Environment variable overriding the default worker count.
WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"

#: Progress callback signature: (done, total, job, source) where source is
#: one of "cache", "serial", "parallel", "failed".
ProgressFn = Callable[[int, int, SweepJob, str], None]

#: Valid ``on_error`` modes: raise the first failed job vs collect
#: structured failures alongside partial results.
ON_ERROR_MODES = ("raise", "collect")


def resolve_workers(workers: Optional[int] = None,
                    num_jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > $REPRO_SWEEP_WORKERS > CPU count.

    When nothing is requested explicitly the CPU count decides, which on a
    single-CPU machine resolves to 1 — i.e. defaulted sweeps automatically
    fall back to the (bit-identical) serial path rather than paying pool
    overhead for a <1x "speedup".  Explicitly requested worker counts are
    honored as-is so tests and benchmarks can force the pool.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    workers = max(1, int(workers))
    if num_jobs is not None:
        workers = min(workers, max(1, num_jobs))
    return workers


def execute_job(job: SweepJob, attempt: int = 1) -> KernelRunResult:
    """Run one job and return its serializable metrics core.

    Serial sweeps and pool workers both call this function, which is what
    makes the two paths bit-identical.  The in-memory cluster detail is
    dropped before the result crosses the process boundary (it is
    re-derivable and only the metrics are consumed downstream).

    ``attempt`` (1-based) is supplied by the supervised retry ladder and
    only consumed by the deterministic fault-injection hook, which this
    function consults on every run (a no-op unless faults are configured).
    """
    faults.maybe_inject(job, attempt=attempt)
    return job.run().without_cluster()


@dataclass
class SweepReport:
    """Results of one sweep plus execution statistics.

    ``parallel`` records whether the worker pool was used; the honest
    ``parallel_effective`` additionally requires more than one CPU to have
    been available — a pool on a single-CPU container interleaves rather
    than overlaps, and reports should not imply otherwise.

    With ``on_error="collect"``, ``results`` slots of failed jobs are
    ``None`` and the corresponding :class:`JobFailure` records (exception
    type, message, traceback, attempts, engine, elapsed) are in
    ``failures``; ``retried`` / ``degraded`` / ``retries`` /
    ``pool_restarts`` (workers replaced) / ``timeouts`` document what
    supervision had to do (:meth:`record` folds in each executed job's
    outcome), and ``quarantined`` counts corrupt store entries set aside
    during the warm-cache pass.
    """

    results: List[Optional[KernelRunResult]]
    jobs: int
    executed: int
    cache_hits: int
    workers: int
    wall_seconds: float
    parallel: bool
    cpu_count: int = 1
    store_root: Optional[str] = None
    job_labels: List[str] = field(default_factory=list, repr=False)
    on_error: str = "raise"
    failures: List[JobFailure] = field(default_factory=list)
    retried: Dict[str, int] = field(default_factory=dict)
    degraded: List[str] = field(default_factory=list)
    retries: int = 0
    pool_restarts: int = 0
    timeouts: int = 0
    #: Structured in-engine guard faults (NativeEngineError) that were
    #: routed in-band — degraded retry, no worker replacement.
    native_faults: int = 0
    quarantined: int = 0

    @property
    def parallel_effective(self) -> bool:
        """Whether pool execution could actually overlap on this machine."""
        return self.parallel and self.cpu_count > 1

    @property
    def ok(self) -> bool:
        """Whether every job produced a result."""
        return not self.failures

    def phase_totals(self) -> Dict[str, float]:
        """Aggregate ``phase_seconds`` across every executed result.

        Sums each phase over all non-``None`` results that carry phase
        timings (telemetry enabled, job actually executed rather than
        served from the store).  Empty when telemetry was off.
        """
        totals: Dict[str, float] = {}
        for result in self.results:
            if result is None:
                continue
            for name, seconds in getattr(result, "phase_seconds",
                                         {}).items():
                totals[name] = totals.get(name, 0.0) + float(seconds)
        return totals

    def record(self, index: int,
               outcome: SingleJobOutcome) -> Optional[KernelRunResult]:
        """Fold the outcome of executed job ``index`` in; return its result
        (``None`` if it failed)."""
        self.retries += outcome.retries
        self.native_faults += outcome.native_faults
        self.pool_restarts += outcome.restarts
        self.timeouts += outcome.timeouts
        if outcome.failure is not None:
            outcome.failure.index = index
            self.failures.append(outcome.failure)
            return None
        label = self.job_labels[index]
        if outcome.attempts > 1:
            self.retried[label] = outcome.attempts
        if outcome.degraded:
            self.degraded.append(label)
        return outcome.result

    def stats(self) -> Dict[str, object]:
        """Summary dictionary for reports and benchmark records."""
        return {
            "jobs": self.jobs,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "workers": self.workers,
            "parallel": self.parallel,
            "parallel_effective": self.parallel_effective,
            "cpu_count": self.cpu_count,
            "wall_seconds": round(self.wall_seconds, 4),
            "store": self.store_root,
            "on_error": self.on_error,
            "failures": [failure.to_dict() for failure in self.failures],
            "retried": dict(self.retried),
            "degraded": list(self.degraded),
            "retries": self.retries,
            "pool_restarts": self.pool_restarts,
            "timeouts": self.timeouts,
            "native_faults": self.native_faults,
            "quarantined": self.quarantined,
        }


def run_sweep(jobs: Sequence[SweepJob], workers: Optional[int] = None,
              store: Optional[ResultStore] = None,
              progress: Optional[ProgressFn] = None, *,
              on_error: str = "raise",
              retry: Optional[RetryPolicy] = None,
              timeout: Optional[float] = None) -> SweepReport:
    """Execute ``jobs``, returning results in input order plus statistics.

    ``store`` is consulted before executing anything and updated with every
    freshly computed result; pass ``None`` to force cold execution.  With
    ``workers`` resolved to 1 (or a single pending job) the sweep runs
    serially in-process — the parallel path produces bit-identical metrics.

    Execution is always supervised (see :mod:`repro.sweep.supervisor`)
    under the policy resolved from ``retry``, a per-job ``timeout`` in
    seconds and the ``REPRO_SWEEP_*`` environment variables.  A job that
    still fails is raised by ``on_error="raise"`` (default) — the original
    exception on the serial path, a :class:`SweepJobError` after the pool
    has finished every other job — or, with ``on_error="collect"``,
    recorded as a structured failure beside the partial results.  The
    serial path runs jobs in-process, so it cannot enforce timeouts or
    survive a crashing job; an injected segfault degrades to an in-band
    exception there.
    """
    if on_error not in ON_ERROR_MODES:
        raise ValueError(f"on_error must be one of {ON_ERROR_MODES}, got "
                         f"{on_error!r}")
    jobs = list(jobs)
    total = len(jobs)
    results: List[Optional[KernelRunResult]] = [None] * total
    start = time.perf_counter()
    done = 0
    progress_warned = False
    quarantined_before = store.quarantined if store is not None else 0

    def report_progress(index: int, source: str) -> None:
        nonlocal done, progress_warned
        done += 1
        if progress is None:
            return
        try:
            progress(done, total, jobs[index], source)
        except Exception as exc:  # noqa: BLE001 - user callback must not
            # kill the sweep; warn once and keep executing jobs.
            if not progress_warned:
                progress_warned = True
                warnings.warn(
                    f"sweep progress callback raised {exc!r}; continuing "
                    f"without aborting (further callback errors are "
                    f"reported silently)", RuntimeWarning, stacklevel=3)

    # Warm-cache pass: satisfy whatever the store already holds.
    cache_hits = 0
    pending: List[int] = []
    for index, job in enumerate(jobs):
        cached = store.load(job) if store is not None else None
        if cached is not None:
            results[index] = cached
            cache_hits += 1
            report_progress(index, "cache")
        else:
            pending.append(index)

    # Dedupe identical jobs: simulate each distinct configuration once.
    first_for_hash: Dict[str, int] = {}
    duplicates: Dict[int, int] = {}
    unique: List[int] = []
    for index in pending:
        job_hash = jobs[index].content_hash()
        if job_hash in first_for_hash:
            duplicates[index] = first_for_hash[job_hash]
        else:
            first_for_hash[job_hash] = index
            unique.append(index)

    workers = resolve_workers(workers, len(unique))
    parallel = workers > 1 and len(unique) > 1
    policy = RetryPolicy.resolve(retry, timeout)
    report = SweepReport(
        results=results,
        jobs=total,
        executed=len(unique),
        cache_hits=cache_hits,
        workers=workers,
        wall_seconds=0.0,
        parallel=parallel,
        cpu_count=os.cpu_count() or 1,
        store_root=str(store.root) if store is not None else None,
        job_labels=[job.label for job in jobs],
        on_error=on_error,
    )

    def finish(index: int, outcome: SingleJobOutcome, source: str) -> None:
        result = report.record(index, outcome)
        if result is None:
            return
        results[index] = result
        if store is not None:
            store.save(jobs[index], result)
        report_progress(index, source)

    if parallel:
        # Results are stored as they arrive, which is what makes resume
        # after an interrupt cheap; close() ends the workers on any exit.
        pool = SupervisedPool(workers, policy)
        try:
            futures = {pool.submit(jobs[index]): index for index in unique}
            for future in as_completed(futures):
                finish(futures[future], future.result(), "parallel")
        finally:
            pool.close()
        if report.failures and on_error == "raise":
            raise SweepJobError(report.failures[0])
    else:
        for index in unique:
            outcome = execute_supervised(jobs[index], policy)
            count_outcome(outcome)  # the pool counts its own jobs
            if outcome.failure is not None and on_error == "raise":
                raise outcome.exception
            finish(index, outcome, "serial")

    failed_indices = {failure.index for failure in report.failures}
    for failure in report.failures:
        report_progress(failure.index, "failed")
    for index, source_index in duplicates.items():
        results[index] = results[source_index]
        report_progress(index, "failed" if source_index in failed_indices
                        else "cache")

    report.wall_seconds = time.perf_counter() - start
    if store is not None:
        report.quarantined = store.quarantined - quarantined_before
    return report


def run_jobs(jobs: Sequence[SweepJob], workers: Optional[int] = None,
             store: Optional[ResultStore] = None,
             progress: Optional[ProgressFn] = None) -> List[KernelRunResult]:
    """Convenience wrapper around :func:`run_sweep` returning just results."""
    return run_sweep(jobs, workers=workers, store=store, progress=progress).results
