"""Parallel sweep engine: declarative jobs, supervised workers, result store.

The reproduction's full workload — every simulation behind the paper's
tables, figures and ablations — is a list of independent, deterministic
jobs.  This package turns that observation into infrastructure:

* :class:`~repro.sweep.job.SweepJob` — a declarative, content-hashed job spec;
* :mod:`repro.sweep.engine` — ``run_sweep``: always supervised, serially
  in-process or on worker processes (bit-identical either way), with
  per-job progress streaming;
* :mod:`repro.sweep.supervisor` — the supervised worker pool: bounded retry
  with backoff, per-job timeouts, a crash or hang charged to its own job
  (only that job's worker is replaced), and graceful degradation to the
  Python engine;
* :mod:`repro.sweep.faults` — deterministic fault injection
  (``REPRO_FAULT_INJECT``) so every recovery path above is testable;
* :class:`~repro.sweep.store.ResultStore` — a persistent JSON-per-job cache
  under ``.repro_cache/``, keyed by job hash and engine version, making warm
  re-runs of the entire paper near-instant (and crash-interrupted sweeps
  resumable);
* :mod:`repro.sweep.artifacts` — paper-artifact builders and the one-shot
  :func:`~repro.sweep.artifacts.reproduce` pipeline behind
  ``repro reproduce``.
"""

from repro.sweep import faults
from repro.sweep.engine import (
    ON_ERROR_MODES,
    WORKERS_ENV_VAR,
    SweepReport,
    execute_job,
    resolve_workers,
    run_jobs,
    run_sweep,
)
from repro.sweep.faults import FAULT_ENV_VAR, FaultInjector, FaultSpec, InjectedFault
from repro.sweep.job import SweepJob
from repro.sweep.store import DEFAULT_CACHE_DIR, ENGINE_VERSION, ResultStore
from repro.sweep.supervisor import (
    BACKOFF_ENV_VAR,
    RETRIES_ENV_VAR,
    TIMEOUT_ENV_VAR,
    JobFailure,
    RetryPolicy,
    SweepJobError,
)

__all__ = [
    "BACKOFF_ENV_VAR",
    "DEFAULT_CACHE_DIR",
    "ENGINE_VERSION",
    "FAULT_ENV_VAR",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "JobFailure",
    "ON_ERROR_MODES",
    "RETRIES_ENV_VAR",
    "ResultStore",
    "RetryPolicy",
    "SweepJob",
    "SweepJobError",
    "SweepReport",
    "TIMEOUT_ENV_VAR",
    "WORKERS_ENV_VAR",
    "execute_job",
    "faults",
    "resolve_workers",
    "run_jobs",
    "run_sweep",
]
