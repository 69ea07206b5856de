"""Parallel sweep engine: declarative jobs, supervised workers, result store.

The reproduction's full workload — every simulation behind the paper's
tables, figures and ablations — is a list of independent, deterministic
jobs.  This package turns that observation into infrastructure:

* :class:`~repro.sweep.job.SweepJob` — a declarative, content-hashed job spec;
* :mod:`repro.sweep.engine` — ``run_sweep``: always supervised, serially
  in-process or on worker processes (bit-identical either way), with
  per-job progress streaming;
* :mod:`repro.sweep.supervisor` — the supervised worker pool, one job per
  worker, and its one recovery ladder: bounded retry with backoff, per-job
  timeouts, a crash or hang charged to its own job (only that job's worker
  is replaced), and graceful degradation to the Python engine;
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

import importlib

#: Public names and their modules, resolved on first use (PEP 562): job
#: specs and the store load without the simulator, which only the
#: execution paths need.  ``faults`` is a submodule, imported on request.
_LAZY = {
    **dict.fromkeys(("ON_ERROR_MODES", "WORKERS_ENV_VAR", "SweepReport",
                     "execute_job", "resolve_workers", "run_jobs",
                     "run_sweep"), "repro.sweep.engine"),
    **dict.fromkeys(("FAULT_ENV_VAR", "FaultInjector", "FaultSpec",
                     "InjectedFault"), "repro.sweep.faults"),
    "SweepJob": "repro.sweep.job",
    **dict.fromkeys(("DEFAULT_CACHE_DIR", "ENGINE_VERSION", "ResultStore"),
                    "repro.sweep.store"),
    **dict.fromkeys(("RETRIES_ENV_VAR", "TIMEOUT_ENV_VAR", "JobFailure",
                     "RetryPolicy", "SweepJobError"),
                    "repro.sweep.supervisor"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [*_LAZY, "faults"]
