"""Simulation-as-a-service: async job queue + HTTP sweep daemon.

The package splits the sweep machinery into a reusable service core and a
thin transport:

* :mod:`repro.service.queue` — the async job-queue core (submit / status /
  result / stream / cancel over content-hashed jobs, with store-dedupe on
  submit, in-flight coalescing, bounded concurrency and per-job progress
  events); local dispatch runs jobs on the supervised process pool of
  :mod:`repro.sweep.supervisor`;
* :mod:`repro.service.spec` — wire formats: JSON job lists and Experiment
  specs -> normalized :class:`~repro.sweep.job.SweepJob` lists;
* :mod:`repro.service.server` — the long-running HTTP daemon (stdlib
  asyncio, hand-rolled HTTP/1.1, Server-Sent Events, optional static
  api-key auth) behind ``repro serve``;
* :mod:`repro.service.client` — the blocking stdlib client behind
  ``repro submit`` / ``repro watch``;
* :mod:`repro.service.fabric` — the lease-based coordinator core of the
  distributed sweep fabric (``repro serve --fabric``): grants with TTLs,
  heartbeat renewal, and a reaper that treats an expired lease as node
  death and requeues its jobs uncharged, up to a bound;
* :mod:`repro.service.worker` — the pull-side ``repro worker`` loop:
  lease, execute on the same supervised process pool, publish, heartbeat.

The CLI and the daemon drive the *same* queue core: ``repro submit``
without a configured server falls back to an in-process queue and the
exact code path the daemon runs.
"""

import importlib

#: Public names and their modules, resolved on first use (PEP 562): the
#: client loads without the daemon, and neither loads the simulator.
_LAZY = {
    **dict.fromkeys(("ServiceClient", "ServiceError", "configured_url",
                     "TOKEN_ENV_VAR", "URL_ENV_VAR"),
                    "repro.service.client"),
    **dict.fromkeys(("DEFAULT_LEASE_TTL", "FabricCoordinator",
                     "FabricError"), "repro.service.fabric"),
    **dict.fromkeys(("CANCELLED", "DONE", "FAILED", "QUEUED", "RUNNING",
                     "TERMINAL_STATES", "JobEntry", "JobQueue", "QueueError",
                     "SweepEntry"), "repro.service.queue"),
    **dict.fromkeys(("DEFAULT_HOST", "DEFAULT_PORT", "ReproService"),
                    "repro.service.server"),
    **dict.fromkeys(("SpecError", "experiment_to_wire", "job_from_wire",
                     "job_to_wire", "jobs_from_payload"),
                    "repro.service.spec"),
    "FabricWorker": "repro.service.worker",
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


__all__ = list(_LAZY)
