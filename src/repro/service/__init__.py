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

from repro.service.client import ServiceClient, ServiceError, configured_url
from repro.service.fabric import (
    DEFAULT_LEASE_TTL,
    FabricCoordinator,
    FabricError,
)
from repro.service.queue import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobEntry,
    JobQueue,
    QueueError,
    SweepEntry,
)
from repro.service.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    TOKEN_ENV_VAR,
    URL_ENV_VAR,
    ReproService,
)
from repro.service.spec import (
    SpecError,
    experiment_to_wire,
    job_from_wire,
    job_to_wire,
    jobs_from_payload,
)
from repro.service.worker import FabricWorker

__all__ = [
    "CANCELLED",
    "DEFAULT_HOST",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_PORT",
    "DONE",
    "FAILED",
    "FabricCoordinator",
    "FabricError",
    "FabricWorker",
    "JobEntry",
    "JobQueue",
    "QUEUED",
    "QueueError",
    "RUNNING",
    "ReproService",
    "ServiceClient",
    "ServiceError",
    "SpecError",
    "SweepEntry",
    "TERMINAL_STATES",
    "TOKEN_ENV_VAR",
    "URL_ENV_VAR",
    "configured_url",
    "experiment_to_wire",
    "job_from_wire",
    "job_to_wire",
    "jobs_from_payload",
]
