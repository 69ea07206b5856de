"""Machine-readable environment diagnostics shared by CLI and service.

``repro doctor --json`` and the ``GET /v1/stats`` of a daemon that runs
jobs serve the same payload, built here, so ops tooling has exactly one
schema to parse: native-engine build health (compiler, flags, ABI,
availability, watchdog, per-process run counters) plus result-store health
(:meth:`~repro.sweep.store.ResultStore.stats`).  A fabric coordinator runs
no job and never loads the engine, so its ``/v1/stats`` carries only the
store's part.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import obs
from repro.sweep.store import ResultStore


def doctor_report(store: Optional[ResultStore] = None,
                  service_url: Optional[str] = None) -> Dict[str, object]:
    """The full diagnostics payload: native engine + result store.

    ``store`` is the open store to describe (the daemon passes its own so
    the report reflects the live instance, quarantine counters included);
    without one, as for a daemon run with ``--no-cache``, ``"store"`` is
    ``None`` and nothing is opened.  ``service_url`` additionally
    probes a running sweep daemon's ``/v1/stats`` and folds its queue /
    fabric health into a ``"service"`` section — the daemon itself must
    *not* pass this (it would be an HTTP call back into its own event
    loop); only out-of-process callers like the CLI do.
    """
    from repro.snitch import native

    info = native.build_info()
    payload: Dict[str, object] = {
        "native": info,
        "store": store.stats() if store is not None else None,
        "ok": bool(info["available"]),
        "telemetry": {"enabled": obs.enabled(),
                      "metrics": obs.snapshot()},
    }
    if service_url:
        payload["service"] = _probe_service(service_url)
    return payload


def _probe_service(url: str) -> Dict[str, object]:
    """Fabric/queue health of a (possibly unreachable) daemon."""
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(url, timeout=5.0)
    try:
        stats = client.stats()
    except ServiceError as exc:
        return {"url": url, "reachable": False, "error": str(exc)}
    finally:
        client.close()
    return {
        "url": url,
        "reachable": True,
        "version": stats.get("version"),
        "queue": stats.get("queue"),
        "fabric": stats.get("fabric"),
        "metrics": stats.get("metrics"),
    }
