"""``repro.obs`` — unified telemetry: metrics, tracing, phase profiling.

One import surface for the three pillars:

* :mod:`repro.obs.metrics` — process-wide counters / gauges / histograms
  with Prometheus text exposition (served at ``GET /v1/metrics``).
* :mod:`repro.obs.trace` — span API with cross-process trace contexts and
  Chrome trace-event export (``repro trace``).
* Phase profiling — :func:`phase` / :func:`phase_accumulator` feeding
  ``KernelRunResult.phase_seconds`` (``repro profile``).

All of it is stdlib-only and collapses to near-zero-cost no-ops when
``REPRO_OBS=0`` (see :mod:`repro.obs.config`).  A forked child starts with
fresh locks in the recorder and in every instrument.
"""

import os
import threading

from repro.obs.config import ENV_VAR, enabled, refresh_from_env, set_enabled
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    REGISTRY,
    counter,
    gauge,
    histogram,
    render_prometheus,
    snapshot,
)
from repro.obs.trace import (
    RECORDER,
    SpanRecorder,
    TraceContext,
    chrome_trace,
    current_context,
    new_span_id,
    new_trace_id,
    peek_spans,
    phase,
    phase_accumulator,
    process_label,
    record_span,
    set_process_label,
    span,
    take_spans,
)


def _fresh_locks_after_fork() -> None:
    # A pool worker is forked while other threads of its parent record
    # spans and move counters; a lock one of them held would never be
    # released in the child, where that thread does not exist.
    RECORDER._lock = threading.Lock()
    REGISTRY._lock = threading.Lock()
    for instrument in REGISTRY.instruments():
        instrument._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_locks_after_fork)

__all__ = [
    "ENV_VAR", "enabled", "set_enabled", "refresh_from_env",
    "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "Registry",
    "REGISTRY", "counter", "gauge", "histogram", "render_prometheus",
    "snapshot",
    "RECORDER", "SpanRecorder", "TraceContext", "chrome_trace",
    "current_context", "new_span_id", "new_trace_id", "peek_spans",
    "phase", "phase_accumulator", "process_label", "record_span",
    "set_process_label", "span", "take_spans",
]
