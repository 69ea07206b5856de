"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.core.kernels import KERNEL_NAMES, TABLE1_KERNELS, get_kernel
from repro.sweep.supervisor import JobFailure, SingleJobOutcome

#: Small tile shapes per kernel that keep simulation-based tests fast while
#: still exercising every loop level (several rows, several planes).
SMALL_TILES = {
    "jacobi_2d": (12, 12),
    "j2d5pt": (12, 12),
    "box2d1r": (12, 12),
    "j2d9pt": (14, 14),
    "j2d9pt_gol": (12, 12),
    "star2d3r": (16, 16),
    "star3d2r": (10, 10, 10),
    "ac_iso_cd": (12, 12, 12),
    "box3d1r": (8, 8, 8),
    "j3d27pt": (8, 8, 8),
    "star3d7pt": (8, 8, 8),
}


def small_tile(name: str):
    """Small-but-valid tile shape for a kernel."""
    return SMALL_TILES[name]


@pytest.fixture(params=sorted(KERNEL_NAMES))
def any_kernel(request):
    """Every registered kernel."""
    return get_kernel(request.param)


@pytest.fixture(params=sorted(TABLE1_KERNELS))
def table1_kernel(request):
    """Every Table-1 kernel."""
    return get_kernel(request.param)


class ThreadPool:
    """Thread-backed stand-in for :class:`~repro.sweep.supervisor.
    SupervisedPool`.

    Runs ``run(job)`` on ``workers`` threads in submission order, under an
    ``attempt`` span parented to the job's trace like a pool worker, so
    queue and fabric-worker tests need neither forks nor simulations.
    ``run`` returns a ``KernelRunResult`` or a ready ``SingleJobOutcome``;
    an exception it raises becomes the outcome's failure.
    """

    def __init__(self, run, workers: int = 1) -> None:
        self.run = run
        self._executor = ThreadPoolExecutor(max_workers=workers)

    def submit(self, job, trace=None):
        return self._executor.submit(self._outcome, job, trace)

    def _outcome(self, job, trace) -> SingleJobOutcome:
        try:
            with obs.span("attempt", parent=trace,
                          worker=obs.process_label(), job=job.label):
                outcome = self.run(job)
        except Exception as exc:  # noqa: BLE001 - the job's own failure
            return SingleJobOutcome(failure=JobFailure(
                label=job.label, job_hash=job.content_hash(),
                kind="exception", error_type=type(exc).__name__,
                message=str(exc), traceback="", attempts=1, engine="auto",
                elapsed=0.0), exception=exc)
        if isinstance(outcome, SingleJobOutcome):
            return outcome
        return SingleJobOutcome(result=outcome)

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)
