"""Deterministic fault injection for the sweep engine.

Every recovery path of the supervised executor — retry/backoff, per-job
timeouts, replacing a crashed worker and graceful degradation to the Python
engine — needs failures on demand to be testable.  Real segfaults and hangs
are non-deterministic and hostile to CI, so this module provides a
configurable hook that :func:`repro.sweep.engine.
execute_job` consults before running a job: when the job matches an active
:class:`FaultSpec`, the injector misbehaves *on purpose* in one of four
modes:

``raise``
    Raise :class:`InjectedFault` (a permanent, in-band job failure).
``flaky``
    Raise :class:`InjectedFault` for the first ``n`` attempts of the job,
    then succeed (a transient failure; exercises retry/backoff).
``hang``
    Sleep for ``hang_seconds`` (default far beyond any sane per-job
    timeout), then raise — exercises the supervisor's wall-clock timeout
    and worker-kill path without ever blocking forever.
``segfault``
    Die instantly via ``os._exit`` *when running in a pool worker*,
    exactly as a native-engine crash would — the parent sees EOF on the
    worker's pipe.  In the parent process itself (serial sweeps) the mode
    degrades to ``raise`` so a misconfigured test cannot kill the test
    session.
``native``
    Raise a structured :class:`repro.snitch.native.NativeEngineError`
    (code ``bounds``), exactly what an in-engine guard returns through the
    ctypes call — exercises the supervisor's in-band ``native_fault``
    degradation path (no worker replacement).  Usually combined with
    ``engine=native`` so the degraded Python retry runs clean.

Configuration is either programmatic (:func:`install` / :func:`injected`,
inherited by ``fork``-started pool workers) or via the environment variable
:data:`FAULT_ENV_VAR`, e.g.::

    REPRO_FAULT_INJECT="kernel=jacobi_2d:variant=saris:mode=flaky:n=2"

Colon-separated ``key=value`` pairs; ``;`` separates multiple specs.  Keys:
``mode`` (required), ``kernel`` / ``variant`` / ``seed`` (match filters,
omitted = wildcard), ``n`` (flaky: failing attempts), ``hang_seconds``, and
``engine=native`` (inject only while the Python engine is *not* forced, so
a degraded ``REPRO_ENGINE=python`` retry of the same job succeeds — this is
how native-only crashes are modelled).

Node-level modes (the distributed fabric's failure vocabulary):

``worker_kill``
    Die instantly via ``os._exit`` *in a worker process* (a pool worker or
    a ``repro worker`` fabric process) — models a node crash / ``kill -9``.
    In a plain parent process the mode degrades to ``raise``.
``lease_stall``
    Never fired by :func:`maybe_inject`; the fabric worker claims it via
    :func:`claim_node_fault` and responds by suspending heartbeats for the
    leased job and over-holding past the TTL (models a stalled node whose
    lease expires while it still "works").
``net_drop``
    Never fired by :func:`maybe_inject`; the fabric worker claims one token
    per outbound coordinator request and simulates the connection dropping.
    ``n=K`` drops the next K requests (models a transient partition).

For ``worker_kill`` (and node faults generally) "at most ``n`` firings"
must hold *across processes* — two workers sharing one env string must not
each die once when ``n=1``.  Point :data:`STATE_ENV_VAR` at a shared
directory and firings become atomic token claims (``O_EXCL`` file
creation) in that directory; without it, counting falls back to
per-process (documented, test-only) semantics.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

#: Environment variable carrying fault specs (workers inherit the parent's
#: environment, so one setting covers serial, fork and spawn execution).
FAULT_ENV_VAR = "REPRO_FAULT_INJECT"

#: Shared state directory for cross-process at-most-n fault accounting.
STATE_ENV_VAR = "REPRO_FAULT_STATE"

#: Set (to anything non-empty) in a ``repro worker`` fabric process so
#: ``worker_kill`` knows it may die for real there.
FABRIC_WORKER_ENV_VAR = "REPRO_FABRIC_WORKER"

#: Node-level modes interpreted by the distributed fabric.
NODE_MODES = ("worker_kill", "lease_stall", "net_drop")

#: Recognized fault modes.
MODES = ("raise", "flaky", "hang", "segfault", "native") + NODE_MODES

#: Exit status used by injected segfaults (mirrors SIGSEGV's 128+11).
SEGFAULT_EXIT_CODE = 139

#: Exit status used by injected worker kills (mirrors SIGKILL's 128+9).
WORKER_KILL_EXIT_CODE = 137

#: How long an injected hang sleeps before giving up and raising.  Long
#: enough that any reasonable supervision timeout fires first, short enough
#: that an unsupervised run still terminates.
DEFAULT_HANG_SECONDS = 300.0


class InjectedFault(RuntimeError):
    """Deliberate failure raised by the fault-injection hook."""


class FaultConfigError(ValueError):
    """A fault spec (env string or constructor argument) is malformed."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: which jobs to hit and how."""

    mode: str
    kernel: Optional[str] = None
    variant: Optional[str] = None
    seed: Optional[int] = None
    n: int = 1
    engine: Optional[str] = None
    hang_seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise FaultConfigError(
                f"fault mode must be one of {MODES}, got {self.mode!r}")
        if self.n < 1:
            raise FaultConfigError(f"fault n must be >= 1, got {self.n}")
        if self.engine not in (None, "native"):
            raise FaultConfigError(
                f"fault engine filter must be 'native', got {self.engine!r}")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one colon-separated ``key=value`` spec string."""
        fields = {}
        for item in text.split(":"):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep:
                raise FaultConfigError(
                    f"{FAULT_ENV_VAR}: expected key=value, got {item!r}")
            if key in ("mode", "kernel", "variant", "engine"):
                fields[key] = value
            elif key == "seed":
                fields[key] = int(value)
            elif key == "n":
                fields[key] = int(value)
            elif key == "hang_seconds":
                fields[key] = float(value)
            else:
                raise FaultConfigError(
                    f"{FAULT_ENV_VAR}: unknown key {key!r} in {text!r}")
        if "mode" not in fields:
            raise FaultConfigError(
                f"{FAULT_ENV_VAR}: spec {text!r} is missing mode=")
        return cls(**fields)

    def matches(self, job) -> bool:
        """Whether ``job`` (a :class:`~repro.sweep.job.SweepJob`) is targeted."""
        if self.kernel is not None and job.kernel != self.kernel:
            return False
        if self.variant is not None and job.variant != self.variant:
            return False
        if self.seed is not None and job.seed != self.seed:
            return False
        if self.engine == "native" and _python_forced():
            # Models a native-only fault: the degraded REPRO_ENGINE=python
            # retry of the same job runs clean.
            return False
        return True


def _python_forced() -> bool:
    from repro.snitch import native

    return native.python_forced()


def _in_pool_worker() -> bool:
    """True in a process that has a multiprocessing parent (a pool worker)."""
    return multiprocessing.parent_process() is not None


def _in_worker_process() -> bool:
    """True where a fatal injected crash is allowed: a pool worker or a
    ``repro worker`` fabric process (never the coordinating parent)."""
    return (_in_pool_worker()
            or bool(os.environ.get(FABRIC_WORKER_ENV_VAR, "").strip()))


#: Per-process token counts (fallback when no shared state dir is set).
_LOCAL_TOKENS: dict = {}


def _spec_token_key(spec: "FaultSpec") -> str:
    """Stable identity of a spec for cross-process token accounting."""
    parts = [spec.mode]
    for field in ("kernel", "variant", "seed", "engine"):
        value = getattr(spec, field)
        if value is not None:
            parts.append(f"{field}={value}")
    return "-".join(parts).replace("/", "_")


def claim_fault_token(spec: "FaultSpec") -> bool:
    """Claim one of the spec's ``n`` firing tokens; False when exhausted.

    With :data:`STATE_ENV_VAR` pointing at a shared directory the claim is
    an atomic ``O_EXCL`` file creation, so "at most n firings" holds across
    every process sharing the directory.  Without it, each process counts
    its own firings (fine for single-process tests, documented as such).
    """
    key = _spec_token_key(spec)
    state_dir = os.environ.get(STATE_ENV_VAR, "").strip()
    if state_dir:
        for k in range(1, spec.n + 1):
            path = os.path.join(state_dir, f"{key}-{k}.fired")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False  # unwritable state dir: never fire
            os.write(fd, str(os.getpid()).encode("ascii"))
            os.close(fd)
            return True
        return False
    count = _LOCAL_TOKENS.get(key, 0)
    if count >= spec.n:
        return False
    _LOCAL_TOKENS[key] = count + 1
    return True


def claim_node_fault(mode: str, job=None) -> Optional["FaultSpec"]:
    """Claim a node-level fault of ``mode`` (fabric-worker hook).

    Returns the matching spec when one is active, matches ``job`` (when
    given) and still has a firing token; ``None`` otherwise.  This is how
    the fabric worker consults ``lease_stall`` and ``net_drop`` — modes
    that misbehave at the *protocol* layer rather than inside a job.
    """
    if mode not in NODE_MODES:
        raise FaultConfigError(f"not a node-level fault mode: {mode!r}")
    injector = active_injector()
    if injector is None:
        return None
    for spec in injector.specs:
        if spec.mode != mode:
            continue
        if job is not None and not spec.matches(job):
            continue
        if claim_fault_token(spec):
            return spec
    return None


class FaultInjector:
    """Holds a set of :class:`FaultSpec` rules and fires matching ones."""

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)

    @classmethod
    def parse(cls, text: str) -> "FaultInjector":
        """Build an injector from a ``;``-separated spec string."""
        specs = [FaultSpec.parse(part) for part in text.split(";")
                 if part.strip()]
        if not specs:
            raise FaultConfigError(
                f"{FAULT_ENV_VAR}: no fault specs in {text!r}")
        return cls(specs)

    def fire(self, job, attempt: int = 1) -> None:
        """Misbehave according to the first spec matching ``job`` (if any)."""
        for spec in self.specs:
            if not spec.matches(job):
                continue
            if spec.mode in ("lease_stall", "net_drop"):
                # Protocol-layer faults: the fabric worker claims these via
                # claim_node_fault; inside a job they are inert.
                continue
            label = f"{job.label} (attempt {attempt})"
            if spec.mode == "worker_kill":
                if not claim_fault_token(spec):
                    return  # at-most-n kills already spent: run normally
                if _in_worker_process():
                    # Die like kill -9: no cleanup, no exception.  A pool
                    # parent sees EOF on the worker's pipe; a fabric
                    # coordinator sees the lease expire.
                    os._exit(WORKER_KILL_EXIT_CODE)
                raise InjectedFault(
                    f"injected worker kill for {label} (in-process: "
                    f"degraded to raise so the parent survives)")
            if spec.mode == "flaky":
                if attempt <= spec.n:
                    raise InjectedFault(
                        f"injected flaky failure for {label}: "
                        f"{attempt}/{spec.n} failing attempts")
                return  # flaky spec satisfied: run normally
            if spec.mode == "raise":
                raise InjectedFault(f"injected failure for {label}")
            if spec.mode == "hang":
                deadline = time.monotonic() + spec.hang_seconds
                while time.monotonic() < deadline:
                    time.sleep(min(0.2, max(0.0,
                                            deadline - time.monotonic())))
                raise InjectedFault(
                    f"injected hang for {label} elapsed after "
                    f"{spec.hang_seconds}s without supervision")
            if spec.mode == "segfault":
                if _in_pool_worker():
                    # Die like a native crash: no cleanup, no exception —
                    # the parent sees EOF on the worker's pipe.
                    os._exit(SEGFAULT_EXIT_CODE)
                raise InjectedFault(
                    f"injected segfault for {label} (in-process: degraded "
                    f"to raise so the parent survives)")
            if spec.mode == "native":
                # A bounds guard firing mid-run, as the hardened engine
                # reports it: structured, attributed, in-band.
                from repro.snitch import native

                raise native.NativeEngineError(7, "bounds", hart=0, pc=0,
                                               addr=0x1000_0000)
            return


#: Programmatically installed injector (overrides the environment).
_INSTALLED: Optional[FaultInjector] = None

#: Memoized (env text -> injector) so the per-job consult stays cheap.
_ENV_CACHE: Tuple[Optional[str], Optional[FaultInjector]] = (None, None)


def install(injector: Optional[FaultInjector]) -> Optional[FaultInjector]:
    """Install (or with ``None`` clear) the process-wide injector.

    Returns the previously installed injector.  ``fork``-started pool
    workers inherit whatever is installed at pool-spawn time.
    """
    global _INSTALLED
    previous = _INSTALLED
    _INSTALLED = injector
    return previous


@contextmanager
def injected(*specs: FaultSpec):
    """Context manager installing the given specs for the duration."""
    previous = install(FaultInjector(specs))
    try:
        yield
    finally:
        install(previous)


def active_injector() -> Optional[FaultInjector]:
    """The injector in force: installed one, else parsed from the env."""
    if _INSTALLED is not None:
        return _INSTALLED
    global _ENV_CACHE
    text = os.environ.get(FAULT_ENV_VAR, "").strip() or None
    if text is None:
        return None
    cached_text, cached = _ENV_CACHE
    if cached_text != text:
        cached = FaultInjector.parse(text)
        _ENV_CACHE = (text, cached)
    return cached


def maybe_inject(job, attempt: int = 1) -> None:
    """Hook consulted by ``execute_job``: no-op unless a spec matches."""
    injector = active_injector()
    if injector is not None:
        injector.fire(job, attempt=attempt)
