"""The serializable result of one kernel run, without the simulator.

:class:`KernelRunResult` travels between processes (pool pipes, fabric
uploads) and through the on-disk result store.  Processes that only route
or store results — the fabric coordinator, the result store, the sweep
plumbing — import it from here, which loads neither NumPy nor the
simulator; :mod:`repro.runner` re-exports it beside ``run_kernel``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.snitch.trace import ActivityCounters

if TYPE_CHECKING:
    from repro.snitch.trace import ClusterResult

_JSON_LEAVES = frozenset((str, int, float, bool, type(None)))

#: The ``ActivityCounters`` fields that hold one integer each; the last
#: field, ``core_cycles``, holds one per core.
_ACTIVITY_COUNTS = tuple(f.name for f in fields(ActivityCounters)
                         if f.name != "core_cycles")


def _json_safe(value):
    """Recursively convert a value into plain JSON-serializable types."""
    if type(value) in _JSON_LEAVES:
        return value
    if isinstance(value, dict):
        return {str(key): _json_safe(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    # A NumPy scalar can only exist once NumPy is loaded: never load it here.
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.bool_):
            return bool(value)
    return value


@dataclass
class KernelRunResult:
    """Result of simulating one kernel variant on one cluster configuration.

    The scalar metrics plus ``activity`` form a *serializable core* that
    survives pickling across sweep worker processes and JSON round trips
    through the on-disk result store; ``cluster`` is optional in-memory
    detail (per-core stall breakdowns) that is dropped on serialization.
    """

    kernel: str
    variant: str
    tile_shape: Tuple[int, ...]
    cycles: int
    total_flops: int
    fpu_util: float
    ipc: float
    flops_per_cycle: float
    correct: bool
    max_abs_error: float
    runtime_imbalance: float
    tcdm_conflict_rate: float
    dma_utilization: float
    tile_traffic_bytes: int
    cluster: Optional[ClusterResult] = field(repr=False, default=None)
    activity: Optional[ActivityCounters] = field(repr=False, default=None)
    program_info: List[Dict[str, object]] = field(default_factory=list, repr=False)
    #: Which simulation engine actually carried the run: ``"native"`` for the
    #: symmetry-folded C engine, ``"python"`` for the reference engine (forced
    #: or fallback), ``None`` for results predating this field.  Purely
    #: informational — the engines are bit-identical — but it lets sweep
    #: reports state when a job was gracefully degraded to Python.
    engine: Optional[str] = field(default=None)
    #: Wall-clock seconds per ``run_kernel`` phase (``codegen``, ``setup``,
    #: ``simulate``, ``verify``, ``other``, plus dotted sub-phases such as
    #: ``codegen.schedule``), populated when telemetry is enabled
    #: (``REPRO_OBS``).  Diagnostic only — excluded from equality and from
    #: :meth:`metrics_hash`, exactly like ``engine``, so results stay
    #: bit-identical with telemetry on or off.
    phase_seconds: Dict[str, float] = field(default_factory=dict, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        # Normalize so an in-memory result compares equal to its JSON
        # round-trip: the tile shape is always an int tuple and
        # ``program_info`` holds only plain JSON types (tuples emitted by the
        # code generators become lists, exactly as ``to_json_dict`` stores
        # them).
        self.tile_shape = tuple(int(t) for t in self.tile_shape)
        self.program_info = _json_safe(self.program_info)

    @property
    def flops_fraction_of_peak(self) -> float:
        """Achieved fraction of the cluster's peak FLOP rate (2 FLOP/cycle/core)."""
        if self.cluster is not None:
            cores = len(self.cluster.cores)
        elif self.activity is not None and self.activity.core_cycles:
            cores = self.activity.num_cores
        else:
            cores = 8
        if self.cycles == 0:
            return 0.0
        return self.total_flops / (self.cycles * 2.0 * cores)

    def as_dict(self) -> Dict[str, object]:
        """Headline metrics as a plain dictionary (for tables and reports)."""
        return {
            "kernel": self.kernel,
            "variant": self.variant,
            "cycles": self.cycles,
            "fpu_util": self.fpu_util,
            "ipc": self.ipc,
            "flops_per_cycle": self.flops_per_cycle,
            "fraction_of_peak": self.flops_fraction_of_peak,
            "correct": self.correct,
        }

    def without_cluster(self) -> "KernelRunResult":
        """Serializable metrics core: this result minus the cluster detail."""
        if self.cluster is None:
            return self
        # A shallow copy: the fields are already normalized, so
        # ``__post_init__`` need not run again.
        core = copy.copy(self)
        core.cluster = None
        return core

    def to_json_dict(self) -> Dict[str, object]:
        """Full serializable payload for the on-disk result store."""
        payload = {
            "kernel": self.kernel,
            "variant": self.variant,
            "tile_shape": list(self.tile_shape),
            "cycles": int(self.cycles),
            "total_flops": int(self.total_flops),
            "fpu_util": float(self.fpu_util),
            "ipc": float(self.ipc),
            "flops_per_cycle": float(self.flops_per_cycle),
            "correct": bool(self.correct),
            "max_abs_error": float(self.max_abs_error),
            "runtime_imbalance": float(self.runtime_imbalance),
            "tcdm_conflict_rate": float(self.tcdm_conflict_rate),
            "dma_utilization": float(self.dma_utilization),
            "tile_traffic_bytes": int(self.tile_traffic_bytes),
            "program_info": _json_safe(self.program_info),
            "engine": self.engine,
        }
        if self.phase_seconds:
            payload["phase_seconds"] = {
                str(k): float(v) for k, v in self.phase_seconds.items()
            }
        activity = self.activity
        if activity is not None:
            payload["activity"] = {name: int(getattr(activity, name))
                                   for name in _ACTIVITY_COUNTS}
            payload["activity"]["core_cycles"] = list(activity.core_cycles)
        return payload

    def metrics_hash(self) -> str:
        """Content hash of the result's *metrics* identity.

        Excludes the informational ``engine`` field: the native and Python
        engines are bit-identical, so a job that degraded to the forced
        Python engine must hash the same as its healthy native run — this
        is the property that makes degraded results safely cacheable and
        comparable.  ``phase_seconds`` is excluded for the same reason:
        wall-clock phase timings are diagnostic, so a result must hash the
        same with telemetry on or off.
        """
        payload = self.to_json_dict()
        payload.pop("engine", None)
        payload.pop("phase_seconds", None)
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object]) -> "KernelRunResult":
        """Rebuild a result (without cluster detail) from its JSON payload."""
        raw_activity = payload.get("activity")
        activity = None
        if raw_activity is not None:
            activity = ActivityCounters(
                core_cycles=tuple(int(c) for c in raw_activity["core_cycles"]),
                **{name: int(raw_activity[name]) for name in _ACTIVITY_COUNTS})
        return cls(
            kernel=payload["kernel"],
            variant=payload["variant"],
            tile_shape=tuple(int(t) for t in payload["tile_shape"]),
            cycles=int(payload["cycles"]),
            total_flops=int(payload["total_flops"]),
            fpu_util=float(payload["fpu_util"]),
            ipc=float(payload["ipc"]),
            flops_per_cycle=float(payload["flops_per_cycle"]),
            correct=bool(payload["correct"]),
            max_abs_error=float(payload["max_abs_error"]),
            runtime_imbalance=float(payload["runtime_imbalance"]),
            tcdm_conflict_rate=float(payload["tcdm_conflict_rate"]),
            dma_utilization=float(payload["dma_utilization"]),
            tile_traffic_bytes=int(payload["tile_traffic_bytes"]),
            cluster=None,
            activity=activity,
            program_info=list(payload.get("program_info", [])),
            engine=payload.get("engine"),
            phase_seconds={str(k): float(v) for k, v in
                           (payload.get("phase_seconds") or {}).items()},
        )
