"""Declarative description of one simulation job with a stable content hash.

A :class:`SweepJob` captures everything that determines the outcome of one
``run_kernel`` invocation — kernel name, code variant, tile shape, timing
parameters, codegen keyword arguments and the input seed — as a frozen,
picklable value.  Its :meth:`~SweepJob.content_hash` is computed from a
canonical JSON form, so it is identical across processes, machines and
``PYTHONHASHSEED`` values; the on-disk result store keys cache entries on it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple, dataclass
from typing import Dict, Optional, Tuple, Union

from repro.machine import (
    PAPER_SPEC_DICT,
    MachineSpec,
    default_machine,
    resolve_machine,
)
from repro.snitch.params import TimingParams


#: Default simulation cycle budget, mirroring ``run_kernel``'s default.
DEFAULT_MAX_CYCLES = 5_000_000


@dataclass(frozen=True)
class SweepJob:
    """One (kernel, variant, configuration) simulation request.

    ``codegen_kwargs`` is stored as a sorted tuple of ``(name, value)`` pairs
    so that jobs hash and compare independently of keyword order; build jobs
    through :meth:`make` to get the normalization for free.
    """

    kernel: str
    variant: str = "saris"
    tile_shape: Optional[Tuple[int, ...]] = None
    params: Optional[TimingParams] = None
    seed: int = 0
    check: bool = True
    max_cycles: int = DEFAULT_MAX_CYCLES
    codegen_kwargs: Tuple[Tuple[str, object], ...] = ()
    #: Machine configuration the job simulates on; ``None`` means the
    #: runner's default (the ``snitch-8`` paper preset).  The *parameters*
    #: (never the name) enter the content hash via :meth:`canonical_machine`,
    #: so results cached for one machine are never served for another, while
    #: a renamed clone of the default still shares the default's entries.
    machine: Optional[MachineSpec] = None

    @classmethod
    def make(cls, kernel: Union[str, object], variant: str = "saris", *,
             tile_shape: Optional[Tuple[int, ...]] = None,
             params: Optional[TimingParams] = None, seed: int = 0,
             check: bool = True, max_cycles: int = DEFAULT_MAX_CYCLES,
             machine: Union[str, MachineSpec, None] = None,
             **codegen_kwargs) -> "SweepJob":
        """Build a normalized job (accepts kernel and machine names or objects)."""
        name = kernel if isinstance(kernel, str) else kernel.name
        return cls(
            kernel=name,
            variant=variant,
            tile_shape=tuple(int(t) for t in tile_shape) if tile_shape else None,
            params=params,
            seed=int(seed),
            check=bool(check),
            max_cycles=int(max_cycles),
            codegen_kwargs=tuple(sorted(codegen_kwargs.items())),
            machine=resolve_machine(machine) if machine is not None else None,
        )

    def canonical_machine(self) -> Optional[MachineSpec]:
        """The machine this job actually runs on, iff it differs from the
        paper machine.

        ``None``, the stock ``snitch-8`` preset and any renamed clone of it
        describe the same simulation, so they canonicalize to ``None`` here
        and share one content hash and store entry; the user-facing name on
        :attr:`machine` is untouched (experiment records keep reporting it).
        The comparison is against the *frozen* paper parameters, not the
        live registry — if someone replaces the default preset, machine-unset
        jobs resolve (and hash) the replacement's parameters rather than
        colliding with entries cached before the replacement.

        A *multi-cluster* topology first reduces to its per-cluster shape
        (:meth:`~repro.machine.MachineSpec.cluster_spec`): a single job is
        one cluster simulation whose outcome the topology cannot affect, so
        e.g. a job on ``manticore-32`` shares its hash and store entry with
        the same job on ``snitch-8``.
        """
        machine = self.machine if self.machine is not None else default_machine()
        if machine.is_multi_cluster:
            machine = machine.cluster_spec()
        if machine.spec_dict() == PAPER_SPEC_DICT:
            return None
        return machine

    @property
    def label(self) -> str:
        """Short human-readable identity for progress lines and reports."""
        extras = ",".join(f"{name}={value!r}" for name, value in self.codegen_kwargs)
        label = f"{self.kernel}/{self.variant}"
        if self.machine is not None:
            label += f"@{self.machine.name}"
        return label + (f"[{extras}]" if extras else "")

    def spec(self) -> Dict[str, object]:
        """Canonical JSON-stable description — the content that is hashed.

        Besides the kernel *name*, the spec carries a content fingerprint of
        the registered kernel definition, so re-registering a plug-in
        stencil under the same name (or editing its builder out of tree —
        where the store's repro-source fingerprint cannot see it) can never
        be served stale cached results.
        """
        from repro.core.kernels import kernel_fingerprint, registered_kernel

        machine = self.canonical_machine()
        return {
            "kernel": self.kernel,
            "kernel_fingerprint": repr(kernel_fingerprint(
                registered_kernel(self.kernel))),
            "variant": self.variant,
            "tile_shape": list(self.tile_shape) if self.tile_shape else None,
            "params": list(astuple(self.params)) if self.params is not None else None,
            "seed": self.seed,
            "check": self.check,
            "max_cycles": self.max_cycles,
            "codegen_kwargs": {name: repr(value)
                               for name, value in self.codegen_kwargs},
            "machine": (machine.spec_dict() if machine is not None else None),
        }

    def content_hash(self) -> str:
        """Hex digest of the canonical spec; stable across processes."""
        canonical = json.dumps(self.spec(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def run(self):
        """Execute the job in this process and return a `KernelRunResult`."""
        from repro.runner import run_kernel

        return run_kernel(self.kernel, variant=self.variant,
                          tile_shape=self.tile_shape, params=self.params,
                          seed=self.seed, check=self.check,
                          max_cycles=self.max_cycles, machine=self.machine,
                          **dict(self.codegen_kwargs))
