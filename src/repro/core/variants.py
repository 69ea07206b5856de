"""Codegen variant registry: pluggable backends behind ``run_kernel``.

The seed duplicated the variant list — ``runner.VARIANTS``, the CLI choices
and the sweep artifact job lists each spelled out ``("base", "saris")`` — and
dispatched on string comparison inside the runner.  This module is now the
single source of truth: a variant is a registered backend that turns a
(kernel, layout, geometry, cluster) request into one
:class:`~repro.core.codegen_common.GeneratedProgram` per core, and everything
else (runner dispatch, CLI choices, artifact sweeps, ``repro list``) derives
its variant list from the registry.

Third-party backends plug in with the decorator::

    @register_variant("mine", description="my experimental backend")
    def generate_mine(kernel, layout, geometry, cluster, **kwargs):
        return ...  # a GeneratedProgram

Backends flagged ``paper=True`` form the paper's base-vs-SARIS comparison
pair; :func:`paper_variants` feeds the artifact pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Tuple

from repro.registry import Registry

if TYPE_CHECKING:
    from repro.core.codegen_common import GeneratedProgram

#: Backend signature: (kernel, layout, geometry, cluster, **codegen_kwargs).
VariantBackend = Callable[..., "GeneratedProgram"]


@dataclass(frozen=True)
class VariantSpec:
    """One registered codegen backend."""

    name: str
    generate: VariantBackend
    description: str = ""
    paper: bool = False


VARIANT_REGISTRY: Registry[VariantSpec] = Registry("variant")


def register_variant(name: str, *, description: str = "", paper: bool = False,
                     replace: bool = False):
    """Decorator registering a codegen backend under ``name``.

    ``paper`` marks the built-in base/saris comparison *pair* that the
    artifact pipeline sweeps; leave it False for third-party backends (they
    are still available everywhere by name, including Experiment sweeps).
    """
    def wrap(entry_name: str, fn: VariantBackend) -> VariantSpec:
        return VariantSpec(name=entry_name, generate=fn,
                           description=description, paper=paper)
    return VARIANT_REGISTRY.decorator(name, replace=replace, wrap=wrap)


def unregister_variant(name: str) -> VariantSpec:
    """Remove a variant (mainly for tests of third-party registration)."""
    return VARIANT_REGISTRY.unregister(name)


def get_variant(name: str) -> VariantSpec:
    """Look up a registered variant by name."""
    return VARIANT_REGISTRY.get(name)


def variant_names() -> Tuple[str, ...]:
    """Every registered variant name, built-ins first."""
    return VARIANT_REGISTRY.names()


def paper_variants() -> Tuple[str, ...]:
    """The variants forming the paper's comparison (base before saris)."""
    return tuple(spec.name for spec in VARIANT_REGISTRY.values() if spec.paper)


# ---------------------------------------------------------------------------
# Built-in backends (each imports its generator on first call, so naming a
# variant, e.g. to validate a job, loads no code generator)
# ---------------------------------------------------------------------------

@register_variant("base", paper=True,
                  description="optimized RV32G baseline (scalar loads/stores)")
def _generate_base(kernel, layout, geometry, cluster, **codegen_kwargs):
    from repro.core.codegen_base import generate_base_program

    return generate_base_program(kernel, layout, geometry, **codegen_kwargs)


@register_variant("saris", paper=True,
                  description="SSSR+FREP stream-accelerated variant (SARIS)")
def _generate_saris(kernel, layout, geometry, cluster, **codegen_kwargs):
    from repro.core.codegen_saris import generate_saris_program

    return generate_saris_program(kernel, layout, geometry, cluster.allocator,
                                  frep_limit=cluster.params.frep_max_insts,
                                  **codegen_kwargs)
