"""The stencil kernel suite evaluated in the paper (Table 1).

Ten kernels are implemented, sorted by FLOPs per grid point exactly as in
Table 1, plus the symmetric 7-point star of Listing 1/Figure 2 used for the
instruction-mix experiment:

========== ==== ==== ====== ======== ======
code       dims rad. #loads #coeffs. #FLOPs
========== ==== ==== ====== ======== ======
jacobi_2d   2D   1     5       1       5
j2d5pt      2D   1     5       6      10
box2d1r     2D   1     9       9      17
j2d9pt      2D   2     9      10      18
j2d9pt_gol  2D   1     9      10      18
star2d3r    2D   3    13      13      25
star3d2r    3D   2    13      13      25
ac_iso_cd   3D   4    26      13      38
box3d1r     3D   1    27      27      53
j3d27pt     3D   1    27      28      54
========== ==== ==== ====== ======== ======

The expressions are constructed so that the per-point load, coefficient and
FLOP counts match the table exactly; coefficient values are deterministic
but otherwise arbitrary (they do not influence performance).  ``ac_iso_cd``
follows the acoustic isotropic constant-density propagator structure: a
radius-4 star over the current wavefield with per-axis/per-distance
coefficients, combined with the previous time step.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.ir import Coeff, Expr, GridRef, add, mul, sub
from repro.core.stencil import StencilKernel
from repro.registry import Registry

#: Builders for every known stencil, in registration order (built-ins first).
KERNEL_REGISTRY: Registry[Callable[[], StencilKernel]] = Registry("kernel")

#: The kernel built per registered name, so hot paths (every
#: ``run_kernel(name)``, sweep-job hashing) skip rebuilding the kernel IR.
#: Invalidated whenever the name is (re-/un-)registered.
_REGISTERED_KERNELS: Dict[str, StencilKernel] = {}


def register_kernel(name: Optional[str] = None, *, replace: bool = False):
    """Decorator registering a zero-argument :class:`StencilKernel` builder.

    Third-party stencils plug into every front end (``run_kernel``, the CLI,
    :class:`~repro.experiment.Experiment` sweeps) by registering a builder::

        @register_kernel("my_stencil")
        def build_my_stencil() -> StencilKernel:
            return StencilKernel(...)

    Without an explicit ``name`` the builder's ``build_`` prefix is stripped
    (``build_my_stencil`` registers ``my_stencil``); the bare form
    ``@register_kernel`` (no parentheses) works too.
    """
    def apply(fn: Callable[[], StencilKernel]):
        entry_name = name
        if entry_name is None:
            entry_name = fn.__name__
            if entry_name.startswith("build_"):
                entry_name = entry_name[len("build_"):]
        KERNEL_REGISTRY.register(entry_name, fn, replace=replace)
        _REGISTERED_KERNELS.pop(entry_name, None)
        return fn

    if callable(name):
        # Bare ``@register_kernel`` usage: ``name`` is the builder itself.
        fn, name = name, None
        return apply(fn)
    return apply


def unregister_kernel(name: str) -> Callable[[], StencilKernel]:
    """Remove a registered kernel (mainly for tests of plug-in stencils)."""
    _REGISTERED_KERNELS.pop(name, None)
    return KERNEL_REGISTRY.unregister(name)


def kernel_names() -> Tuple[str, ...]:
    """Every registered kernel name, in registration order."""
    return KERNEL_REGISTRY.names()


def kernel_fingerprint(kernel: StencilKernel) -> tuple:
    """Content-based identity of a kernel definition (cached on the object).

    Two kernels with the same fingerprint generate identical code and
    metrics; the runner's codegen cache and the sweep-job content hash both
    key on it, so editing a (plug-in) kernel under an unchanged name is
    never served stale results.
    """
    fingerprint = getattr(kernel, "_codegen_fingerprint", None)
    if fingerprint is None:
        fingerprint = (kernel.name, kernel.dims, kernel.radius,
                       tuple(kernel.inputs), kernel.output, repr(kernel.expr),
                       tuple(sorted(kernel.coefficients.items())))
        kernel._codegen_fingerprint = fingerprint
    return fingerprint


def registered_kernel(name: str) -> StencilKernel:
    """The kernel registered under ``name``, built once per registration.

    Unlike :func:`get_kernel`, every call returns the same instance, shared
    by every caller and thread: treat it as read-only (its fingerprint
    stamp, see :func:`kernel_fingerprint`, is the one write it takes).
    """
    kernel = _REGISTERED_KERNELS.get(name)
    if kernel is None:
        kernel = _REGISTERED_KERNELS[name] = get_kernel(name)
    return kernel


def _coeff_value(index: int) -> float:
    """Deterministic, non-trivial default coefficient values."""
    return round(0.5 / (index + 2) + 0.01 * ((index * 7) % 5), 6)


def star_offsets(dims: int, radius: int) -> List[Tuple[int, ...]]:
    """Offsets of a star (cross) stencil: the center plus +/-k along each axis."""
    center = tuple(0 for _ in range(dims))
    offsets = [center]
    for axis in range(dims):
        for dist in range(1, radius + 1):
            for sign in (-1, 1):
                offset = [0] * dims
                offset[axis] = sign * dist
                offsets.append(tuple(offset))
    return offsets


def box_offsets(dims: int, radius: int) -> List[Tuple[int, ...]]:
    """Offsets of a dense box stencil of the given radius."""
    span = range(-radius, radius + 1)
    if dims == 2:
        return [(dy, dx) for dy in span for dx in span]
    return [(dz, dy, dx) for dz in span for dy in span for dx in span]


def _weighted_sum(array: str, offsets: List[Tuple[int, ...]], prefix: str = "c") -> Expr:
    """Sum of ``coeff_i * array[offset_i]`` over all offsets."""
    terms = [mul(Coeff(f"{prefix}{i}"), GridRef(array, off))
             for i, off in enumerate(offsets)]
    return add(*terms)


def _coeff_table(count: int, prefix: str = "c") -> Dict[str, float]:
    return {f"{prefix}{i}": _coeff_value(i) for i in range(count)}


# ---------------------------------------------------------------------------
# Kernel builders
# ---------------------------------------------------------------------------


@register_kernel()
def build_jacobi_2d() -> StencilKernel:
    """PolyBench ``jacobi_2d``: unweighted 5-point average scaled by one coefficient."""
    offsets = star_offsets(2, 1)
    taps = [GridRef("inp", off) for off in offsets]
    expr = mul(Coeff("c0"), add(*taps))
    return StencilKernel(
        name="jacobi_2d", dims=2, radius=1, inputs=["inp"], output="out",
        expr=expr, coefficients={"c0": 0.2},
        description="5-point Jacobi relaxation (PolyBench)",
    )


@register_kernel()
def build_j2d5pt() -> StencilKernel:
    """AN5D ``j2d5pt``: 5-point star with per-tap coefficients plus an offset term."""
    offsets = star_offsets(2, 1)
    terms = [Coeff("c0")] + [mul(Coeff(f"c{i + 1}"), GridRef("inp", off))
                             for i, off in enumerate(offsets)]
    expr = add(*terms)
    return StencilKernel(
        name="j2d5pt", dims=2, radius=1, inputs=["inp"], output="out",
        expr=expr, coefficients=_coeff_table(6),
        description="5-point 2D Jacobi with distinct coefficients (AN5D)",
    )


@register_kernel()
def build_box2d1r() -> StencilKernel:
    """AN5D ``box2d1r``: dense 3x3 box filter with per-tap coefficients."""
    expr = _weighted_sum("inp", box_offsets(2, 1))
    return StencilKernel(
        name="box2d1r", dims=2, radius=1, inputs=["inp"], output="out",
        expr=expr, coefficients=_coeff_table(9),
        description="3x3 box stencil with distinct coefficients (AN5D)",
    )


@register_kernel()
def build_j2d9pt() -> StencilKernel:
    """AN5D ``j2d9pt``: radius-2 star with per-tap coefficients and a global scale."""
    expr = mul(Coeff("c9"), _weighted_sum("inp", star_offsets(2, 2)))
    return StencilKernel(
        name="j2d9pt", dims=2, radius=2, inputs=["inp"], output="out",
        expr=expr, coefficients=_coeff_table(10),
        description="9-point radius-2 star stencil (AN5D)",
    )


@register_kernel()
def build_j2d9pt_gol() -> StencilKernel:
    """AN5D ``j2d9pt_gol``: dense 3x3 neighbourhood with a global scale."""
    expr = mul(Coeff("c9"), _weighted_sum("inp", box_offsets(2, 1)))
    return StencilKernel(
        name="j2d9pt_gol", dims=2, radius=1, inputs=["inp"], output="out",
        expr=expr, coefficients=_coeff_table(10),
        description="9-point game-of-life-style box stencil (AN5D)",
    )


@register_kernel()
def build_star2d3r() -> StencilKernel:
    """AN5D ``star2d3r``: radius-3 star with per-tap coefficients."""
    expr = _weighted_sum("inp", star_offsets(2, 3))
    return StencilKernel(
        name="star2d3r", dims=2, radius=3, inputs=["inp"], output="out",
        expr=expr, coefficients=_coeff_table(13),
        description="13-point radius-3 2D star stencil (AN5D)",
    )


@register_kernel()
def build_star3d2r() -> StencilKernel:
    """AN5D ``star3d2r``: radius-2 3D star with per-tap coefficients."""
    expr = _weighted_sum("inp", star_offsets(3, 2))
    return StencilKernel(
        name="star3d2r", dims=3, radius=2, inputs=["inp"], output="out",
        expr=expr, coefficients=_coeff_table(13),
        description="13-point radius-2 3D star stencil (AN5D)",
    )


@register_kernel()
def build_ac_iso_cd() -> StencilKernel:
    """Acoustic isotropic constant-density propagator (radius-4 star + history).

    The current wavefield ``u`` is convolved with a radius-4 star whose
    coefficients are shared between the +k and -k taps of each axis (12 pair
    coefficients plus the center), and the previous time step ``u_prev`` is
    subtracted, giving the leap-frog update structure of the seismic kernel
    scaled out by Jacquelin et al. on the WSE-2.
    """
    center = mul(Coeff("c0"), GridRef("u", (0, 0, 0)))
    terms: List[Expr] = [center]
    index = 1
    for axis in range(3):
        for dist in range(1, 5):
            plus = [0, 0, 0]
            minus = [0, 0, 0]
            plus[axis] = dist
            minus[axis] = -dist
            pair = add(GridRef("u", tuple(minus)), GridRef("u", tuple(plus)))
            terms.append(mul(Coeff(f"c{index}"), pair))
            index += 1
    expr = sub(add(*terms), GridRef("u_prev", (0, 0, 0)))
    return StencilKernel(
        name="ac_iso_cd", dims=3, radius=4, inputs=["u", "u_prev"], output="out",
        expr=expr, coefficients=_coeff_table(13),
        description="acoustic isotropic constant-density wave propagation",
    )


@register_kernel()
def build_box3d1r() -> StencilKernel:
    """AN5D ``box3d1r``: dense 3x3x3 box with per-tap coefficients."""
    expr = _weighted_sum("inp", box_offsets(3, 1))
    return StencilKernel(
        name="box3d1r", dims=3, radius=1, inputs=["inp"], output="out",
        expr=expr, coefficients=_coeff_table(27),
        description="27-point 3D box stencil (AN5D)",
    )


@register_kernel()
def build_j3d27pt() -> StencilKernel:
    """AN5D ``j3d27pt``: dense 3x3x3 neighbourhood with a global scale."""
    expr = mul(Coeff("c27"), _weighted_sum("inp", box_offsets(3, 1)))
    return StencilKernel(
        name="j3d27pt", dims=3, radius=1, inputs=["inp"], output="out",
        expr=expr, coefficients=_coeff_table(28),
        description="27-point 3D Jacobi stencil (AN5D)",
    )


@register_kernel()
def build_star3d7pt() -> StencilKernel:
    """The symmetric 7-point star of Listing 1 / Figure 2 (example kernel)."""
    c = GridRef("inp", (0, 0, 0))
    xm, xp = GridRef("inp", (0, 0, -1)), GridRef("inp", (0, 0, 1))
    ym, yp = GridRef("inp", (0, -1, 0)), GridRef("inp", (0, 1, 0))
    zm, zp = GridRef("inp", (-1, 0, 0)), GridRef("inp", (1, 0, 0))
    expr = add(
        mul(Coeff("c0"), c),
        mul(Coeff("cx"), add(xm, xp)),
        mul(Coeff("cy"), add(ym, yp)),
        mul(Coeff("cz"), add(zm, zp)),
    )
    return StencilKernel(
        name="star3d7pt", dims=3, radius=1, inputs=["inp"], output="out",
        expr=expr,
        coefficients={"c0": 0.4, "cx": 0.11, "cy": 0.09, "cz": 0.08},
        description="symmetric 7-point star stencil (Listing 1 example)",
    )


# ---------------------------------------------------------------------------
# Registry views
# ---------------------------------------------------------------------------

#: The ten codes of Table 1 in the paper's order (sorted by FLOPs per point).
TABLE1_KERNELS: Tuple[str, ...] = (
    "jacobi_2d", "j2d5pt", "box2d1r", "j2d9pt", "j2d9pt_gol",
    "star2d3r", "star3d2r", "ac_iso_cd", "box3d1r", "j3d27pt",
)

#: Expected Table 1 characteristics, used by tests and the Table 1 bench.
TABLE1_EXPECTED: Dict[str, Dict[str, int]] = {
    "jacobi_2d": {"dims": 2, "radius": 1, "loads": 5, "coeffs": 1, "flops": 5},
    "j2d5pt": {"dims": 2, "radius": 1, "loads": 5, "coeffs": 6, "flops": 10},
    "box2d1r": {"dims": 2, "radius": 1, "loads": 9, "coeffs": 9, "flops": 17},
    "j2d9pt": {"dims": 2, "radius": 2, "loads": 9, "coeffs": 10, "flops": 18},
    "j2d9pt_gol": {"dims": 2, "radius": 1, "loads": 9, "coeffs": 10, "flops": 18},
    "star2d3r": {"dims": 2, "radius": 3, "loads": 13, "coeffs": 13, "flops": 25},
    "star3d2r": {"dims": 3, "radius": 2, "loads": 13, "coeffs": 13, "flops": 25},
    "ac_iso_cd": {"dims": 3, "radius": 4, "loads": 26, "coeffs": 13, "flops": 38},
    "box3d1r": {"dims": 3, "radius": 1, "loads": 27, "coeffs": 27, "flops": 53},
    "j3d27pt": {"dims": 3, "radius": 1, "loads": 27, "coeffs": 28, "flops": 54},
}


def get_kernel(name: str) -> StencilKernel:
    """Build and return the kernel registered under ``name``."""
    return KERNEL_REGISTRY.get(name)()


def all_kernels() -> List[StencilKernel]:
    """Build every registered kernel."""
    return [get_kernel(name) for name in kernel_names()]


def __getattr__(name: str):
    # KERNEL_NAMES tracks the live registry (PEP 562), so plug-in kernels
    # registered after import show up in listings without a stale snapshot.
    if name == "KERNEL_NAMES":
        return kernel_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def table1_kernels() -> List[StencilKernel]:
    """Build the ten Table-1 kernels in the paper's order."""
    return [get_kernel(name) for name in TABLE1_KERNELS]
