"""Parallelization geometry: distributing grid points over the cluster cores.

As in Section 2.3 of the paper, the point loops are parallelized among the
eight cluster cores using four-fold x-axis and two-fold y-axis iteration
interleaving; every core sweeps all z planes of the tile.  The unroll (block)
factor of each core's inner loop is chosen as a divisor of its per-row point
count so that no remainder loop is needed, up to the paper's four-fold limit
(larger blocks are allowed for the SARIS variant, where a block additionally
amortizes the stream launch and can be FREP-repeated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.stencil import StencilKernel

#: Four-fold interleaving along the x axis (innermost dimension).
X_INTERLEAVE = 4
#: Two-fold interleaving along the y axis.
Y_INTERLEAVE = 2


def default_interleave(num_cores: int) -> Tuple[int, int]:
    """Factor a core count into (x, y) iteration-interleave lanes.

    Prefers the paper's four-fold x interleaving whenever the core count
    allows it (8 -> 4x2, 16 -> 4x4, 4 -> 4x1), falling back to the largest
    x factor that divides the core count.
    """
    if num_cores < 1:
        raise GeometryError(f"num_cores must be positive, got {num_cores}")
    for x in (X_INTERLEAVE, 3, 2, 1):
        if num_cores % x == 0:
            return x, num_cores // x
    raise AssertionError("unreachable")  # pragma: no cover


def resolve_interleave(num_cores: int, x_interleave: Optional[int] = None,
                       y_interleave: Optional[int] = None) -> Tuple[int, int]:
    """Fill in unspecified lane factors from the core count.

    Shared by :func:`cluster_geometry` and
    :meth:`repro.machine.MachineSpec.create`, so both derive lanes
    identically; the caller still validates that the product matches the
    core count (the division clamps to 1 so a mismatch fails that check
    with sensible numbers instead of a zero lane).
    """
    for name, value in (("x_interleave", x_interleave),
                        ("y_interleave", y_interleave)):
        if value is not None and value <= 0:
            raise GeometryError(f"{name} must be positive, got {value}")
    if x_interleave is None and y_interleave is None:
        return default_interleave(num_cores)
    if x_interleave is None:
        x_interleave = max(num_cores // y_interleave, 1)
    elif y_interleave is None:
        y_interleave = max(num_cores // x_interleave, 1)
    return x_interleave, y_interleave


class GeometryError(ValueError):
    """Raised when a tile cannot be distributed over the cores."""


@dataclass(frozen=True)
class CoreShape:
    """What a core's program depends on besides the core's position.

    Cores with equal shapes run the same instruction stream up to their
    start pointers, row bound and SARIS index-array addresses, so the code
    generators emit one program template per shape.
    """

    x_count: int
    y_count: int
    z_count: int
    x_interleave: int = X_INTERLEAVE
    y_interleave: int = Y_INTERLEAVE

    @property
    def total_points(self) -> int:
        """Total grid points updated by a core of this shape."""
        return self.x_count * self.y_count * self.z_count

    def block_candidates(self, max_block: int) -> List[int]:
        """Divisors of the per-row point count, largest first, capped at ``max_block``."""
        count = self.x_count
        if count == 0:
            return [1]
        divisors = [d for d in range(1, count + 1) if count % d == 0 and d <= max_block]
        return sorted(divisors, reverse=True)


@dataclass
class CoreGeometry:
    """The set of grid points one core iterates over, and its loop structure."""

    core_id: int
    dims: int
    radius: int
    tile_shape: Tuple[int, ...]
    x_lane: int
    y_lane: int
    x_indices: List[int] = field(default_factory=list)
    y_indices: List[int] = field(default_factory=list)
    z_indices: List[int] = field(default_factory=list)
    #: Lane arrangement this geometry was carved from; the code generators
    #: derive their x/y address strides from these, so non-default machine
    #: configurations (4- or 16-core clusters) compile correctly.
    x_interleave: int = X_INTERLEAVE
    y_interleave: int = Y_INTERLEAVE

    @property
    def x_count(self) -> int:
        """Points per row handled by this core."""
        return len(self.x_indices)

    @property
    def y_count(self) -> int:
        """Rows handled by this core (per plane)."""
        return len(self.y_indices)

    @property
    def z_count(self) -> int:
        """Planes handled by this core (1 for 2D kernels)."""
        return max(len(self.z_indices), 1)

    @property
    def total_points(self) -> int:
        """Total grid points updated by this core."""
        return self.x_count * self.y_count * self.z_count

    @property
    def shape(self) -> CoreShape:
        """This core's loop counts and lane strides, without its position."""
        return CoreShape(self.x_count, self.y_count, self.z_count,
                         self.x_interleave, self.y_interleave)

    @property
    def start_coords(self) -> Tuple[int, ...]:
        """Tile coordinates of this core's first point."""
        if not self.x_indices or not self.y_indices:
            raise GeometryError(f"core {self.core_id} has no points")
        if self.dims == 3:
            return (self.z_indices[0], self.y_indices[0], self.x_indices[0])
        return (self.y_indices[0], self.x_indices[0])

    def point_coords(self) -> List[Tuple[int, ...]]:
        """All tile coordinates updated by this core, in iteration order."""
        coords = []
        zs = self.z_indices if self.dims == 3 else [None]
        for z in zs:
            for y in self.y_indices:
                for x in self.x_indices:
                    coords.append((z, y, x) if z is not None else (y, x))
        return coords

    def block_candidates(self, max_block: int) -> List[int]:
        """Divisors of the per-row point count, largest first, capped at ``max_block``."""
        return self.shape.block_candidates(max_block)


def cluster_geometry(kernel: StencilKernel,
                     tile_shape: Optional[Tuple[int, ...]] = None,
                     num_cores: int = 8,
                     x_interleave: Optional[int] = None,
                     y_interleave: Optional[int] = None) -> List[CoreGeometry]:
    """Compute the per-core iteration geometry for a tile.

    Cores are arranged as ``x_interleave * y_interleave`` lanes (derived from
    the core count when not given: 4 x 2 for the default eight cores); core
    ``i`` handles interior points with
    ``x ≡ radius + (i % x_interleave) (mod x_interleave)`` and
    ``y ≡ radius + (i // x_interleave) (mod y_interleave)``.
    """
    x_interleave, y_interleave = resolve_interleave(num_cores, x_interleave,
                                                    y_interleave)
    if num_cores != x_interleave * y_interleave:
        raise GeometryError(
            f"{num_cores} cores cannot be arranged as {x_interleave}x{y_interleave} lanes"
        )
    shape = tuple(tile_shape or kernel.default_tile)
    radius = kernel.radius
    interior = kernel.interior_shape(shape)
    if interior[-1] < x_interleave or interior[-2] < y_interleave:
        raise GeometryError(
            f"interior {interior} too small for {x_interleave}x{y_interleave} interleaving"
        )
    lo = radius
    geometries = []
    for core_id in range(num_cores):
        x_lane = core_id % x_interleave
        y_lane = core_id // x_interleave
        x_indices = list(range(lo + x_lane, shape[-1] - radius, x_interleave))
        y_indices = list(range(lo + y_lane, shape[-2] - radius, y_interleave))
        z_indices = (list(range(lo, shape[0] - radius)) if kernel.dims == 3 else [])
        geometries.append(CoreGeometry(
            core_id=core_id,
            dims=kernel.dims,
            radius=radius,
            tile_shape=shape,
            x_lane=x_lane,
            y_lane=y_lane,
            x_indices=x_indices,
            y_indices=y_indices,
            z_indices=z_indices,
            x_interleave=x_interleave,
            y_interleave=y_interleave,
        ))
    return geometries


def coverage(geometries: Sequence[CoreGeometry]) -> Dict[Tuple[int, ...], int]:
    """Count how many cores update each point (should be exactly one each)."""
    counts: Dict[Tuple[int, ...], int] = {}
    for geom in geometries:
        for coords in geom.point_coords():
            counts[coords] = counts.get(coords, 0) + 1
    return counts


def choose_block(x_count: int, max_block: int) -> int:
    """Largest divisor of ``x_count`` not exceeding ``max_block``."""
    if x_count <= 0:
        return 1
    for candidate in range(min(max_block, x_count), 0, -1):
        if x_count % candidate == 0:
            return candidate
    return 1
