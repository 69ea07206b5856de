"""Stencil kernel description.

A :class:`StencilKernel` bundles everything both code generators and the
reference evaluator need: the point-update expression, the arrays involved,
the iteration radius (halo width) and default coefficient values.  The
derived properties reproduce the per-kernel characteristics of Table 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.ir import (
    Expr,
    arrays_read,
    coeff_names,
    count_flops,
    count_loads,
    grid_refs,
    max_offset_radius,
)

if TYPE_CHECKING:
    import numpy as np


class KernelError(ValueError):
    """Raised for inconsistent kernel definitions."""


@dataclass
class StencilKernel:
    """A stencil code: its update expression plus iteration metadata.

    Attributes
    ----------
    name:
        Kernel identifier (matches the names used in the paper's figures).
    dims:
        Grid dimensionality (2 or 3).
    radius:
        Stencil radius; also the halo width of the grid tile.
    inputs:
        Names of input arrays, in declaration order.  ``inputs[0]`` is the
        *base array* used as the indirection base by SARIS.
    output:
        Name of the output array.
    expr:
        Point-update expression over :class:`repro.core.ir` nodes.
    coefficients:
        Default values for every named coefficient.
    default_tile:
        Tile shape (including halo) used by the paper's single-cluster
        evaluation: 64x64 for 2D codes, 16x16x16 for 3D codes.
    """

    name: str
    dims: int
    radius: int
    inputs: List[str]
    output: str
    expr: Expr
    coefficients: Dict[str, float] = field(default_factory=dict)
    default_tile: Optional[Tuple[int, ...]] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.dims not in (2, 3):
            raise KernelError(f"{self.name}: only 2D and 3D kernels are supported")
        if self.radius < 1:
            raise KernelError(f"{self.name}: radius must be >= 1")
        expr_arrays = arrays_read(self.expr)
        for array in expr_arrays:
            if array not in self.inputs:
                raise KernelError(
                    f"{self.name}: expression reads undeclared array {array!r}"
                )
        if self.output in self.inputs:
            raise KernelError(f"{self.name}: output array must not alias an input")
        for ref in grid_refs(self.expr):
            if len(ref.offset) != self.dims:
                raise KernelError(
                    f"{self.name}: offset {ref.offset} does not match dims={self.dims}"
                )
        if max_offset_radius(self.expr) > self.radius:
            raise KernelError(
                f"{self.name}: expression uses offsets beyond radius {self.radius}"
            )
        missing = [c for c in coeff_names(self.expr) if c not in self.coefficients]
        if missing:
            raise KernelError(f"{self.name}: missing coefficient values for {missing}")
        if self.default_tile is None:
            self.default_tile = (64, 64) if self.dims == 2 else (16, 16, 16)
        if len(self.default_tile) != self.dims:
            raise KernelError(f"{self.name}: default_tile does not match dims")

    # -- Table 1 characteristics ---------------------------------------------------

    @property
    def loads_per_point(self) -> int:
        """Grid loads per point update (Table 1, '#Loads')."""
        return count_loads(self.expr)

    @property
    def coeffs_per_point(self) -> int:
        """Distinct constant coefficients (Table 1, '#Coeffs.')."""
        return len(coeff_names(self.expr))

    @property
    def flops_per_point(self) -> int:
        """Floating-point operations per point update (Table 1, '#FLOPs')."""
        return count_flops(self.expr)

    @property
    def arrays(self) -> List[str]:
        """All arrays of the kernel (inputs then output)."""
        return list(self.inputs) + [self.output]

    @property
    def base_array(self) -> str:
        """The array whose point address serves as the SARIS indirection base."""
        return self.inputs[0]

    def characteristics(self) -> Dict[str, object]:
        """Summary row matching Table 1 of the paper."""
        return {
            "code": self.name,
            "dims": f"{self.dims}D",
            "radius": self.radius,
            "loads": self.loads_per_point,
            "coeffs": self.coeffs_per_point,
            "flops": self.flops_per_point,
        }

    # -- tile helpers ----------------------------------------------------------------

    def interior_shape(self, tile_shape: Optional[Tuple[int, ...]] = None) -> Tuple[int, ...]:
        """Shape of the interior (updated) region of a tile including halo."""
        shape = tuple(tile_shape or self.default_tile)
        interior = tuple(n - 2 * self.radius for n in shape)
        if any(n <= 0 for n in interior):
            raise KernelError(
                f"{self.name}: tile {shape} too small for radius {self.radius}"
            )
        return interior

    def interior_points(self, tile_shape: Optional[Tuple[int, ...]] = None) -> int:
        """Number of points updated per tile."""
        return math.prod(self.interior_shape(tile_shape))

    def flops_per_tile(self, tile_shape: Optional[Tuple[int, ...]] = None) -> int:
        """Total FLOPs for one time iteration over a tile."""
        return self.interior_points(tile_shape) * self.flops_per_point

    def make_grids(self, tile_shape: Optional[Tuple[int, ...]] = None,
                   seed: int = 0) -> Dict[str, np.ndarray]:
        """Create random input grids (and a zeroed output grid) for a tile."""
        import numpy as np

        shape = tuple(tile_shape or self.default_tile)
        rng = np.random.default_rng(seed)
        grids = {name: rng.uniform(-1.0, 1.0, size=shape) for name in self.inputs}
        grids[self.output] = np.zeros(shape, dtype=np.float64)
        return grids

    def operational_intensity(self, tile_shape: Optional[Tuple[int, ...]] = None) -> float:
        """FLOPs per byte of main-memory tile traffic (inputs in + output out).

        This is the quantity that determines memory-boundedness in the
        manycore scaleout (Section 3.3): 3D halos reduce the ratio of interior
        to total points and extra I/O arrays add traffic.
        """
        shape = tuple(tile_shape or self.default_tile)
        tile_points = math.prod(shape)
        interior = self.interior_points(shape)
        bytes_in = len(self.inputs) * tile_points * 8
        bytes_out = interior * 8
        return self.flops_per_point * interior / (bytes_in + bytes_out)
