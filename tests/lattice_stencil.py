"""The literal lattice stencil of the attenuated volume kernel.

A reference for the transport tests: ``AttenuationOperator`` transforms the
stencil octant straight into ``kernel_hat`` and never builds the stencil.
"""

from __future__ import annotations

import numpy as np

from radbody import transport
from radbody.quadrature import SpatialGrid


def attenuation_stencil(grid: SpatialGrid, beta: float) -> np.ndarray:
    """The stencil of rate ``beta`` over the lattice offsets, 2n - 1 per box
    axis with offset 0 at n - 1: its octant (``transport._stencil_parts``)
    mirrored, so it equals its own axis flips to the last bit."""
    octant = transport._stencil_parts(grid, float(beta), transport._stencil_geometry(grid))
    return octant[np.ix_(*(np.abs(np.arange(1 - n, n)) for n in grid.box_shape))]
