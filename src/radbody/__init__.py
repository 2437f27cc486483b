"""Solvers for the stationary temperature of a convex body heated by radiation.

The field of a body that exchanges energy with its surroundings only through
radiation is fixed by two coupled statements: the stationary transfer of
radiance along straight rays, and the requirement that the radiative energy
flux be divergence free inside the body.  This package discretizes both and
solves the resulting non-local fixed-point problems in four regimes: pure
scattering, grey absorption (the constant case of frequency-dependent
absorption, solved by ``solve_spectral``), frequency-dependent absorption, and
combined scattering plus absorption.  Entropy-based diagnostics quantify how far a
computed state is from thermal equilibrium.

All physics is expressed in natural units (see :mod:`radbody.spectral`).
"""

from radbody.geometry import ConvexDomain
from radbody.quadrature import AngularGrid, SpatialGrid, SpectralGrid
from radbody.spectral import AbsorptionProfile
from radbody.transport import BoundarySource, MediumSpec
from radbody.solvers import (
    SolverReport,
    compute_H,
    oracle_solve,
    solve_combined,
    solve_scattering,
    solve_spectral,
)

__all__ = [
    "AbsorptionProfile",
    "AngularGrid",
    "BoundarySource",
    "ConvexDomain",
    "MediumSpec",
    "SolverReport",
    "SpatialGrid",
    "SpectralGrid",
    "compute_H",
    "oracle_solve",
    "solve_combined",
    "solve_scattering",
    "solve_spectral",
]

__version__ = "0.1.0"
