import pytest

from radbody import geometry, quadrature, spectral, transport
from radbody.solvers import Grids


@pytest.fixture(scope="session")
def unit_ball():
    return geometry.ConvexDomain.ball([0.0, 0.0, 0.0], 1.0)


@pytest.fixture(scope="session")
def ellipsoid_211():
    return geometry.ConvexDomain.ellipsoid([0.0, 0.0, 0.0], [2.0, 1.0, 1.0])


@pytest.fixture(scope="session")
def desk_grids(unit_ball):
    """Moderate shared resolution bundle for solver tests on the unit ball."""
    return Grids(
        spatial=quadrature.build_spatial(unit_ball, 0.125),
        angular=quadrature.build_angular(6, 12),
        spectral=quadrature.build_spectral(1.0, 32),
        ray_h=0.0625,
    )


@pytest.fixture(scope="session")
def beam_source():
    """Anisotropic nonnegative boundary source with a smooth spectrum."""
    return transport.BoundarySource.tabulated(
        spectrum=([0.5, 1.0, 3.0, 10.0], [0.5, 1.0, 0.7, 0.05]),
        axis=[0.0, 0.0, 1.0],
        angular_profile=([-1.0, 0.0, 1.0], [0.1, 0.4, 1.5]),
    )
