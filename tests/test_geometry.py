import numpy as np
import pytest

from radbody import geometry
from radbody.geometry import ConvexDomain


def random_interior(domain, rng, count, margin=0.02):
    """Uniform-ish sample of strictly interior points."""
    u = rng.normal(size=(count, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = rng.random((count, 1)) ** (1.0 / 3.0)
    return domain.center + (1.0 - margin) * domain.semi_axes * u * r


def random_directions(rng, count):
    n = rng.normal(size=(count, 3))
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def test_contains_examples(unit_ball):
    assert geometry.contains(unit_ball, [0.0, 0.0, 0.0])
    assert not geometry.contains(unit_ball, [2.0, 0.0, 0.0])
    # boundary points are not interior
    assert not geometry.contains(unit_ball, [1.0, 0.0, 0.0])


def test_backward_exit_examples(unit_ball, ellipsoid_211):
    hit = geometry.backward_exit(unit_ball, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(hit.entry_point, [-1.0, 0.0, 0.0], atol=1e-14)
    assert hit.path_length == pytest.approx(1.0, abs=1e-14)

    hit = geometry.backward_exit(unit_ball, [0.5, 0.0, 0.0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(hit.entry_point, [-1.0, 0.0, 0.0], atol=1e-14)
    assert hit.path_length == pytest.approx(1.5, abs=1e-14)

    hit = geometry.backward_exit(ellipsoid_211, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert hit.path_length == pytest.approx(2.0, abs=1e-14)


def test_backward_exit_errors(unit_ball):
    with pytest.raises(geometry.NotInterior):
        geometry.backward_exit(unit_ball, [1.5, 0.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(geometry.NotInterior):
        geometry.backward_exit(unit_ball, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(geometry.NotUnit):
        geometry.backward_exit(unit_ball, [0.0, 0.0, 0.0], [1.0, 1.0, 0.0])


def test_outward_normal_examples(unit_ball, ellipsoid_211):
    np.testing.assert_allclose(geometry.outward_normal(unit_ball, [1.0, 0.0, 0.0]),
                               [1.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(geometry.outward_normal(unit_ball, [0.0, -1.0, 0.0]),
                               [0.0, -1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(geometry.outward_normal(ellipsoid_211, [2.0, 0.0, 0.0]),
                               [1.0, 0.0, 0.0], atol=1e-14)
    with pytest.raises(geometry.NotOnBoundary):
        geometry.outward_normal(unit_ball, [0.5, 0.0, 0.0])


def test_diameter(unit_ball, ellipsoid_211):
    assert geometry.diameter(unit_ball) == 2.0
    assert geometry.diameter(ConvexDomain.ball([1, 2, 3], 3.0)) == 6.0
    assert geometry.diameter(ellipsoid_211) == 4.0


def test_invalid_shapes():
    with pytest.raises(ValueError):
        ConvexDomain.ball([0, 0, 0], 0.0)
    with pytest.raises(ValueError):
        ConvexDomain.ellipsoid([0, 0, 0], [1.0, -1.0, 1.0])


@pytest.mark.parametrize("shape", ["ball", "ellipsoid"])
def test_reconstruction_property(shape, unit_ball, ellipsoid_211):
    domain = unit_ball if shape == "ball" else ellipsoid_211
    rng = np.random.default_rng(101)
    x = random_interior(domain, rng, 10_000, margin=1e-6)
    n = random_directions(rng, 10_000)
    s = geometry.exit_lengths(domain, x, n)
    y = x - s[:, None] * n
    assert np.max(np.linalg.norm(x - (y + s[:, None] * n), axis=1)) <= 1e-10
    assert np.max(np.abs(geometry.shape_residual(domain, y))) <= 1e-10
    assert np.all(s >= 0.0)
    assert np.max(s) <= geometry.diameter(domain) * (1 + 1e-12)


@pytest.mark.parametrize("shape", ["ball", "ellipsoid"])
def test_direction_derivative_identity(shape, unit_ball, ellipsoid_211):
    # Central finite differences of the path length along the ray direction
    # must give exactly 1.
    domain = unit_ball if shape == "ball" else ellipsoid_211
    rng = np.random.default_rng(77)
    x = random_interior(domain, rng, 1000, margin=0.05)
    n = random_directions(rng, 1000)
    h = 1e-5
    fd = (geometry.exit_lengths(domain, x + h * n, n)
          - geometry.exit_lengths(domain, x - h * n, n)) / (2 * h)
    assert np.max(np.abs(fd - 1.0)) <= 1e-4


def test_monotone_along_ray(unit_ball):
    rng = np.random.default_rng(5)
    x = random_interior(unit_ball, rng, 200, margin=0.2)
    n = random_directions(rng, 200)
    eps = 1e-3
    s0 = geometry.exit_lengths(unit_ball, x, n)
    s1 = geometry.exit_lengths(unit_ball, x + eps * n, n)
    assert np.max(np.abs(s1 - (s0 + eps))) <= 1e-10


def test_boundary_chord(unit_ball):
    # chord through the center equals the diameter
    y = np.array([[1.0, 0.0, 0.0]])
    n = np.array([1.0, 0.0, 0.0])
    assert geometry.boundary_chord(unit_ball, y, n)[0] == pytest.approx(2.0, abs=1e-14)


def test_surface_quadrature_area(unit_ball, ellipsoid_211):
    from radbody.quadrature import build_angular

    ang = build_angular(24, 48)
    _, w, _ = geometry.surface_quadrature(unit_ball, ang.nodes, ang.weights)
    assert np.sum(w) == pytest.approx(4 * np.pi, rel=1e-12)
    # ellipsoid: compare against a near-exact reference value (Thomsen's
    # approximation is not exact, so integrate the area element densely)
    ang2 = build_angular(96, 192)
    _, w2, _ = geometry.surface_quadrature(ellipsoid_211, ang2.nodes, ang2.weights)
    _, w3, _ = geometry.surface_quadrature(ellipsoid_211, ang.nodes, ang.weights)
    assert np.sum(w3) == pytest.approx(np.sum(w2), rel=1e-6)
