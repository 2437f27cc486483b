"""Convex domains (balls and ellipsoids) with closed-form ray-exit queries.

Every formal solution of the transfer equation integrates along straight
backward rays.  For an interior point ``x`` and a unit direction ``n`` the
backward ray ``x - t*n`` (t >= 0) meets the boundary of a convex body exactly
once; we call that point the entry point ``y`` and the traveled distance the
path length ``s``, so that ``x = y + s*n``.

Both supported shapes are quadrics, so entry points come from one quadratic
per ray.  A ball is handled as the ellipsoid with three equal semi-axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance on unit-vector components, for matching direction nodes.
UNIT_TOL = 1e-12


@dataclass(frozen=True)
class ConvexDomain:
    """A ball or an axis-aligned ellipsoid.

    Attributes
    ----------
    shape : str
        Either ``"ball"`` or ``"ellipsoid"``.
    center : (3,) ndarray
    semi_axes : (3,) ndarray
        All equal to the radius for a ball; all strictly positive.
    """

    shape: str
    center: np.ndarray
    semi_axes: np.ndarray

    @classmethod
    def ball(cls, center, radius: float) -> "ConvexDomain":
        radius = float(radius)
        if radius <= 0.0:
            raise ValueError(f"ball radius must be positive, got {radius}")
        center = np.asarray(center, dtype=float).reshape(3)
        return cls("ball", center, np.full(3, radius))

    @classmethod
    def ellipsoid(cls, center, semi_axes) -> "ConvexDomain":
        center = np.asarray(center, dtype=float).reshape(3)
        axes = np.asarray(semi_axes, dtype=float).reshape(3)
        if np.any(axes <= 0.0):
            raise ValueError(f"semi-axes must be positive, got {axes}")
        return cls("ellipsoid", center, axes)

    @property
    def radius(self) -> float:
        if self.shape != "ball":
            raise AttributeError("radius is only defined for balls")
        return float(self.semi_axes[0])

    def volume(self) -> float:
        return float(4.0 / 3.0 * np.pi * np.prod(self.semi_axes))

    def surface_area_element(self, unit_dirs: np.ndarray) -> np.ndarray:
        """Area scale at boundary points parameterized by unit sphere dirs u.

        The boundary point is ``center + semi_axes * u`` and the surface
        measure is ``prod(axes) * |u / axes| dOmega(u)``.
        """
        u = np.asarray(unit_dirs, dtype=float)
        scaled = u / self.semi_axes
        return float(np.prod(self.semi_axes)) * np.linalg.norm(scaled, axis=-1)


def shape_residual(domain: ConvexDomain, x) -> np.ndarray | float:
    """F(x) = |(x - center)/axes|^2 - 1; negative inside, zero on boundary."""
    x = np.asarray(x, dtype=float)
    u = (x - domain.center) / domain.semi_axes
    return np.sum(u * u, axis=-1) - 1.0


def contains_many(domain: ConvexDomain, x: np.ndarray) -> np.ndarray:
    """True where ``x`` is strictly inside the domain (boundary excluded)."""
    return np.asarray(shape_residual(domain, x)) < 0.0


def diameter(domain: ConvexDomain) -> float:
    """Largest distance between two points of the closed domain."""
    return 2.0 * float(np.max(domain.semi_axes))


def exit_lengths(domain: ConvexDomain, x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Vectorized backward-exit distances s(x, n) for interior points.

    ``x`` and ``n`` broadcast against each other over leading axes; the last
    axis holds the 3 components.  No precondition checks: callers guarantee
    interior points and unit directions.
    """
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    u = (x - domain.center) / domain.semi_axes
    m = n / domain.semi_axes
    mm = np.sum(m * m, axis=-1)
    um = np.sum(u * m, axis=-1)
    uu = np.sum(u * u, axis=-1)
    disc = um * um - mm * (uu - 1.0)
    # Interior points give disc > 0; clip guards points within rounding of
    # the boundary.
    return (um + np.sqrt(np.maximum(disc, 0.0))) / mm


def outward_normals_many(domain: ConvexDomain, y: np.ndarray) -> np.ndarray:
    """Unit outward normals at boundary points ``y``."""
    grad = (np.asarray(y, dtype=float) - domain.center) / (domain.semi_axes**2)
    return grad / np.linalg.norm(grad, axis=-1, keepdims=True)


def boundary_chord(domain: ConvexDomain, y: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Chord length of the backward ray from boundary point(s) y along -n.

    For an outgoing direction (n . normal > 0) this is the distance to the
    opposite boundary crossing; the quadratic has roots 0 and the chord.
    """
    y = np.asarray(y, dtype=float)
    n = np.asarray(n, dtype=float)
    u = (y - domain.center) / domain.semi_axes
    m = n / domain.semi_axes
    mm = np.sum(m * m, axis=-1)
    um = np.sum(u * m, axis=-1)
    return np.maximum(2.0 * um / mm, 0.0)


def surface_quadrature(domain: ConvexDomain, unit_dirs: np.ndarray, dir_weights: np.ndarray):
    """Boundary quadrature induced by a unit-sphere rule.

    Returns ``(points, weights, normals)`` where the weights integrate over
    the boundary surface: sum(weights) approaches the surface area.
    """
    u = np.asarray(unit_dirs, dtype=float)
    points = domain.center + domain.semi_axes * u
    weights = np.asarray(dir_weights, dtype=float) * domain.surface_area_element(u)
    normals = outward_normals_many(domain, points)
    return points, weights, normals
