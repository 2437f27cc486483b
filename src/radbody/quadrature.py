"""Quadrature rules: unit sphere, frequency half-line, and the volume.

Every integral in the model becomes a weighted sum over one of these node
sets; line integrals along rays are ``transport.RaySweeper``'s.  Grids are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from radbody import geometry
from radbody.geometry import ConvexDomain


class TooCoarse(ValueError):
    """A resolution parameter is below the documented minimum."""


@dataclass(frozen=True)
class AngularGrid:
    """Unit-sphere rule: sum(weights) = 4pi and sum(weights*nodes) = 0."""

    nodes: np.ndarray  # (A, 3) unit vectors
    weights: np.ndarray  # (A,) positive

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class SpectralGrid:
    """Rule on [0, nu_max]; exact on constants: sum(weights) = nu_max."""

    nodes: np.ndarray  # (J,) strictly increasing, > 0
    weights: np.ndarray  # (J,) positive
    nu_max: float

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def _read_only(*arrays):
    """The arrays, made read-only: rules and grids are shared, never written."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], ``(nodes, weights)``,
    computed once per degree."""
    return _read_only(*leggauss(n))


def build_angular(n_polar: int, n_azimuth: int) -> AngularGrid:
    """Product rule: Gauss-Legendre in cos(theta) times uniform azimuth."""
    if n_polar < 2 or n_azimuth < 4:
        raise TooCoarse(f"need n_polar >= 2 and n_azimuth >= 4, got ({n_polar}, {n_azimuth})")
    mu, wmu = gauss_legendre(n_polar)
    phi = (np.arange(n_azimuth) + 0.5) * (2.0 * np.pi / n_azimuth)
    sin_t = np.sqrt(1.0 - mu**2)
    nx = np.outer(sin_t, np.cos(phi)).ravel()
    ny = np.outer(sin_t, np.sin(phi)).ravel()
    nz = np.repeat(mu, n_azimuth)
    nodes = np.column_stack([nx, ny, nz])
    weights = np.repeat(wmu, n_azimuth) * (2.0 * np.pi / n_azimuth)
    return AngularGrid(nodes=nodes, weights=weights)


def spectral_cutoff(T_ref: float) -> float:
    """nu_max = 50 T_ref, the top of the spectral grid; ValueError unless finite and > 0."""
    nu_max = 50.0 * float(T_ref)
    if not 0.0 < nu_max < np.inf:
        raise ValueError(f"50 T_ref = {nu_max} must be finite and positive")
    return nu_max


def build_spectral(T_ref: float, n_nodes: int) -> SpectralGrid:
    """Composite Gauss-Legendre on [0, 50*T_ref], panels halving toward 0."""
    if n_nodes < 8:
        raise TooCoarse(f"need n_nodes >= 8, got {n_nodes}")
    nu_max = spectral_cutoff(T_ref)
    n_panels = max(1, min(n_nodes // 8, 10))
    edges = nu_max * np.concatenate([[0.0], 0.5 ** np.arange(n_panels - 1, -1.0, -1.0)])
    base, extra = divmod(n_nodes, n_panels)
    nodes_list, weights_list = [], []
    for p in range(n_panels):
        k = base + (1 if p < extra else 0)
        gx, gw = gauss_legendre(k)
        a, b = edges[p], edges[p + 1]
        nodes_list.append(0.5 * (b - a) * gx + 0.5 * (a + b))
        weights_list.append(0.5 * (b - a) * gw)
    nodes, weights = _read_only(np.concatenate(nodes_list), np.concatenate(weights_list))
    return SpectralGrid(nodes=nodes, weights=weights, nu_max=nu_max)


def single_frequency_grid(nu: float) -> SpectralGrid:
    """Unit-weight single-line grid, for monochromatic runs and tests."""
    return SpectralGrid(nodes=np.array([float(nu)]), weights=np.array([1.0]), nu_max=float(nu))


@dataclass(frozen=True)
class SpatialGrid:
    """Cubic lattice of spacing h restricted to cell centers inside the body.

    The lattice is centered: one cell center coincides with the domain
    center, so the node layout inherits the body's reflection symmetries.
    Interior nodes are stored in C order of the bounding box.
    """

    h: float
    origin: np.ndarray  # center of box cell (0, 0, 0)
    box_shape: tuple
    inside: np.ndarray  # bool over the box
    centers: np.ndarray  # (M, 3)
    flat_index: np.ndarray  # (M,) flat box index per node
    token: str  # hex of h, origin, box shape and packed mask: the kernel caches' key

    @property
    def n_nodes(self) -> int:
        return self.centers.shape[0]

    @property
    def cell_volume(self) -> float:
        return self.h**3

    def node_values_to_box(self, values: np.ndarray, outside: float = 0.0) -> np.ndarray:
        """Scatter node values into the bounding box (outside cells filled)."""
        values = np.asarray(values, dtype=float)
        box = np.full(self.box_shape + values.shape[1:], outside)
        box.reshape(-1, *values.shape[1:])[self.flat_index] = values
        return box

    def embed(self, values: np.ndarray, halo_passes: int = 3) -> np.ndarray:
        """Box array of node values with a nearest-neighbor halo outside.

        Ray samples clamped to the node hull read the halo; averaging
        neighbor values never overshoots the range of interior values.
        """
        box = self.node_values_to_box(values, outside=np.nan)
        for _ in range(halo_passes):
            hole = np.isnan(box)
            if not np.any(hole):
                break
            acc = np.zeros(box.shape)
            counts = np.zeros(box.shape)
            for axis in range(3):
                for shift in (1, -1):
                    rolled = np.roll(box, shift, axis=axis)
                    # Blank the wrapped slab so the fill never crosses the box.
                    sl = [slice(None)] * 3
                    sl[axis] = slice(0, 1) if shift == 1 else slice(-1, None)
                    rolled[tuple(sl)] = np.nan
                    good = ~np.isnan(rolled)
                    acc[good] += rolled[good]
                    counts += good
            fill = hole & (counts > 0)
            box[fill] = acc[fill] / counts[fill]
        box[np.isnan(box)] = 0.0
        return box

    def sample(self, points: np.ndarray):
        """Trilinear stencils at points (P, 3): ``(indices, weights)``, each (P, 8).

        ``indices`` (int32) are the flat box indices of the 8 corners of each
        point's cell, corner (dx, dy, dz) in {0, 1}^3 in the order
        4 dx + 2 dy + dz, and ``weights`` their trilinear weights: a box array's
        interpolant at point p is ``weights[p] @ box.reshape(-1)[indices[p]]``.
        Fractional indices are clamped to the box hull.
        """
        shape = np.array(self.box_shape)
        # Per axis (3, P) and per corner (8, P): every operation runs over contiguous points.
        f = (np.asarray(points, dtype=float).T - self.origin[:, None]) / self.h
        np.clip(f, 0.0, shape[:, None] - 1.0, out=f)
        i0 = np.minimum(f.astype(np.int32), (shape[:, None] - 2).astype(np.int32))
        t = np.subtract(f, i0, out=f)
        ny, nz = int(shape[1]), int(shape[2])
        d = np.arange(2, dtype=np.int32)
        offsets = (d[:, None, None] * (ny * nz) + d[None, :, None] * nz + d).reshape(-1)
        indices = offsets[:, None] + ((i0[0] * ny + i0[1]) * nz + i0[2])
        tt = np.stack([1.0 - t, t])  # (2, 3, P)
        weights = tt[:, None, None, 0] * tt[None, :, None, 1] * tt[None, None, :, 2]
        return np.ascontiguousarray(indices.T), np.ascontiguousarray(weights.reshape(8, -1).T)


def check_spacing(domain: ConvexDomain, h: float):
    """Raise ``TooCoarse`` if h > diameter/4, ``ValueError`` if the bounding box (counted
    in floats) holds 2^31 cells or more, where ``SpatialGrid.sample``'s int32 indices wrap."""
    if h > geometry.diameter(domain) / 4.0:
        raise TooCoarse(f"h = {h} exceeds diameter/4 = {geometry.diameter(domain) / 4.0}")
    with np.errstate(over="ignore"):
        cells = float(np.prod(2.0 * np.ceil(domain.semi_axes / h) + 1.0))
    if cells >= 2.0**31:
        raise ValueError(f"h = {h} gives a bounding box of {cells:.3g} cells, not below 2^31")


def build_spatial(domain: ConvexDomain, h: float) -> SpatialGrid:
    """Centered cubic lattice of spacing h; keeps strictly interior centers."""
    h = float(h)
    if h <= 0.0:
        raise ValueError("h must be positive")
    check_spacing(domain, h)
    half = np.ceil(domain.semi_axes / h).astype(int)
    box_shape = tuple(2 * half + 1)
    origin = domain.center - half * h
    axes_idx = [np.arange(box_shape[a]) for a in range(3)]
    coords = np.stack(np.meshgrid(*axes_idx, indexing="ij"), axis=-1)
    centers_box = origin + coords * h
    inside = geometry.contains_many(domain, centers_box)
    flat_index = np.flatnonzero(inside.ravel())
    centers = centers_box.reshape(-1, 3)[flat_index]
    # The fingerprint itself, not a digest of it: hashing would load OpenSSL.
    token = (np.array([h, *origin, *box_shape]).tobytes()
             + np.packbits(inside.ravel()).tobytes()).hex()
    return SpatialGrid(
        h=h,
        origin=origin,
        box_shape=box_shape,
        inside=inside,
        centers=centers,
        flat_index=flat_index,
        token=token,
    )
