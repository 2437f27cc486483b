"""Integral operators of the transfer problem on discrete grids.

Two equivalent evaluation routes are provided for the emission/absorption
balance and used deliberately side by side:

* a lattice-convolution route: the attenuated volume kernel
  ``(beta/4pi) exp(-beta r)/r^2`` is tabulated as a stencil (with the
  integrable singularity replaced by its exact integral over the
  volume-equivalent ball) and applied with FFT convolutions;
* a ray route: ``RaySweeper`` evaluates the formal solution
  g e^{-beta s} + integral of the attenuated source along backward rays,
  with Simpson weights and trilinear interpolation of nodal fields.  It is
  the only code that does: per direction, over all directions at once, and
  along boundary chords (rays that start on the boundary).

Solvers iterate the convolution route; the angular solvers, the oracle and
the diagnostics sweep rays, and the ray route serves as a consistency check.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from radbody import geometry, spectral
from radbody.geometry import ConvexDomain
from radbody.quadrature import AngularGrid, SpatialGrid, SpectralGrid
from radbody.spectral import AbsorptionProfile

FOUR_PI = 4.0 * np.pi

# Stencil entries within this Chebyshev cell range of the singularity are
# integrated over the source cell by graded midpoint subdivision (closer
# cells get more subcells); beyond the range a two-point Gauss rule per cell
# axis is accurate.
NEAR_RANGE = 4
NEAR_SUBDIV = 16


@dataclass(frozen=True)
class ScalarField:
    """Nodal scalar values with a role marker ("sigma_T4", "f_of_T", ...)."""

    values: np.ndarray
    role: str = "scalar"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class RadiationField:
    """Radiance samples I[node, direction, frequency]; nonnegative, finite."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3:
            raise ValueError("radiation field must have shape (nodes, angles, frequencies)")
        object.__setattr__(self, "values", v)

    def validate(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("radiation field contains non-finite values")
        if np.any(self.values < 0.0):
            raise ValueError("radiation field contains negative values")


@dataclass(frozen=True)
class MediumSpec:
    """Absorption/scattering coefficients and the angular scattering kernel.

    ``kernel`` is either the string ``"isotropic"`` (K = 1/4pi) or a pair of
    tables ``(cos_theta, phase)`` interpolated in the scattering-angle cosine
    and renormalized on the angular grid so that every column integrates to 1.
    """

    absorption: AbsorptionProfile
    scattering: AbsorptionProfile
    kernel: object = "isotropic"

    @property
    def is_isotropic(self) -> bool:
        return isinstance(self.kernel, str) and self.kernel == "isotropic"

    def kernel_matrix(self, angular: AngularGrid):
        """(K, correction): K[i, i'] with sum_i w_i K[i, i'] = 1 per column.

        The correction is the largest relative renormalization applied to a
        column of the raw tabulated kernel (0 for the isotropic kernel).
        """
        if self.is_isotropic:
            K = np.full((angular.n_nodes, angular.n_nodes), 1.0 / FOUR_PI)
            return K, 0.0
        mu_tab, p_tab = self.kernel
        mu_tab = np.asarray(mu_tab, dtype=float)
        p_tab = np.asarray(p_tab, dtype=float)
        if np.any(p_tab < 0.0):
            raise ValueError("scattering phase table must be nonnegative")
        cosines = np.clip(angular.nodes @ angular.nodes.T, -1.0, 1.0)
        K = np.interp(cosines, mu_tab, p_tab)
        mass = angular.weights @ K  # per column i'
        if np.any(mass <= 0.0):
            raise ValueError("scattering kernel column with zero mass")
        correction = float(np.max(np.abs(mass - 1.0)))
        return K / mass, correction


class BoundarySource:
    """Incoming radiance g(x, n, nu) on the boundary for n . n_x < 0.

    Supported variants are position independent: zero, a constant isotropic
    value, blackbody equilibrium at a fixed temperature, and a tabulated
    product form  S(nu) * A(n . axis)  describing a spectral table modulated
    by a beam profile around a unit axis.
    """

    def __init__(self, kind: str, *, value: float = 0.0, temperature: float = 0.0,
                 spectrum=None, axis=None, angular_profile=None, scale: float = 1.0):
        if kind not in ("zero", "constant", "equilibrium", "tabulated"):
            raise ValueError(f"unknown boundary source kind {kind!r}")
        self.kind = kind
        self.value = float(value)
        self.temperature = float(temperature)
        self.scale = float(scale)
        if kind == "tabulated":
            nus, svals = spectrum
            self.spectrum_nu = np.asarray(nus, dtype=float)
            self.spectrum_val = np.asarray(svals, dtype=float)
            if np.any(self.spectrum_val < 0.0):
                raise ValueError("boundary spectrum must be nonnegative")
            if axis is None:
                self.axis = None
                self.profile_mu = None
                self.profile_val = None
            else:
                self.axis = np.asarray(axis, dtype=float)
                self.axis = self.axis / np.linalg.norm(self.axis)
                mus, avals = angular_profile
                self.profile_mu = np.asarray(mus, dtype=float)
                self.profile_val = np.asarray(avals, dtype=float)
                if np.any(self.profile_val < 0.0):
                    raise ValueError("boundary angular profile must be nonnegative")

    @classmethod
    def zero(cls) -> "BoundarySource":
        return cls("zero")

    @classmethod
    def constant(cls, value: float) -> "BoundarySource":
        if value < 0.0:
            raise ValueError("boundary radiance must be nonnegative")
        return cls("constant", value=value)

    @classmethod
    def equilibrium(cls, temperature: float) -> "BoundarySource":
        if temperature < 0.0:
            raise ValueError("equilibrium temperature must be nonnegative")
        return cls("equilibrium", temperature=temperature)

    @classmethod
    def tabulated(cls, spectrum, axis=None, angular_profile=None) -> "BoundarySource":
        return cls("tabulated", spectrum=spectrum, axis=axis, angular_profile=angular_profile)

    @property
    def is_isotropic(self) -> bool:
        return self.kind in ("zero", "constant", "equilibrium") or (
            self.kind == "tabulated" and self.axis is None
        )

    def scaled(self, factor: float) -> "BoundarySource":
        out = BoundarySource.__new__(BoundarySource)
        out.__dict__.update(self.__dict__)
        out.scale = self.scale * float(factor)
        return out

    def spectral_values(self, nus: np.ndarray) -> np.ndarray:
        """Direction-independent spectral factor, shape (J,)."""
        nus = np.asarray(nus, dtype=float)
        if self.kind == "zero":
            return np.zeros(nus.shape)
        if self.kind == "constant":
            return np.full(nus.shape, self.value * self.scale)
        if self.kind == "equilibrium":
            if self.temperature == 0.0:
                return np.zeros(nus.shape)
            return self.scale * spectral.planck(nus, self.temperature)
        return self.scale * np.interp(nus, self.spectrum_nu, self.spectrum_val)

    def evaluate(self, dirs: np.ndarray, nus: np.ndarray) -> np.ndarray:
        """Radiance table over (directions, frequencies), shape (A, J)."""
        spec_vals = self.spectral_values(nus)
        dirs = np.asarray(dirs, dtype=float)
        if self.is_isotropic:
            return np.broadcast_to(spec_vals, (dirs.shape[0], spec_vals.shape[0])).copy()
        mu = dirs @ self.axis
        ang = np.interp(mu, self.profile_mu, self.profile_val)
        return np.outer(ang, spec_vals)


# ---------------------------------------------------------------------------
# Attenuated volume kernel on the lattice
# ---------------------------------------------------------------------------

_SELF_WEIGHT_FACE: tuple | None = None


def _cube_self_weight(beta: float, h: float) -> float:
    """Self-cell weight: (beta/4pi) * integral of e^{-beta r}/r^2 over the
    cubic cell itself.

    Written in its angular form (1/4pi) int (1 - e^{-beta R(u)}) dn with
    R(u) the distance to the cube boundary, then projected onto the six
    faces where the integrand is smooth:

        6/(4pi) * int_face (1 - e^{-beta R}) (h/2) / R^3 dx dy,
        R = sqrt(x^2 + y^2 + (h/2)^2).

    The volume-equivalent-ball shortcut would leave a first-order mass
    defect on the cube; this form is exact to quadrature precision.
    """
    global _SELF_WEIGHT_FACE
    if _SELF_WEIGHT_FACE is None:
        from numpy.polynomial.legendre import leggauss

        gx, gw = leggauss(48)
        X, Y = np.meshgrid(gx, gx, indexing="ij")
        W = np.outer(gw, gw)
        _SELF_WEIGHT_FACE = (X, Y, W)
    X, Y, W = _SELF_WEIGHT_FACE
    x = 0.5 * h * X  # face coordinates in [-h/2, h/2], Jacobian (h/2)^2
    y = 0.5 * h * Y
    R = np.sqrt(x * x + y * y + 0.25 * h * h)
    vals = -np.expm1(-beta * R) * (0.5 * h) / R**3
    return 6.0 / FOUR_PI * (0.25 * h * h) * float(np.sum(W * vals))


# Lattice axes of box arrays; leading axes, if any, are channels.
_BOX_AXES = (-3, -2, -1)


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n, the value scipy.fft.next_fast_len
    returns: numpy.fft factors such a length into radix-2 to radix-11 passes."""
    m = max(int(n), 1)
    while True:
        k = m
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


class AttenuationOperator:
    """f |-> (beta/4pi) * integral over the body of exp(-beta r)/r^2 f.

    Tabulated as a stencil over lattice offsets and applied by FFT
    convolution.  Near-singular entries integrate the kernel over the source
    cell by midpoint subdivision; the self entry is the exact integral over
    the cubic cell itself (``_cube_self_weight``).
    """

    def __init__(self, grid: SpatialGrid, beta: float):
        self.grid = grid
        self.beta = float(beta)
        self._row_mass = None
        h = grid.h
        nx, ny, nz = grid.box_shape
        if self.beta == 0.0:
            self.stencil = np.zeros((2 * nx - 1, 2 * ny - 1, 2 * nz - 1))
            return
        # Far field: tensor two-point Gauss rule per source cell (4th order).
        # The Gauss points sit symmetrically in each cell, so the sum depends
        # on |offset| per axis only: evaluate it on the octant of offsets >= 0
        # and mirror that into the full box.
        gauss = 0.5 * h / np.sqrt(3.0)
        kx, ky, kz = (np.arange(n) * h for n in (nx, ny, nz))
        octant = np.zeros((nx, ny, nz))
        for sx in (-gauss, gauss):
            for sy in (-gauss, gauss):
                for sz in (-gauss, gauss):
                    r2 = (
                        (kx + sx)[:, None, None] ** 2
                        + (ky + sy)[None, :, None] ** 2
                        + (kz + sz)[None, None, :] ** 2
                    )
                    octant += np.exp(-self.beta * np.sqrt(r2)) / r2
        octant *= self.beta / FOUR_PI * h**3 / 8.0
        stencil = octant[np.ix_(*(np.abs(np.arange(1 - n, n)) for n in (nx, ny, nz)))]
        # Near-field refinement: composite two-point Gauss on subcells, with
        # the subcell count graded by the Chebyshev distance d of the offset.
        # Offsets beyond the box extent (thin bodies) have no stencil entry.
        reach = np.minimum(NEAR_RANGE, np.array(grid.box_shape) - 1)
        offsets = np.stack(np.meshgrid(*(np.arange(-r, r + 1) for r in reach),
                                       indexing="ij"), axis=-1).reshape(-1, 3)
        cheb = np.max(np.abs(offsets), axis=1)
        for d in range(1, NEAR_RANGE + 1):
            o = offsets[cheb == d]
            q = max(2, int(np.ceil(NEAR_SUBDIV / (2 * d))))
            cell = ((np.arange(q) + 0.5) / q - 0.5) * h
            pts = (cell[:, None] + np.array([-1.0, 1.0]) * (h / (2 * q * np.sqrt(3.0)))).ravel()
            p = o[:, :, None] * h + pts  # (K, 3, points per axis)
            rr2 = (p[:, 0, :, None, None] ** 2 + p[:, 1, None, :, None] ** 2
                   + p[:, 2, None, None, :] ** 2)
            # In place, to bound transient memory: the d = 1 shell alone
            # holds 26 x 16^3 points.
            kern = np.sqrt(rr2)
            kern *= -self.beta
            np.exp(kern, out=kern)
            kern /= rr2
            val = np.mean(kern, axis=(1, 2, 3))
            stencil[nx - 1 + o[:, 0], ny - 1 + o[:, 1], nz - 1 + o[:, 2]] = (
                self.beta / FOUR_PI * val * h**3
            )
        stencil[nx - 1, ny - 1, nz - 1] = _cube_self_weight(self.beta, h)
        self.stencil = stencil
        # FFT of the stencil at the cyclic shape, computed once.  A cyclic
        # length of 2n - 1 per axis holds every stencil offset, so the crop
        # [n - 1, 2n - 1) of the cyclic convolution sees no wrapped terms.
        self.fshape = tuple(_next_fast_len(2 * n - 1) for n in grid.box_shape)
        self.kernel_hat = np.fft.rfftn(stencil, s=self.fshape, axes=_BOX_AXES)

    def apply_box(self, box: np.ndarray) -> np.ndarray:
        """Convolve box arrays; trailing grid axes, optional leading channels."""
        if self.beta == 0.0:
            return np.zeros(box.shape)
        fhat = np.fft.rfftn(box, s=self.fshape, axes=_BOX_AXES)
        return _crop(np.fft.irfftn(fhat * self.kernel_hat, s=self.fshape, axes=_BOX_AXES),
                     self.grid.box_shape)

    def apply(self, node_values: np.ndarray) -> np.ndarray:
        box = self.grid.node_values_to_box(node_values)
        out = self.apply_box(box)
        return out.reshape(-1)[self.grid.flat_index]

    def row_mass(self) -> np.ndarray:
        """Discrete mass (beta/4pi) * integral of the kernel over the body.

        Computed once per operator; the array is read-only because every
        caller shares it.
        """
        if self._row_mass is None:
            self._row_mass = self.apply(np.ones(self.grid.n_nodes))
            self._row_mass.flags.writeable = False
        return self._row_mass


def _crop(full: np.ndarray, box_shape: tuple) -> np.ndarray:
    """The box part [n - 1, 2n - 1) of a cyclic convolution with the stencil."""
    nx, ny, nz = box_shape
    return full[..., nx - 1:2 * nx - 1, ny - 1:2 * ny - 1, nz - 1:2 * nz - 1]


_OPERATOR_CACHE: "OrderedDict[tuple, AttenuationOperator]" = OrderedDict()
_OPERATOR_CACHE_MAX = 80


def attenuation_operator(grid: SpatialGrid, beta: float) -> AttenuationOperator:
    """Cached stencil operator, keyed by grid fingerprint and decay rate."""
    key = (grid.token, float(beta))
    op = _OPERATOR_CACHE.get(key)
    if op is None:
        op = AttenuationOperator(grid, beta)
        _OPERATOR_CACHE[key] = op
        while len(_OPERATOR_CACHE) > _OPERATOR_CACHE_MAX:
            _OPERATOR_CACHE.popitem(last=False)
    return op


def apply_attenuation_batch(grid: SpatialGrid, betas: np.ndarray,
                            fields: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Apply the per-channel attenuation operator to nodal fields (C, M).

    With ``weights`` (C,) the weighted channel sum  sum_c w_c conv_c(f_c),
    shape (M,), is returned instead: channels sharing a decay rate (and so
    a cached stencil) are summed before their transform, the others in
    Fourier space, so one inverse transform serves all channels.
    Transforms are batched in chunks sized to bound transient FFT memory.
    """
    betas = np.asarray(betas, dtype=float)
    C, M = fields.shape
    if weights is not None:
        betas, group = np.unique(betas, return_inverse=True)
        summed = np.zeros((betas.size, M))
        np.add.at(summed, group, np.asarray(weights, dtype=float)[:, None] * fields)
        fields, C = summed, betas.size
    out = np.zeros((C, M) if weights is None else M)
    live = [c for c in range(C) if betas[c] > 0.0]
    if not live:
        return out
    ops = {c: attenuation_operator(grid, betas[c]) for c in live}
    fshape = ops[live[0]].fshape
    # ~16 bytes/complex sample; keep the batch under ~128 MB.
    per_channel = 16 * np.prod(fshape)
    chunk = max(1, int((128 << 20) / max(per_channel, 1)))
    acc = 0.0
    for lo in range(0, len(live), chunk):
        sel = live[lo:lo + chunk]
        boxes = np.zeros((len(sel),) + grid.box_shape)
        boxes.reshape(len(sel), -1)[:, grid.flat_index] = fields[sel]
        fhat = np.fft.rfftn(boxes, s=fshape, axes=_BOX_AXES)
        for k, c in enumerate(sel):
            fhat[k] *= ops[c].kernel_hat
        if weights is None:
            crop = _crop(np.fft.irfftn(fhat, s=fshape, axes=_BOX_AXES), grid.box_shape)
            out[sel] = crop.reshape(len(sel), -1)[:, grid.flat_index]
        else:
            acc += fhat.sum(axis=0)
    if weights is not None:
        crop = _crop(np.fft.irfftn(acc, s=fshape, axes=_BOX_AXES), grid.box_shape)
        out = crop.reshape(-1)[grid.flat_index]
    return out


def _node_index(grid: SpatialGrid, x) -> int:
    x = np.asarray(x, dtype=float).reshape(3)
    idx = np.rint((x - grid.origin) / grid.h).astype(int)
    if np.any(idx < 0) or np.any(idx >= np.array(grid.box_shape)):
        raise ValueError(f"{x} is not a node of the grid")
    flat = int(np.ravel_multi_index(tuple(idx), grid.box_shape))
    pos = np.searchsorted(grid.flat_index, flat)
    if pos >= grid.flat_index.size or grid.flat_index[pos] != flat:
        raise ValueError(f"{x} is not an interior node of the grid")
    if np.max(np.abs(grid.centers[pos] - x)) > 1e-9 * max(1.0, grid.h):
        raise ValueError(f"{x} is not a node of the grid")
    return int(pos)


# ---------------------------------------------------------------------------
# Boundary attenuation terms
# ---------------------------------------------------------------------------


def boundary_attenuation_nodes(
    domain: ConvexDomain,
    grid: SpatialGrid,
    g: BoundarySource,
    rates: np.ndarray,
    angular: AngularGrid,
    spectral_grid: SpectralGrid,
    mass_fields: list[np.ndarray] | None = None,
) -> np.ndarray:
    """(1/4pi) * integral dn of g_nu(n) exp(-rate_j s(x,n)) at all nodes, (M, J).

    For isotropic sources with precomputed kernel row masses the identity
    (1/4pi) int exp(-b s) dn = 1 - (b/4pi) int_Omega exp(-b r)/r^2 d_eta
    is used so that the boundary and volume terms share one discretization;
    a constant blackbody boundary is then an exact discrete fixed point.
    """
    J = spectral_grid.n_nodes
    gj = None
    if g.is_isotropic:
        gj = g.spectral_values(spectral_grid.nodes)  # (J,)
    if gj is not None and mass_fields is not None:
        out = np.empty((grid.n_nodes, J))
        for j in range(J):
            out[:, j] = gj[j] * (1.0 - mass_fields[j])
        return out
    out = np.zeros((grid.n_nodes, J))
    gvals = g.evaluate(angular.nodes, spectral_grid.nodes)  # (A, J)
    for i in range(angular.n_nodes):
        s = geometry.exit_lengths(domain, grid.centers, angular.nodes[i])  # (M,)
        att = np.exp(-np.outer(s, rates))  # (M, J)
        out += (angular.weights[i] / FOUR_PI) * att * gvals[i]
    return out


# ---------------------------------------------------------------------------
# Ray marching
# ---------------------------------------------------------------------------


class RaySweeper:
    """Formal solutions of the transfer equation along backward rays.

    A ray ending at x (a node, or a boundary point for a chord) in direction
    n enters the body at y = x - s n, and the radiance there is

        I(x, n) = g e^{-rate s} + integral_0^s e^{-rate (s - xi)} source(y + xi n) dxi,

    one value per channel with its own decay rate.  The integral uses
    uniform Simpson nodes xi on [0, s]; sources are box arrays read through
    the grid's trilinear sampling operator.  Rays from the nodes are static
    across iterations, so their design per direction (path lengths, Simpson
    weights, depths and the sampling operator at the samples) is cached up
    to a memory budget.
    """

    def __init__(self, domain: ConvexDomain, grid: SpatialGrid, angular: AngularGrid,
                 ray_h: float | None = None, cache_bytes: int = 256 << 20):
        self.domain = domain
        self.grid = grid
        self.angular = angular
        self.ray_h = float(ray_h) if ray_h is not None else geometry.diameter(domain) / 128.0
        self._cache: dict[int, tuple] = {}
        self._cache_budget = int(cache_bytes)
        self._cache_used = 0

    def path_lengths(self, i: int) -> np.ndarray:
        """Backward path length s(x, n_i) to the boundary from every node, (M,)."""
        return geometry.exit_lengths(self.domain, self.grid.centers, self.angular.nodes[i])

    def _design(self, i: int):
        cached = self._cache.get(i)
        if cached is not None:
            return cached
        design = self._ray_design(self.grid.centers, self.path_lengths(i), self.angular.nodes[i])
        s, starts, G, base_w, depth = design
        nbytes = sum(a.nbytes for a in (s, starts, G.data, G.indices, G.indptr, base_w, depth))
        if self._cache_used + nbytes <= self._cache_budget:
            self._cache[i] = design
            self._cache_used += nbytes
        return design

    def _ray_design(self, end_points: np.ndarray, s: np.ndarray, direction: np.ndarray):
        """Simpson samples of the rays of lengths ``s`` ending at ``end_points``.

        Returns ``(s, starts, G, base_w, depth)``: the lengths, the first
        sample of each ray, the trilinear sampling operator at the samples,
        and per sample its Simpson weight and distance to the ray's end.
        """
        n_int = np.maximum(np.ceil(s / self.ray_h).astype(int), 2)
        n_int += n_int % 2
        counts = n_int + 1
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        total = int(np.sum(counts))
        ray_of = np.repeat(np.arange(s.size), counts)
        k = np.arange(total) - starts[ray_of]
        nn = n_int[ray_of]
        xi = s[ray_of] * (k / nn)
        # Composite Simpson coefficients 1,4,2,...,4,1 scaled by s/(3n).
        coeff = np.where((k == 0) | (k == nn), 1.0, np.where(k % 2 == 1, 4.0, 2.0))
        base_w = coeff * s[ray_of] / (3.0 * nn)
        depth = s[ray_of] - xi
        pos = end_points[ray_of] - depth[:, None] * direction
        return s, starts, self.grid.sample(pos), base_w, depth

    def _integrate(self, design, box: np.ndarray, rates):
        """Per-ray integral of exp(-rate depth) * source over the design's samples.

        The sweep is linear in the box: for each distinct rate u it is the
        sparse (rays, N_box) matrix  W_u = R diag(base_w e^{-u depth}) G,  with
        G the trilinear sampling operator at the ray samples and R the sum
        over each ray's samples.  W_u keeps G's column indices and entries,
        scaled per sample, under a row pointer per ray; CSR sums the
        repeated corner columns in the product.
        """
        from scipy import sparse

        s, starts, G, base_w, depth = design
        n_box = G.shape[1]
        indptr = (8 * np.append(starts, base_w.size)).astype(G.indices.dtype)
        corner_w = G.data.reshape(-1, 8)
        flat_box = box.reshape(n_box, -1)
        rates_arr = np.broadcast_to(np.asarray(rates, dtype=float), flat_box.shape[1:])
        contrib = np.empty((s.size, flat_box.shape[1]))
        for u in np.unique(rates_arr):
            data = (corner_w * (base_w * np.exp(-u * depth))[:, None]).reshape(-1)
            W_u = sparse.csr_matrix((data, G.indices, indptr), shape=(s.size, n_box))
            sel = rates_arr == u
            contrib[:, sel] = W_u @ flat_box[:, sel]
        if np.isscalar(rates) or np.asarray(rates).ndim == 0:
            return contrib[:, 0]
        return contrib

    def line_integrals(self, i: int, box: np.ndarray, rates: np.ndarray):
        """Per-node integral of exp(-rate (s - xi)) * source(xi) per channel.

        ``box`` has shape (nx, ny, nz) or (nx, ny, nz, C); ``rates`` has one
        decay rate per channel.  Returns ``(values (M, C) or (M,), s (M,))``.
        """
        design = self._design(i)
        return self._integrate(design, box, rates), design[0]

    def radiance(self, i: int, box: np.ndarray, rates: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Formal solution at every node for direction i, (M, C).

        ``g`` is the boundary radiance entering along the direction, one
        value per channel; ``box`` holds the source.
        """
        contrib, s = self.line_integrals(i, box, rates)
        return _attenuated(g, s, rates) + contrib

    def sweep(self, Phi: np.ndarray, rates: np.ndarray, gvals: np.ndarray) -> np.ndarray:
        """Formal solution for every direction, (M, A, J).

        Direction i reads its source from ``Phi[:, i, :]`` (nodal values,
        embedded into a box) and its boundary radiance from ``gvals[i]``.
        """
        out = np.empty(Phi.shape)
        for i in range(self.angular.n_nodes):
            out[:, i, :] = self.radiance(i, self.grid.embed(Phi[:, i, :]), rates, gvals[i])
        return out

    def boundary_term(self, rates: np.ndarray, gvals: np.ndarray) -> np.ndarray:
        """Formal solution without sources, g_i e^{-rate s}, for every direction, (M, A, J)."""
        return np.stack([_attenuated(gvals[i], self.path_lengths(i), rates)
                         for i in range(self.angular.n_nodes)], axis=1)

    def chord_radiance(self, i: int, points: np.ndarray, box: np.ndarray,
                       rates: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Formal solution at boundary points where direction i leaves the body.

        Each ray starts on the boundary and spans the full chord ending at
        its point; returns (points, C).
        """
        n = self.angular.nodes[i]
        chords = geometry.boundary_chord(self.domain, points, n)
        contrib = self._integrate(self._ray_design(points, chords, n), box, rates)
        return _attenuated(g, chords, rates) + contrib


def _attenuated(g, s: np.ndarray, rates) -> np.ndarray:
    """Boundary radiance g carried a path s with decay rates: g e^{-rate s}."""
    return np.exp(-np.outer(s, rates)) * g


def flux(I: RadiationField, m: int, angular: AngularGrid, spectral_grid: SpectralGrid) -> np.ndarray:
    """Radiative energy flux vector at node m: double quadrature of n * I."""
    return np.einsum("j,i,ic,ij->c", spectral_grid.weights, angular.weights,
                     angular.nodes, I.values[m])


# ---------------------------------------------------------------------------
# Fixed-point defect (conservation residual)
# ---------------------------------------------------------------------------


def scattered_mean_intensity(
    grid: SpatialGrid,
    spectral_grid: SpectralGrid,
    alpha_a: np.ndarray,
    alpha_s: np.ndarray,
    B: np.ndarray,
    b4pi: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 2000,
    init: np.ndarray | None = None,
):
    """Angle-integrated radiance J0 of the linear transport problem at fixed T.

    Solves, per frequency, the closed equation (isotropic scattering)

        J0 = b4pi + integral e^{-beta r}/r^2 [alpha_a B + (alpha_s/4pi) J0],

    by Picard iteration with the lattice kernel.  Emission B and the
    boundary term b4pi are (M, J) arrays; returns (J0, iterations).
    """
    M, J = B.shape
    beta = alpha_a + alpha_s
    J0 = np.zeros((M, J)) if init is None else init.copy()
    scale = max(float(np.max(np.abs(b4pi))) + float(np.max(np.abs(B))), 1e-300)
    its = 0
    for it in range(max_iter):
        its = it + 1
        srcs = (alpha_a * B + (alpha_s / FOUR_PI) * J0).T  # (J, M)
        conv = apply_attenuation_batch(grid, beta, srcs)
        with np.errstate(divide="ignore"):
            gain = np.where(beta > 0.0, FOUR_PI / np.where(beta > 0, beta, 1.0), 0.0)
        new = b4pi + (conv * gain[:, None]).T
        delta = float(np.max(np.abs(new - J0)))
        J0 = new
        if delta <= tol * scale:
            break
    return J0, its


def conservation_residual(
    T_field: ScalarField,
    g: BoundarySource,
    medium: MediumSpec,
    domain: ConvexDomain,
    grid: SpatialGrid,
    angular: AngularGrid,
    spectral_grid: SpectralGrid,
    representation: str = "kernel",
    ray_h: float | None = None,
):
    """Defect of the divergence-free-flux fixed point at a temperature field.

    Per node: r = 4pi f(T) - (kernel emission + boundary absorption).  With
    ``representation="kernel"`` the right-hand side uses the same lattice
    stencils the solvers iterate, so a converged solve has a residual at the
    solver tolerance.  With ``representation="ray"`` it is re-evaluated by
    marching formal solutions along rays, an independent discretization whose
    difference from the kernel route estimates the discretization error.

    Returns ``(absolute ScalarField, relative ndarray)``.
    """
    T = np.asarray(T_field.values, dtype=float)
    alphas_a = medium.absorption(spectral_grid.nodes)
    alphas_s = medium.scattering(spectral_grid.nodes)
    beta = alphas_a + alphas_s
    nus = spectral_grid.nodes
    q = spectral_grid.weights
    B = spectral.planck(nus, T[:, None])  # (M, J)
    w = np.sum(q * alphas_a * B, axis=1)  # f(T) per node
    has_scattering = float(np.max(alphas_s)) > 0.0
    if representation not in ("kernel", "ray"):
        raise ValueError(f"unknown representation {representation!r}")
    if has_scattering and not medium.is_isotropic:
        raise NotImplementedError(
            f"{representation}-representation residual supports isotropic scattering only")

    if representation == "kernel" or has_scattering:
        mass = ([attenuation_operator(grid, b).row_mass() for b in beta]
                if g.is_isotropic else None)
        b_field = boundary_attenuation_nodes(domain, grid, g, beta, angular, spectral_grid,
                                             mass_fields=mass)
    if has_scattering:
        J0, _ = scattered_mean_intensity(
            grid, spectral_grid, alphas_a, alphas_s, B, FOUR_PI * b_field
        )
    if representation == "kernel":
        if not has_scattering:
            qa = q * alphas_a
            rhs = apply_attenuation_batch(grid, beta, B.T, weights=qa) + b_field @ qa
        else:
            rhs = np.sum(q * alphas_a * J0, axis=1) / FOUR_PI
    else:
        sweeper = RaySweeper(domain, grid, angular, ray_h, cache_bytes=0)
        src_nodes = alphas_a * B
        if has_scattering:
            src_nodes = src_nodes + (alphas_s / FOUR_PI) * J0
        boxes = grid.embed(src_nodes)  # (nx, ny, nz, J)
        gvals = g.evaluate(angular.nodes, nus)  # (A, J)
        absorbed = np.zeros(grid.n_nodes)
        for i in range(angular.n_nodes):
            I_i = sweeper.radiance(i, boxes, beta, gvals[i])
            absorbed += angular.weights[i] * np.sum(q * alphas_a * I_i, axis=1)
        rhs = absorbed / FOUR_PI

    residual = FOUR_PI * (w - rhs)
    scale = FOUR_PI * np.maximum(w, np.max(w) * 1e-12 + 1e-300)
    return ScalarField(residual, role="conservation_residual"), residual / scale
