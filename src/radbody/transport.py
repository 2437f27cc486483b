"""Integral operators of the transfer problem on discrete grids.

Two equivalent evaluation routes are provided for the emission/absorption
balance and used deliberately side by side:

* a lattice-convolution route: the attenuated volume kernel
  ``(beta/4pi) exp(-beta r)/r^2`` is tabulated as a stencil octant (with
  the integrable singularity replaced by its exact integral over the cubic
  cell), held as the real, even octant of its transform and applied by
  ``apply_attenuation_batch`` alone;
* a ray route: ``RaySweeper`` evaluates the formal solution
  g e^{-beta s} + integral of the attenuated source along backward rays,
  with Simpson weights and trilinear interpolation of nodal fields.  It is
  the only code that does: per direction, over all directions at once, and
  along boundary chords (rays that start on the boundary).

Solvers iterate the convolution route; the angular solvers, the oracle and
the diagnostics sweep rays, and the ray route serves as a consistency check.

``_fixed_point``, defined here, iterates the map of every solver (the
radiance sweeps of the scattering and tabulated-kernel routes included) and
of the frozen-temperature J0 solve ``scattered_mean_intensity`` (``_j0_map``).
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from radbody import geometry, spectral
from radbody.geometry import ConvexDomain
from radbody.quadrature import AngularGrid, SpatialGrid, SpectralGrid, gauss_legendre
from radbody.spectral import AbsorptionProfile

FOUR_PI = 4.0 * np.pi

# Stencil entries within this Chebyshev cell range of the singularity are
# integrated over the source cell by graded midpoint subdivision (closer
# cells get more subcells); beyond the range a two-point Gauss rule per cell
# axis is accurate.
NEAR_RANGE = 4
NEAR_SUBDIV = 16


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
        if np.any(p_tab < 0.0) or np.any(np.diff(mu_tab) <= 0.0):
            raise ValueError("scattering phase table needs strictly increasing cosines, p >= 0")
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
    by a beam profile around a unit axis.  Each table is a pair (abscissae,
    values) with strictly increasing abscissae and nonnegative values.
    """

    def __init__(self, kind: str, *, value: float = 0.0, temperature: float = 0.0,
                 spectrum=None, axis=None, angular_profile=None):
        if kind not in ("zero", "constant", "equilibrium", "tabulated"):
            raise ValueError(f"unknown boundary source kind {kind!r}")
        self.kind = kind
        self.value = float(value)
        self.temperature = float(temperature)
        if kind == "tabulated":
            self.spectrum_nu, self.spectrum_val = _table(spectrum, "spectrum")
            self.axis = self.profile_mu = self.profile_val = None
            if axis is not None:
                self.axis = np.asarray(axis, dtype=float)
                self.axis = self.axis / np.linalg.norm(self.axis)
                self.profile_mu, self.profile_val = _table(angular_profile, "angular profile")

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

    def spectral_values(self, nus: np.ndarray) -> np.ndarray:
        """Direction-independent spectral factor, shape (J,)."""
        nus = np.asarray(nus, dtype=float)
        if self.kind == "zero":
            return np.zeros(nus.shape)
        if self.kind == "constant":
            return np.full(nus.shape, self.value)
        if self.kind == "equilibrium":
            if self.temperature == 0.0:
                return np.zeros(nus.shape)
            return spectral.planck(nus, self.temperature)
        return np.interp(nus, self.spectrum_nu, self.spectrum_val)

    def evaluate(self, dirs: np.ndarray, nus: np.ndarray) -> np.ndarray:
        """Radiance table over (directions, frequencies), shape (A, J)."""
        dirs = np.asarray(dirs, dtype=float)
        ang = (np.ones(dirs.shape[0]) if self.is_isotropic
               else np.interp(dirs @ self.axis, self.profile_mu, self.profile_val))
        return np.outer(ang, self.spectral_values(nus))


def _table(pairs, name: str):
    """A boundary table (abscissae, values) as float arrays, checked for np.interp."""
    x, y = (np.asarray(v, dtype=float) for v in pairs)
    if np.any(y < 0.0) or np.any(np.diff(x) <= 0.0):
        raise ValueError(f"boundary {name} needs strictly increasing abscissae and values >= 0")
    return x, y


# ---------------------------------------------------------------------------
# Attenuated volume kernel on the lattice
# ---------------------------------------------------------------------------

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
    gx, gw = gauss_legendre(48)
    x = 0.5 * h * gx  # face coordinates in [-h/2, h/2], Jacobian (h/2)^2
    R = np.sqrt(x[:, None] ** 2 + x[None, :] ** 2 + 0.25 * h * h)
    vals = -np.expm1(-beta * R) * (0.5 * h) / R**3
    return 6.0 / FOUR_PI * (0.25 * h * h) * float(np.sum(np.outer(gw, gw) * vals))


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


# Sign flips of the three axes other than the identity: the reflections
# that ``RaySweeper`` shares ray designs across.
_MIRRORS = np.array(list(itertools.product((1, -1), repeat=3))[1:])


@dataclass(frozen=True)
class _StencilGeometry:
    """The rate-independent parts of a grid's stencils (``_stencil_parts``).

    ``far_r2`` (8, nx, ny, nz): r^2 from the origin to each two-point Gauss
    point of every octant cell.  ``shells`` per near-field shell d with
    entries: its octant offsets (K, 3) and r^2 at their subcell points
    (K, a, a, a), with a = 2 max(2, ceil(NEAR_SUBDIV / 2d)) whatever h.
    Nothing keeps it beyond the octants it serves: a rate plan builds it
    once for all of its octants, and any other stencil builds its own.
    """

    far_r2: np.ndarray
    shells: tuple


def _stencil_geometry(grid: SpatialGrid) -> _StencilGeometry:
    h = grid.h
    shape = np.array(grid.box_shape)
    gauss = 0.5 * h / np.sqrt(3.0)
    kx, ky, kz = (np.arange(n) * h for n in shape)
    far_r2 = np.empty((8, *grid.box_shape))
    for r2, (sx, sy, sz) in zip(far_r2, itertools.product((-gauss, gauss), repeat=3)):
        r2[...] = ((kx + sx)[:, None, None] ** 2 + (ky + sy)[None, :, None] ** 2
                   + (kz + sz)[None, None, :] ** 2)
    reach = np.minimum(NEAR_RANGE, shape - 1)
    offsets = np.stack(np.meshgrid(*(np.arange(r + 1) for r in reach),
                                   indexing="ij"), axis=-1).reshape(-1, 3)
    cheb = np.max(offsets, axis=1)
    shells = []
    for d in range(1, NEAR_RANGE + 1):
        o = offsets[cheb == d]
        if o.size == 0:
            continue
        q = max(2, int(np.ceil(NEAR_SUBDIV / (2 * d))))
        cell = ((np.arange(q) + 0.5) / q - 0.5) * h
        pts = (cell[:, None] + np.array([-1.0, 1.0]) * (h / (2 * q * np.sqrt(3.0)))).ravel()
        p = o[:, :, None] * h + pts  # (K, 3, points per axis)
        shells.append((o, p[:, 0, :, None, None] ** 2 + p[:, 1, None, :, None] ** 2
                       + p[:, 2, None, None, :] ** 2))
    return _StencilGeometry(far_r2, tuple(shells))


def _stencil_parts(grid: SpatialGrid, beta: float, geom: _StencilGeometry) -> np.ndarray:
    """The octant of the stencil of rate ``beta``: its entries on the lattice
    offsets >= 0, shape ``box_shape``.

    The kernel depends on |x - y| only, so the octant determines the full
    stencil and its transform (``AttenuationOperator``).  Far field: tensor
    two-point Gauss rule per source cell (4th order).  Near field: composite two-point Gauss
    on subcells, the subcell count graded by the Chebyshev distance d of the
    offset; offsets beyond the box extent (thin bodies) have no entry.  Self
    entry: the exact integral over the cubic cell (``_cube_self_weight``).
    The distances come from ``geom``, the grid's ``_stencil_geometry``: only
    the kernel and its sums depend on ``beta``.
    """
    h = grid.h
    octant = np.zeros(grid.box_shape)
    for r2 in geom.far_r2:
        octant += np.exp(-beta * np.sqrt(r2)) / r2
    octant *= beta / FOUR_PI * h**3 / 8.0
    for o, rr2 in geom.shells:
        # In place, to bound transient memory: the d = 1 shell holds
        # 7 x 16^3 points.
        kern = np.sqrt(rr2)
        kern *= -beta
        np.exp(kern, out=kern)
        kern /= rr2
        octant[o[:, 0], o[:, 1], o[:, 2]] = beta / FOUR_PI * np.mean(kern, axis=(1, 2, 3)) * h**3
    octant[0, 0, 0] = _cube_self_weight(beta, h)
    return octant


def _cosine_matrix(n: int, length: int) -> np.ndarray:
    """The (length//2 + 1, n) matrix 2 cos(2 pi k d / length), 1 at d = 0:
    the DFT at frequencies k of an even sequence given by its offsets d >= 0."""
    kd = np.outer(np.arange(length // 2 + 1), np.arange(n)) % length
    cos = np.cos(2.0 * np.pi / length * kd)
    cos[:, 1:] *= 2.0
    return cos


def _halves(length: int):
    """(frequency slice, kernel_hat slice) pairs along one axis: frequencies
    k <= length//2 read kernel_hat at k, the others at length - k."""
    return ((slice(0, length // 2 + 1), slice(None)),
            (slice(length // 2 + 1, None), slice((length - 1) // 2, 0, -1)))


class AttenuationOperator:
    """f |-> (beta/4pi) * integral over the body of exp(-beta r)/r^2 f.

    The stencil is even in every axis, so its transform at the cyclic shape
    ``fshape`` is real and even: the operator holds only the octant of
    frequencies k <= L//2 per axis, ``kernel_hat`` of shape
    (L_x//2 + 1, L_y//2 + 1, L_z//2 + 1), computed from the stencil octant
    by one cosine matrix per axis, and, once asked for, its row mass;
    ``apply_attenuation_batch`` applies it.  ``octant`` is the stencil
    octant of ``beta`` (``_stencil_parts``) where the caller has it.
    """

    def __init__(self, grid: SpatialGrid, beta: float, octant: np.ndarray | None = None):
        self.grid = grid
        self._row_mass = None
        # A cyclic length of 2n - 1 per axis holds every stencil offset at
        # d mod L, so the crop [0, n) of the cyclic convolution sees no
        # wrapped terms.
        self.fshape = tuple(_next_fast_len(2 * n - 1) for n in grid.box_shape)
        if octant is None:
            octant = _stencil_parts(grid, float(beta), _stencil_geometry(grid))
        cx, cy, cz = (_cosine_matrix(n, length)
                      for n, length in zip(grid.box_shape, self.fshape))
        nx, ny, nz = grid.box_shape
        hat = (cx @ octant.reshape(nx, ny * nz)).reshape(-1, ny, nz)
        self.kernel_hat = np.matmul(cy, hat) @ cz.T

    def row_mass(self) -> np.ndarray:
        """Discrete mass (beta/4pi) * integral of the kernel over the body.

        Computed once per operator; the array is read-only because every
        caller shares it.
        """
        if self._row_mass is None:
            self._row_mass = _inverse(self, _kernel_product(self, np.ones(self.grid.n_nodes)))
            self._row_mass.flags.writeable = False
        return self._row_mass


def _kernel_product(op: AttenuationOperator, field: np.ndarray) -> np.ndarray:
    """The transform of the nodal ``field`` on the box times the operator's
    even transform, multiplied in place quadrant by quadrant of the (x, y)
    frequencies: k and L - k share a value."""
    fhat = np.fft.rfftn(op.grid.node_values_to_box(field), op.fshape, (0, 1, 2))
    for fx, kx in _halves(op.fshape[0]):
        for fy, ky in _halves(op.fshape[1]):
            quadrant = fhat[fx, fy]
            quadrant *= op.kernel_hat[kx, ky]
    return fhat


def _inverse(op: AttenuationOperator, fhat: np.ndarray) -> np.ndarray:
    """Nodal values of the convolution whose transform is ``fhat``, inverted in
    place axis by axis as np.fft.irfftn takes it: its values, in less memory.
    The kernel sits at offset 0 of the cycle, so the box is the crop [0, n)
    of each axis, and each pass inverts only the lines that reach it."""
    nx, ny, nz = op.grid.box_shape
    np.fft.ifft(fhat, axis=0, out=fhat)
    rows = fhat[:nx]
    np.fft.ifft(rows, axis=1, out=rows)
    box = np.fft.irfft(rows[:, :ny], op.fshape[-1])
    return box[:, :, :nz].reshape(-1)[op.grid.flat_index]


_OPERATOR_CACHE: "OrderedDict[tuple, AttenuationOperator]" = OrderedDict()
_OPERATOR_CACHE_MAX = 80


def attenuation_operator(grid: SpatialGrid, beta: float,
                         octant: np.ndarray | None = None) -> AttenuationOperator:
    """Cached stencil operator, keyed by grid fingerprint and decay rate; a
    build takes the rate's ``octant`` where given."""
    key = (grid.token, float(beta))
    op = _OPERATOR_CACHE.get(key)
    if op is None:
        op = AttenuationOperator(grid, beta, octant)
        _OPERATOR_CACHE[key] = op
        while len(_OPERATOR_CACHE) > _OPERATOR_CACHE_MAX:
            _OPERATOR_CACHE.popitem(last=False)
    return op


# ---------------------------------------------------------------------------
# Weighted frequency sums through a few Chebyshev rates
# ---------------------------------------------------------------------------

# Every interpolated stencil lies within this L1 distance of the exact one.
RATE_L1_TOL = 1e-12
# The most Chebyshev rates on one interval; an interval needing more is split.
RATE_MAX_NODES = 16


@dataclass(frozen=True)
class RateInterpolation:
    """The kernels of many decay rates as combinations of a few.

    Each interval of ``rates`` carries its own Chebyshev rates, and
    ``lagrange[k, r]`` is the Lagrange polynomial of ``nodes[k]`` at
    ``rates[r]`` (zero across intervals), so that for every rate

        || sum_k lagrange[k, r] stencil(nodes[k]) - stencil(rates[r]) ||_1 <= bound.

    By Young's inequality a convolution then moves by at most
    ``bound * ||f||_inf``.  An interval that would need as many nodes as it
    holds rates keeps its rates (an identity block, exact).
    """

    rates: np.ndarray  # (R,) distinct positive rates, increasing
    nodes: np.ndarray  # (K,) K < R
    lagrange: np.ndarray  # (K, R)
    nodes_per_interval: tuple
    bound: float

    def as_dict(self) -> dict:
        return {"nodes_per_interval": list(self.nodes_per_interval),
                "intervals": len(self.nodes_per_interval), "young_bound": self.bound}


_PLAN_CACHE: "OrderedDict[tuple, RateInterpolation | None]" = OrderedDict()
_PLAN_CACHE_MAX = 16


def rate_interpolation(grid: SpatialGrid, rates) -> RateInterpolation | None:
    """The cached interpolation of the kernels of the distinct positive ``rates``.

    None when no interpolation needs fewer kernels than there are distinct
    rates; weighted sums then group channels by rate, exactly.  A new plan
    frees its search's octants before it builds its nodes' operators.
    """
    # Sorted and deduplicated by hand: np.unique without an index output
    # imports numpy.ma, about 40 ms on first use.
    rates = np.sort(np.asarray(rates, dtype=float).ravel())
    rates = rates[(rates > 0.0) & np.append(True, np.diff(rates) > 0.0)]
    key = (grid.token, rates.tobytes())
    if key not in _PLAN_CACHE:
        _PLAN_CACHE[key] = _plan_rates(grid, rates) if rates.size > 2 else None
        while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
    return _PLAN_CACHE[key]


def _chebyshev_rates(lo: float, hi: float, k: int) -> np.ndarray:
    return 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.pi * (2 * np.arange(k) + 1) / (2 * k))


def _lagrange(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L[k, j]: the Lagrange polynomial of ``nodes[k]`` evaluated at ``x[j]``."""
    L = np.ones((nodes.size, x.size))
    for k in range(nodes.size):
        for m in range(nodes.size):
            if m != k:
                L[k] *= (x - nodes[m]) / (nodes[k] - nodes[m])
    return L


def _radial_bound(sub: np.ndarray, k: int, radii: np.ndarray, density: np.ndarray) -> float:
    """The Young bound of k Chebyshev rates on ``sub`` by ``_plan_rates``'s radial model."""
    nodes = _chebyshev_rates(sub[0], sub[-1], k)
    at_nodes, at_sub = (b[:, None] * np.exp(-np.outer(b, radii)) for b in (nodes, sub))
    return float(np.max(np.abs(_lagrange(nodes, sub).T @ at_nodes - at_sub) @ density))


def _fit(grid: SpatialGrid, geom: _StencilGeometry, mult: np.ndarray,
         sub: np.ndarray, exact: list, radial: tuple):
    """(nodes, lagrange, Young bound, octants) of the fewest Chebyshev rates,
    fewer than ``sub``, that pass ``RATE_L1_TOL`` against its ``exact``
    octants, searched from the ``_radial_bound`` estimate; None if none does."""
    kmax = min(sub.size - 1, RATE_MAX_NODES)
    k = next((k for k in range(2, kmax + 1) if _radial_bound(sub, k, *radial) <= RATE_L1_TOL),
             kmax)
    best = down = None
    while 2 <= k <= kmax:
        nodes = _chebyshev_rates(sub[0], sub[-1], k)
        L = _lagrange(nodes, sub)
        octants = np.stack([_stencil_parts(grid, b, geom) for b in nodes])
        bound = max(float(np.sum(mult * np.abs(np.tensordot(L[:, c], octants, axes=1) - octant)))
                    for c, octant in enumerate(exact))
        passed = bound <= RATE_L1_TOL
        if passed:
            best = nodes, L, bound, octants
        if down is None:  # from a passing start look for fewer nodes, else for more
            down = passed
        elif passed != down:
            break
        k += -1 if down else 1
    return best


def _plan_rates(grid: SpatialGrid, rates: np.ndarray) -> RateInterpolation | None:
    """Fit Chebyshev rates to ``rates``, splitting intervals where needed.

    On each interval k is the smallest that passes the Young bound
    ``RATE_L1_TOL``, checked against the exact stencil of every rate.  The
    search starts from a radial estimate: a far-field entry at distance
    r = h sqrt(n) is close to (h/4pi) beta e^{-beta r} / n, so interpolating
    that function of beta over the multiset of n predicts the bound with no
    stencil evaluation (``_radial_bound``).  An interval no fit serves is
    split at its mid-rate if that saves kernels.  Every octant is evaluated
    once on one ``_stencil_geometry``; the geometry and unkept exact octants
    are freed before the chosen nodes' operators are built from theirs.
    """
    nx, ny, nz = grid.box_shape
    ix, iy, iz = np.ogrid[:nx, :ny, :nz]
    mult = 2.0 ** ((ix > 0).astype(int) + (iy > 0) + (iz > 0))  # mirror images
    geom = _stencil_geometry(grid)
    exact = [_stencil_parts(grid, r, geom) for r in rates]
    n2 = (ix**2 + iy**2 + iz**2).ravel()
    density = np.bincount(n2, weights=mult.ravel() / np.maximum(n2, 1))
    shells = np.nonzero(density)[0][1:]  # without the self entry, n = 0
    radii, density = grid.h * np.sqrt(shells), density[shells] * grid.h / FOUR_PI
    # Pieces (idx, nodes, lagrange, bound, octants) in rate order.  A split
    # interval is pushed back under its halves, with its first piece's index.
    pieces, work = [], [(np.arange(rates.size), None)]
    while work:
        idx, start = work.pop()
        sub = rates[idx]
        if start is None and idx.size > 2:
            fitted = _fit(grid, geom, mult, sub, [exact[r] for r in idx], (radii, density))
            if fitted is not None:
                pieces.append((idx, *fitted))
                continue
            mid = 0.5 * (sub[0] + sub[-1])
            work += [(idx, len(pieces)), (idx[sub > mid], None), (idx[sub <= mid], None)]
        elif start is None or sum(p[1].size for p in pieces[start:]) >= idx.size:
            # Two rates or fewer, or halves that save no kernel: exact.
            if start is not None:
                del pieces[start:]
            pieces.append((idx, sub, np.eye(idx.size), 0.0, [exact[r] for r in idx]))
    del exact, geom
    nodes = np.concatenate([p[1] for p in pieces])
    if nodes.size >= rates.size:
        return None
    lagrange = np.zeros((nodes.size, rates.size))
    row = 0
    for idx, part_nodes, L, *_ in pieces:
        lagrange[row:row + part_nodes.size, idx] = L
        row += part_nodes.size
    plan = RateInterpolation(rates=rates, nodes=nodes, lagrange=lagrange,
                             nodes_per_interval=tuple(p[1].size for p in pieces),
                             bound=max(p[3] for p in pieces))
    while pieces:  # each interval's octants are freed once its operators are built
        _, part_nodes, _, _, octants = pieces.pop(0)
        for b, octant in zip(part_nodes, octants):
            attenuation_operator(grid, b, octant)
    return plan


def _row_masses(grid: SpatialGrid, rates) -> np.ndarray:
    """Row masses (M, R) of the kernels of ``rates``, one column per rate."""
    return np.stack([attenuation_operator(grid, r).row_mass() for r in rates], axis=1)


def summed_row_masses(grid: SpatialGrid, rates) -> np.ndarray:
    """Row masses (M, J) of the kernels that weighted frequency sums apply.

    One column per entry of ``rates``: the interpolated masses
    sum_k lagrange[k, r] mass(nodes[k]) where ``rate_interpolation`` gives
    an interpolation, else each rate's own; 0 for a zero rate.
    """
    rates = np.asarray(rates, dtype=float)
    plan = rate_interpolation(grid, rates)
    if plan is None:
        return _row_masses(grid, rates)
    mass = np.zeros((grid.n_nodes, rates.size))
    live = rates > 0.0
    mass[:, live] = (_row_masses(grid, plan.nodes) @ plan.lagrange)[
        :, np.searchsorted(plan.rates, rates[live])]
    return mass


def apply_attenuation_batch(grid: SpatialGrid, betas: np.ndarray,
                            fields: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Apply the attenuation operator of each channel's rate to nodal fields (C, M).

    The one place a kernel is applied: per channel of positive rate, one
    forward transform times the operator's ``kernel_hat``, inverted at once
    and in place, so one transform is held at a time; a zero rate gives 0.
    With ``weights`` (C,) the weighted channel sum  sum_c w_c conv_c(f_c),
    shape (M,), is returned instead: channels sharing a decay rate are
    summed before their transform, and where ``rate_interpolation`` gives an
    interpolation the rates are replaced by its nodes,
    sum_k conv_{nodes[k]}(sum_r lagrange[k, r] f_r), within its Young bound.
    The products are then added into one Fourier-space sum, and one inverse
    serves all channels.
    """
    betas = np.asarray(betas, dtype=float)
    out = np.zeros(fields.shape) if weights is None else None
    if weights is not None:
        betas, group = np.unique(betas, return_inverse=True)
        summed = np.zeros((betas.size, fields.shape[1]))
        # Channel by channel, in order: the sums of np.add.at, without its
        # unbuffered per-element loop.
        for field, r, w in zip(fields, group, np.asarray(weights, dtype=float)):
            summed[r] += w * field
        plan = rate_interpolation(grid, betas)
        if plan is not None:
            # The positive rates come last: a view, not a copy of the sums.
            summed, betas = plan.lagrange @ summed[betas.size - plan.rates.size:], plan.nodes
        fields = summed
    acc = op = None
    for c, b in enumerate(betas):
        if b > 0.0:
            op = attenuation_operator(grid, b)
            fhat = _kernel_product(op, fields[c])
            if out is not None:
                out[c] = _inverse(op, fhat)
            elif acc is None:
                acc = fhat
            else:
                acc += fhat
            del fhat  # before the next channel's transform
    if out is not None:
        return out
    return np.zeros(grid.n_nodes) if acc is None else _inverse(op, acc)  # any op: one fshape


def _node_index(grid: SpatialGrid, x) -> int:
    x = np.asarray(x, dtype=float).reshape(3)
    pos = np.flatnonzero(np.all(np.abs(grid.centers - x) <= 1e-9 * max(1.0, grid.h), axis=1))
    if pos.size != 1:
        raise ValueError(f"{x} is not an interior node of the grid")
    return int(pos[0])


# ---------------------------------------------------------------------------
# Boundary attenuation terms
# ---------------------------------------------------------------------------


class NegativeSource(RuntimeError):
    """The boundary sink term came out negative; quadrature failure."""


def boundary_attenuation_nodes(
    domain: ConvexDomain,
    grid: SpatialGrid,
    g: BoundarySource,
    rates: np.ndarray,
    angular: AngularGrid,
    spectral_grid: SpectralGrid,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """(1/4pi) * integral dn of g_nu(n) exp(-rate_j s(x,n)) at all nodes, (M, J).

    For isotropic sources the identity
    (1/4pi) int exp(-b s) dn = 1 - (b/4pi) int_Omega exp(-b r)/r^2 d_eta
    is evaluated with the row masses of the cached kernel operators, so the
    boundary and volume terms share one discretization and a constant
    blackbody boundary is an exact discrete fixed point; other sources sum
    ``RaySweeper``'s attenuated boundary radiance over the direction
    quadrature, one direction at a time in ``orbit_order``.  With ``weights``
    (J,) the weighted frequency sum (M,) is returned instead, and the row
    masses are those of the kernels that ``apply_attenuation_batch`` applies
    to weighted sums (``summed_row_masses``), so that the fixed point stays
    exact there too.
    Raises ``NegativeSource`` if the term is negative at any node and
    frequency.
    """
    if g.is_isotropic:
        gj = g.spectral_values(spectral_grid.nodes)  # (J,)
        mass = _row_masses(grid, rates) if weights is None else summed_row_masses(grid, rates)
        out = gj * (1.0 - mass)
    else:
        out = np.zeros((grid.n_nodes, spectral_grid.n_nodes))
        gvals = g.evaluate(angular.nodes, spectral_grid.nodes)  # (A, J)
        rays = RaySweeper(domain, grid, angular)
        for i in rays.orbit_order():
            out += _attenuated(gvals[i], rays.path_lengths(i), rates,
                               weight=angular.weights[i] / FOUR_PI)
    if np.any(out < 0.0):
        raise NegativeSource("boundary sink term is negative at some node")
    return out if weights is None else weights @ out.T


# ---------------------------------------------------------------------------
# Ray marching
# ---------------------------------------------------------------------------


# Samples per call of ``SpatialGrid.sample`` in a design (``RaySweeper._ray_design``).
SAMPLE_BLOCK = 4096


def _match_points(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray | None:
    """``perm`` with every ``a[k]`` within ``tol`` of ``b[perm[k]]``, or None.

    Points are paired by sorting on a generic projection, O(n log n): two
    points whose keys nearly tie may be paired wrongly, which returns None.
    """
    probe = np.array([1.0, np.sqrt(2.0), np.pi])
    ka, kb = np.argsort(a @ probe, kind="stable"), np.argsort(b @ probe, kind="stable")
    if a.size and np.max(np.abs(a[ka] - b[kb])) > tol:
        return None
    perm = np.empty(ka.size, dtype=int)
    perm[ka] = kb
    return perm


def _mirror_orbits(grid: SpatialGrid, angular: AngularGrid):
    """Orbits of the directions under the reflections of the lattice.

    The group is the set of sign flips of the axes that map ``grid.inside``
    onto itself exactly and the angular nodes onto themselves within
    ``geometry.UNIT_TOL``; the lattice is centred on the body, so such a flip
    maps every node to a node.  Returns ``(rep, mirror, order)``: per
    direction i its orbit representative r and, for i != r, the map
    ``(axes, perm)`` from r, where n_i is n_r with the box axes ``axes``
    flipped and node m sits where node ``perm[m]`` of r sits, mirrored;
    ``order`` lists the directions orbit by orbit, each representative first.
    """
    nodes = angular.nodes
    node_of = np.full(grid.inside.shape, -1)
    node_of.reshape(-1)[grid.flat_index] = np.arange(grid.n_nodes)
    group = []
    for signs in _MIRRORS:
        axes = tuple(int(a) for a in np.flatnonzero(signs < 0))
        if not np.array_equal(np.flip(grid.inside, axes), grid.inside):
            continue
        image = _match_points(nodes * signs, nodes, geometry.UNIT_TOL)
        if image is not None:  # nodes[image[i]] is nodes[i] flipped
            group.append((image, (axes, np.flip(node_of, axes).reshape(-1)[grid.flat_index])))
    rep = np.full(nodes.shape[0], -1)
    mirror = [None] * nodes.shape[0]
    for i in range(nodes.shape[0]):
        if rep[i] < 0:
            rep[i] = i
            for image, flip in group:
                if rep[image[i]] < 0:
                    rep[image[i]], mirror[image[i]] = i, flip
    return rep, mirror, np.argsort(rep, kind="stable")


class RaySweeper:
    """Formal solutions of the transfer equation along backward rays.

    A ray ending at x (a node, or a boundary point for a chord) in direction
    n enters the body at y = x - s n, and the radiance there is

        I(x, n) = g e^{-rate s} + integral_0^s e^{-rate (s - xi)} source(y + xi n) dxi,

    one value per channel with its own decay rate.  The integral uses
    uniform Simpson nodes xi on [0, s]; sources are box arrays read through
    the grid's trilinear stencils (``SpatialGrid.sample``).  A set of rays
    is a design: its samples' stencils form the rate-free (samples, N_box)
    matrix G, and ``_weights`` gives R_u, the (rays, samples) matrix of
    Simpson weight times e^{-u depth}, so that a channel f at rate u sums to
    R_u G f along the rays.

    Rays from the nodes are static across iterations and shared across
    mirror images: the directions fall into orbits under the sign flips of
    the axes that map the lattice and the angular nodes onto themselves
    (``_mirror_orbits``, found at the first sweep), and a direction reads
    its orbit representative's path lengths and design through its flip,
    on the flipped source box, with its nodes permuted.  A direction with
    no mirror partner is its own orbit.  Designs are cached per
    representative up to a memory budget.  What was built for the last
    representative asked for (its lengths, its design if uncached, and its
    summed sweep R_u G at a rate that every channel shares) is held until
    another one is asked for, so a sweep in ``orbit_order`` builds each once
    per orbit.  Boundary chords build a design per direction.
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
        self._orbits = None
        self._held: dict = {}

    def _mirror_orbits(self):
        if self._orbits is None:
            self._orbits = _mirror_orbits(self.grid, self.angular)
        return self._orbits

    def orbit_order(self) -> np.ndarray:
        """The directions orbit by orbit, each representative first."""
        return self._mirror_orbits()[2]

    def _orbit(self, i: int):
        """(r, mirror, held): direction i's representative, its map from r
        (None for r itself), and what is held for r."""
        rep, mirror, _ = self._mirror_orbits()
        r = int(rep[i])
        if self._held.get("rep") != r:
            self._held = {"rep": r}
        return r, mirror[i], self._held

    def _lengths(self, r: int, held: dict) -> np.ndarray:
        if "s" not in held:
            design = self._cache.get(r)
            held["s"] = design[0] if design is not None else geometry.exit_lengths(
                self.domain, self.grid.centers, self.angular.nodes[r])
        return held["s"]

    def path_lengths(self, i: int) -> np.ndarray:
        """Backward path length s(x, n_i) to the boundary from every node, (M,)."""
        r, mirror, held = self._orbit(i)
        s = self._lengths(r, held)
        return s if mirror is None else s[mirror[1]]

    def _design(self, r: int, held: dict):
        design = self._cache.get(r, held.get("design"))
        if design is not None:
            return design
        design = self._ray_design(self.grid.centers, self._lengths(r, held),
                                  self.angular.nodes[r])
        s, starts, G, base_w, depth = design
        nbytes = sum(a.nbytes for a in (s, starts, G.data, G.indices, G.indptr, base_w, depth))
        if self._cache_used + nbytes <= self._cache_budget:
            self._cache[r] = design
            self._cache_used += nbytes
        else:
            held["design"] = design
        return design

    def _ray_design(self, end_points: np.ndarray, s: np.ndarray, direction: np.ndarray):
        """Simpson samples of the rays of lengths ``s`` ending at ``end_points``.

        Returns ``(s, starts, G, base_w, depth)``: the lengths, the first
        sample of each ray, the trilinear stencils of the samples
        (``SpatialGrid.sample``) as a sparse (samples, N_box) CSR matrix, and
        per sample its Simpson weight and distance to the ray's end.  The
        stencils are taken ``SAMPLE_BLOCK`` samples at a time, which bounds
        the working set.
        """
        from scipy import sparse

        # The least even number >= 2 of Simpson intervals at most ray_h long.
        n_int = np.maximum(np.ceil(s / self.ray_h).astype(int), 2)
        n_int += n_int % 2
        counts = n_int + 1
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        k = np.arange(int(np.sum(counts))) - np.repeat(starts, counts)
        nn = np.repeat(n_int, counts)
        s_of = np.repeat(s, counts)
        # Composite Simpson coefficients 1,4,2,...,4,1 scaled by s/(3n).
        coeff = np.where(k % 2 == 1, 4.0, 2.0)
        coeff[starts] = coeff[starts + n_int] = 1.0
        base_w = coeff * s_of / (3.0 * nn)
        depth = s_of - s_of * (k / nn)
        ray = np.repeat(np.arange(s.size), counts)
        corners = np.empty((depth.size, 8), dtype=np.int32)
        corner_w = np.empty((depth.size, 8))
        for a in range(0, depth.size, SAMPLE_BLOCK):
            b = a + SAMPLE_BLOCK
            # Sample positions per axis, (3, B), handed over as a (B, 3) view.
            pos = end_points.T[:, ray[a:b]] - direction[:, None] * depth[a:b]
            corners[a:b], corner_w[a:b] = self.grid.sample(pos.T)
        G = sparse.csr_matrix((corner_w.reshape(-1), corners.reshape(-1),
                               np.arange(0, corners.size + 1, 8)),
                              shape=(depth.size, self.grid.inside.size))
        return s, starts, G, base_w, depth

    def _weights(self, design, u: float):
        """R_u: the sparse (rays, samples) CSR matrix of each ray's samples'
        Simpson weights times e^{-u depth}, so that R_u G sums a design's
        rays at decay rate u."""
        from scipy import sparse

        s, starts, _, base_w, depth = design
        return sparse.csr_matrix((base_w * np.exp(-u * depth), np.arange(base_w.size),
                                  np.append(starts, base_w.size)),
                                 shape=(s.size, base_w.size))

    def _integrate(self, design, box: np.ndarray, rates):
        """Per-ray integral of exp(-rate depth) * source over a design's rays:
        R_u G f for the channels f of the box at each rate u, as (R_u G) f
        where several channels share u (the sparse product sums each ray's
        repeated corners) and as R_u (G f) for a single channel."""
        G = design[2]
        flat_box = box.reshape(self.grid.inside.size, -1)
        rates_arr = np.broadcast_to(np.asarray(rates, dtype=float), flat_box.shape[1:])
        uniq = np.unique(rates_arr)
        contrib = np.empty((design[0].size, flat_box.shape[1]))
        for u in uniq:
            cols = rates_arr == u if uniq.size > 1 else slice(None)  # one rate: no column copies
            f = flat_box[:, cols]
            R = self._weights(design, u)
            contrib[:, cols] = (R @ G) @ f if f.shape[1] > 1 else R @ (G @ f)
        return contrib[:, 0] if np.ndim(rates) == 0 else contrib

    def line_integrals(self, i: int, box: np.ndarray, rates: np.ndarray):
        """Per-node integral of exp(-rate (s - xi)) * source(xi) per channel.

        ``box`` has shape (nx, ny, nz) or (nx, ny, nz, C); ``rates`` has one
        decay rate per channel.  Returns ``(values (M, C) or (M,), s (M,))``.
        """
        r, mirror, held = self._orbit(i)
        if mirror is not None:
            box = np.flip(box, mirror[0])
        uniq = np.unique(rates)
        if uniq.size == 1:
            if held.get("rate") != uniq[0]:
                # Held for the orbit, so an uncached design is let go as
                # soon as the summed sweep exists.
                design = self._design(r, held)
                held.update(rate=uniq[0], W=self._weights(design, uniq[0]) @ design[2])
                held.pop("design", None)
            contrib = held["W"] @ box.reshape((self.grid.inside.size,) + box.shape[3:])
        else:
            contrib = self._integrate(self._design(r, held), box, rates)
        s = self._lengths(r, held)
        if mirror is None:
            return contrib, s
        return contrib[mirror[1]], s[mirror[1]]

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
        for i in self.orbit_order():
            out[:, i, :] = self.radiance(i, self.grid.embed(Phi[:, i, :]), rates, gvals[i])
        return out

    def boundary_term(self, rates: np.ndarray, gvals: np.ndarray) -> np.ndarray:
        """Formal solution without sources, g_i e^{-rate s}, for every direction, (M, A, J)."""
        out = np.empty((self.grid.n_nodes, self.angular.n_nodes, np.shape(gvals)[1]))
        for i in self.orbit_order():
            out[:, i, :] = _attenuated(gvals[i], self.path_lengths(i), rates)
        return out

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


def _attenuated(g, s: np.ndarray, rates, weight: float = 1.0) -> np.ndarray:
    """Boundary radiance g carried a path s with decay rates, times a
    quadrature weight: weight e^{-rate s} g, with one exponential per
    distinct rate."""
    rates = np.ravel(rates)
    if np.all(rates == rates[0]):  # one rate: no spreading over the channels
        return np.outer(weight * np.exp(-rates[0] * s), g)
    uniq, inv = np.unique(rates, return_inverse=True)
    return np.take(weight * np.exp(-np.outer(s, uniq)), inv, axis=1) * g


# ---------------------------------------------------------------------------
# Anderson fixed-point iteration, the frozen-temperature J0 solve, the residual
# ---------------------------------------------------------------------------


class MonotonicityError(RuntimeError):
    """Residuals increased for a map that must contract monotonically."""


@dataclass
class SolverReport:
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    contraction_estimates: list = field(default_factory=list)
    conservation_norm: float = 0.0
    wall_time: float = 0.0
    status: str = "converged"
    tolerance: float = 0.0
    norm: str = ""
    rejected_steps: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def operator_applies(self) -> int:
        """Evaluations of the map: every recorded iterate plus every rejected one."""
        return self.iterations + self.rejected_steps

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual_history": [float(r) for r in self.residual_history],
            "contraction_estimates": [float(r) for r in self.contraction_estimates],
            "conservation_norm": float(self.conservation_norm),
            "wall_time": float(self.wall_time),
            "status": self.status,
            "tolerance": float(self.tolerance),
            "norm": self.norm,
            "operator_applies": self.operator_applies,
            "rejected_steps": self.rejected_steps,
            "extra": self.extra,
        }


def _push_residual(report: SolverReport, value: float, scale: float):
    """Record a residual and fail the run on non-monotone decay.

    Rounding-level wobble near the floor is tolerated; any genuine increase
    of a contracting iteration indicates a broken operator.
    """
    hist = report.residual_history
    if hist:
        prev = hist[-1]
        floor = 1e3 * np.finfo(float).eps * max(scale, 1e-300)
        if prev > floor and value > prev * 1.0001 + floor:
            report.status = "invariant_violation"
            raise MonotonicityError(
                f"residual increased: {prev:.3e} -> {value:.3e} at iteration {len(hist)}"
            )
        if prev > 0.0:
            report.contraction_estimates.append(value / prev)
    hist.append(value)


def _finish(report: SolverReport, converged: bool, t0: float):
    report.wall_time = time.perf_counter() - t0
    report.iterations = len(report.residual_history)
    report.status = "converged" if converged else "max_iter"


# Anderson depth: the number of residual differences in the mixing.
ANDERSON_DEPTH = 5


def _fixed_point(step, x0, report: SolverReport, tol: float, max_iter: int,
                 cell_volume: float, t0: float) -> np.ndarray:
    """Solve x = step(x) for x >= 0; returns step(x*) at the accepted x*.

    Picard iteration accelerated by Anderson mixing (Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011) over the last ``ANDERSON_DEPTH`` residual
    differences, projected onto x >= 0.  Each residual |step(x) - x| (volume
    L1) is computed with the operator.  A mixed iterate whose residual
    exceeds the last accepted one is rejected unrecorded; the history is
    cleared and the Picard step from the last accepted point is taken
    instead, which must not raise the residual (``_push_residual``).  Stops
    when the residual is at most ``tol`` times |step(x)|, or after
    ``max_iter`` applications of ``step``, rejected ones included.
    """
    g, f = x0, None  # step(x) and step(x) - x at the last accepted x
    dG, dF = np.empty((2, ANDERSON_DEPTH, x0.size))  # accepted differences, oldest first
    k = -1  # differences held; -1 until (g, f) is an accepted step of the history
    applies = 0
    converged = False
    while applies < max_iter:
        if k > 0:
            gamma = np.linalg.lstsq(dF[:k].T, f, rcond=None)[0]
            x_new = np.maximum(g - dG[:k].T @ gamma, 0.0)
        else:
            x_new = g
        g_new = step(x_new)
        applies += 1
        f_new = g_new - x_new
        change = float(np.sum(np.abs(f_new))) * cell_volume
        if k > 0 and change > report.residual_history[-1]:
            report.rejected_steps += 1
            k = -1
            continue
        scale = float(np.sum(np.abs(g_new))) * cell_volume
        _push_residual(report, change, scale + 1e-300)
        if change <= tol * max(scale, 1e-300):
            g, converged = g_new, True
            break
        if k == ANDERSON_DEPTH:  # drop the oldest difference
            for r in range(k - 1):
                dG[r], dF[r] = dG[r + 1], dF[r + 1]
            k -= 1
        if k >= 0:
            np.subtract(g_new, g, out=dG[k])
            np.subtract(f_new, f, out=dF[k])
        g, f, k = g_new, f_new, k + 1
    _finish(report, converged, t0)
    report.conservation_norm = float(report.residual_history[-1]) if report.residual_history else 0.0
    return g


# Cap of the applies of the frozen-temperature J0 solve (``scattered_mean_intensity``).
INNER_MAX_ITER = 800


class InnerDiverged(RuntimeError):
    """An inner linear-transport solve hit its iteration cap."""


def _j0_map(grid, alpha_a, alpha_s, B, b4pi, J0):
    """The J0 map at emission B, (M, J):
    b4pi + (4pi/beta) K_beta[alpha_a B + (alpha_s/4pi) J0] per frequency."""
    beta = alpha_a + alpha_s
    gain = np.divide(FOUR_PI, beta, out=np.zeros(beta.size), where=beta > 0.0)
    src = alpha_a * B + alpha_s / FOUR_PI * J0
    return b4pi + gain * apply_attenuation_batch(grid, beta, src.T).T


def scattered_mean_intensity(
    grid: SpatialGrid,
    alpha_a: np.ndarray,
    alpha_s: np.ndarray,
    B: np.ndarray,
    b4pi: np.ndarray,
    tol: float = 1e-12,
    init: np.ndarray | None = None,
):
    """Angle-integrated radiance J0 of the linear transport problem at fixed T.

    Solves, per frequency, the closed equation (isotropic scattering)

        J0 = b4pi + integral e^{-beta r}/r^2 [alpha_a B + (alpha_s/4pi) J0],

    with ``_fixed_point`` on ``_j0_map`` from ``init`` (default 0) to relative
    L1 change ``tol``.  B and b4pi are (M, J) arrays; returns (J0, applies).
    Raises ``InnerDiverged`` if ``INNER_MAX_ITER`` applies do not reach ``tol``.
    """
    M, J = B.shape
    report = SolverReport(tolerance=tol)

    def step(x):
        return _j0_map(grid, alpha_a, alpha_s, B, b4pi, x.reshape(M, J)).ravel()

    x0 = np.zeros(M * J) if init is None else init.ravel()
    J0 = _fixed_point(step, x0, report, tol, INNER_MAX_ITER, grid.cell_volume, time.perf_counter())
    if report.status != "converged":
        raise InnerDiverged(f"inner transport solve hit its iteration cap ({INNER_MAX_ITER})")
    return J0.reshape(M, J), report.operator_applies


def conservation_residual(
    T: np.ndarray,
    g: BoundarySource,
    medium: MediumSpec,
    domain: ConvexDomain,
    grid: SpatialGrid,
    angular: AngularGrid,
    spectral_grid: SpectralGrid,
    representation: str = "kernel",
    ray_h: float | None = None,
    J0_guess: np.ndarray | None = None,
):
    """Defect of the divergence-free-flux fixed point at a temperature field.

    Per node: r = 4pi f(T) - (kernel emission + boundary absorption).  With
    ``representation="kernel"`` the right-hand side uses the same lattice
    stencils the solvers iterate, so a converged solve has a residual at the
    solver tolerance.  With ``representation="ray"`` it is re-evaluated by
    marching formal solutions along rays, an independent discretization whose
    difference from the kernel route estimates the discretization error.
    With scattering, ``J0_guess`` (the solver's mean intensities) warm-starts
    the inner solve for J0.

    Returns ``(absolute, relative)``, both (M,).
    """
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

    if has_scattering:
        b4pi = FOUR_PI * boundary_attenuation_nodes(domain, grid, g, beta, angular, spectral_grid)
        J0, _ = scattered_mean_intensity(grid, alphas_a, alphas_s, B, b4pi, init=J0_guess)
    if representation == "kernel":
        if not has_scattering:
            qa = q * alphas_a
            rhs = (apply_attenuation_batch(grid, beta, B.T, weights=qa)
                   + boundary_attenuation_nodes(domain, grid, g, beta, angular, spectral_grid,
                                                weights=qa))
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
        for i in sweeper.orbit_order():
            I_i = sweeper.radiance(i, boxes, beta, gvals[i])
            absorbed += angular.weights[i] * np.sum(q * alphas_a * I_i, axis=1)
        rhs = absorbed / FOUR_PI

    residual = FOUR_PI * (w - rhs)
    scale = FOUR_PI * np.maximum(w, np.max(w) * 1e-12 + 1e-300)
    return residual, residual / scale
