"""Radiation entropy: densities, production, boundary flows.

These diagnostics serve double duty: they are physics output (how strongly a
stationary state produces entropy) and solver verification (production must
be nonnegative pointwise, vanish only at equilibrium, and balance the net
boundary entropy flow by the divergence theorem).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from radbody import geometry, spectral
from radbody.spectral import NegativeIntensity
from radbody.transport import FOUR_PI


@dataclass
class EntropyReport:
    production_volume_integral: float
    min_pointwise_production: float
    phi_out: float  # outgoing entropy flow through the boundary
    phi_in: float   # incoming entropy flow, signed (negative)
    i_out: float
    i_in: float     # signed (negative)
    balance_defect: float  # i_out + i_in for a conservative field
    # The exact divergence identity for the reconstructed radiance reads
    # phi_out + phi_in = production + integral of (net emission)/T; the last
    # term vanishes as the solve conserves energy, and the identity defect
    # below measures pure quadrature error of this report.
    conservation_entropy_term: float = 0.0
    flow_identity_defect: float = 0.0

    def as_dict(self) -> dict:
        return {k: float(v) for k, v in self.__dict__.items()}


def _occupancy_entropy(u: np.ndarray) -> np.ndarray:
    """(1+u) log(1+u) - u log u with the removable zero at u = 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    pos = u > 0.0
    up = u[pos]
    out[pos] = (1.0 + up) * np.log1p(up) - up * np.log(up)
    return out


def entropy_density(nu, I):
    """Directional entropy density 2 nu^2 [(1+u)log(1+u) - u log u], u = I/(2 nu^3)."""
    nu_arr = np.asarray(nu, dtype=float)
    I_arr = np.asarray(I, dtype=float)
    if np.any(nu_arr <= 0.0):
        raise spectral.NonPositiveFrequency("entropy_density requires nu > 0")
    if np.any(I_arr < 0.0):
        raise NegativeIntensity("entropy_density requires I >= 0")
    nu_b, I_b = np.broadcast_arrays(nu_arr, I_arr)
    u = I_b / (2.0 * nu_b**3)
    out = 2.0 * nu_b**2 * _occupancy_entropy(u)
    if np.isscalar(nu) and np.isscalar(I):
        return float(out)
    return out


def production_density(nu, T, I, kappa, B_T=None):
    """Local entropy production kappa (1/T_nu - 1/T)(B(T) - B(T_nu)) >= 0.

    T_nu = nu / log1p(2 nu^3 / I) is the brightness temperature of I, so
    B(T_nu) = I.  Both factors share their sign, so the product is
    nonnegative up to rounding; it vanishes exactly when the radiance is the
    local blackbody value.  T = 0 is admitted only together with I = 0 (zero
    production).  ``B_T``, if given, is ``planck(nu, T)`` evaluated
    beforehand, so that callers sweeping many radiances at one temperature
    field compute it once.
    """
    nu_arr, T_arr, I_arr, kappa_arr = (np.asarray(a, dtype=float) for a in (nu, T, I, kappa))
    if np.any(nu_arr <= 0.0):
        raise spectral.NonPositiveFrequency("production_density requires nu > 0")
    if np.any(I_arr < 0.0):
        raise NegativeIntensity("production_density requires I >= 0")
    BT = spectral.planck(nu_arr, T_arr) if B_T is None else B_T
    # Two full-size buffers: the result, which starts as 1/T_nu, and B(T) - I.
    out = np.empty(np.broadcast_shapes(nu_arr.shape, T_arr.shape, I_arr.shape,
                                       kappa_arr.shape, np.shape(BT)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(2.0 * nu_arr**3, I_arr, out=out)
        np.log1p(out, out=out)
        np.divide(nu_arr, out, out=out)
        np.divide(1.0, out, out=out)
        # Off the live set (T > 0 and a finite 1/T_nu) the value is 0, except
        # emission into exact vacuum (I = 0, T > 0), whose limit diverges.
        live = (T_arr > 0.0) & np.isfinite(out)
        np.subtract(out, 1.0 / T_arr, out=out)
        np.multiply(kappa_arr, out, out=out)
        out *= np.subtract(BT, I_arr)
    if not np.all(live):
        vacuum = (T_arr > 0.0) & (I_arr == 0.0) & (kappa_arr > 0.0)
        np.copyto(out, np.where(vacuum, np.inf, 0.0), where=~live)
    if np.isscalar(nu) and np.isscalar(T) and np.isscalar(I) and np.isscalar(kappa):
        return float(out)
    return out


def boundary_flows(ent: np.ndarray, rad: np.ndarray, surface_weights: np.ndarray,
                   normals: np.ndarray, angular) -> dict:
    """Entropy and radiation flows through the boundary.

    ``ent`` and ``rad`` (S, A) hold, per surface node and direction of
    ``angular``, the entropy density and the radiance summed over
    frequency.  Outgoing/incoming split by the sign of n . n_x; incoming
    integrals keep their negative sign.
    """
    mu = normals @ angular.nodes.T  # (S, A)
    flux_w = surface_weights[:, None] * angular.weights[None, :] * mu  # (S, A)
    out_mask = mu > 0.0
    return {"phi_out": float(np.sum(flux_w[out_mask] * ent[out_mask])),
            "phi_in": float(np.sum(flux_w[~out_mask] * ent[~out_mask])),
            "i_out": float(np.sum(flux_w[out_mask] * rad[out_mask])),
            "i_in": float(np.sum(flux_w[~out_mask] * rad[~out_mask]))}


def _interior_terms(solution, i: int, B: np.ndarray):
    """Direction i's production, its least pointwise value and its absorption
    per node: ``(sum_j q_j sigma_j dV, min sigma, sum_j q_j alpha_j I_ij)``."""
    sgrid = solution.grids.spectral
    alphas_a = solution.angular_sweep.alphas_a
    I_i = solution.interior_radiance(i)
    absorbed = I_i @ (sgrid.weights * alphas_a)
    dens = production_density(sgrid.nodes[None, :], solution.T[:, None], I_i,
                              alphas_a[None, :], B_T=B)
    least = float(np.min(dens))
    dens *= sgrid.weights
    return float(np.sum(dens) * solution.grids.spatial.cell_volume), least, absorbed


def solution_entropy_report(solution) -> EntropyReport:
    """Full entropy accounting of a converged solve, on the solve's own grids.

    One pass over the directions of the solution's ``AngularSweep``, in its
    rays' orbit order, so that each orbit's node design and summed sweep are
    built once: per direction the interior radiance gives the production and
    absorption integrals, and the boundary radiance, on the surface
    quadrature that the angular grid induces and from the direction's own
    chord design, the entropy and radiation flows.  No more than one
    direction's radiance is held at a time.
    """
    grids = solution.grids
    grid, angular, sgrid = grids.spatial, grids.angular, grids.spectral
    sw = solution.angular_sweep
    alphas_a = sw.alphas_a
    interior = solution.T is not None and np.max(alphas_a) > 0.0
    production = 0.0
    min_pointwise = np.inf if interior else 0.0
    residual_term = 0.0
    if interior:
        T = solution.T
        B = spectral.planck(sgrid.nodes, T[:, None])  # (M, J), shared by every direction
        absorbed = np.zeros(grid.n_nodes)
    pts, wts, normals = geometry.surface_quadrature(solution.domain, angular.nodes,
                                                    angular.weights)
    ent = np.empty((pts.shape[0], angular.n_nodes))
    rad = np.empty(ent.shape)
    for i in sw.rays.orbit_order():
        if interior:
            prod_i, least, absorbed_i = _interior_terms(solution, i, B)
            min_pointwise = min(min_pointwise, least)
            production += angular.weights[i] * prod_i
            absorbed += angular.weights[i] * absorbed_i
        I_b = solution.boundary_radiance(i, pts, normals)
        ent[:, i] = np.einsum("kj,j->k", entropy_density(sgrid.nodes, I_b), sgrid.weights)
        rad[:, i] = np.einsum("kj,j->k", I_b, sgrid.weights)
    if interior:
        emission = FOUR_PI * np.sum(sgrid.weights * alphas_a * B, axis=1)
        live = T > 0.0
        residual_term = float(
            np.sum((emission[live] - absorbed[live]) / T[live]) * grid.cell_volume
        )
    flows = boundary_flows(ent, rad, wts, normals, angular)
    return EntropyReport(
        production_volume_integral=production,
        min_pointwise_production=min_pointwise,
        phi_out=flows["phi_out"],
        phi_in=flows["phi_in"],
        i_out=flows["i_out"],
        i_in=flows["i_in"],
        balance_defect=flows["i_out"] + flows["i_in"],
        conservation_entropy_term=residual_term,
        flow_identity_defect=(flows["phi_out"] + flows["phi_in"]
                              - production - residual_term),
    )
