"""Fixed-point solvers for the four radiative regimes.

Every solver runs on one driver, ``transport._fixed_point``: Picard
iteration of a monotone contraction, accelerated by safeguarded Anderson
mixing.  Every recorded residual is the true residual of the map,
recomputed with the operator, so the recorded history decays monotonically;
a Picard step that raises it aborts the run.  The convergence norm is the
volume L1 norm of the change relative to the new iterate, for the
temperature maps and for the radiance sweeps alike.  The driver records the
last residual as the report's conservation norm.

Grey absorption is the constant-coefficient case of ``solve_spectral``, with
no solver of its own: T always comes from the profile's emission table.
Each temperature solve takes its boundary term from
``transport.boundary_attenuation_nodes``, which picks the row-mass identity
for isotropic sources and raises ``NegativeSource`` on a negative sink, and
iterates the kernel at the medium's own rates on the original lattice; the
spectral step's frequency sum runs through ``transport.rate_interpolation``,
and its boundary term reads the same interpolated row masses.  Every kernel
apply is one ``transport.apply_attenuation_batch``, the only FFT convolution;
a constant profile makes the map linear, one single-channel apply a step.

The combined regime runs on the same driver with no inner solve.  With
isotropic scattering, constant coefficients run the grey solve at rate
alpha_a + alpha_s and then recover the angle-integrated radiance J0 once
(``scattered_mean_intensity``, which stops at ``transport.INNER_MAX_ITER``
applies with ``InnerDiverged``); otherwise the driver iterates J0 itself, one
per-channel kernel apply of the J0 map (``transport._j0_map``) a step.  With
a tabulated kernel the driver iterates the radiance I, one angular sweep a
step: the oracle's map.

The ray-marching loops with in-scattering (scattering solver, tabulated-kernel
combined route, ``compute_H``, oracle) share one ``AngularSweep``, and
``AngularSweep.source`` is the only code that applies the scattering kernel
to a radiance field.  ``Solution`` re-evaluates radiance on demand on the
solve's own grids, through one ``AngularSweep`` that it builds once: from the
stored radiance through ``AngularSweep.source`` where the solver keeps one
(scattering, tabulated-kernel combined), otherwise from the isotropic source
alpha_a B(T) + (alpha_s/4pi) J0; an isotropic combined solve stores none.
Solvers, the oracle and ``Solution`` hold plain ndarrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from radbody import geometry, spectral, transport
from radbody.geometry import ConvexDomain
from radbody.quadrature import AngularGrid, SpatialGrid, SpectralGrid
from radbody.spectral import AbsorptionProfile
from radbody.transport import (
    FOUR_PI,
    BoundarySource,
    MediumSpec,
    MonotonicityError,
    RaySweeper,
    SolverReport,
    _fixed_point,
    attenuation_operator,
    boundary_attenuation_nodes,
    scattered_mean_intensity,
)


class CapExceeded(RuntimeError):
    """A spectral iterate escaped its a-priori bound; kernel mass is suspect."""


class TooLarge(ValueError):
    """Problem size exceeds the brute-force oracle budget."""


@dataclass(frozen=True)
class Grids:
    """Resolution bundle shared by the solvers."""

    spatial: SpatialGrid
    angular: AngularGrid
    spectral: SpectralGrid
    ray_h: float | None = None


# ---------------------------------------------------------------------------
# Angular sweep with in-scattering
# ---------------------------------------------------------------------------


class AngularSweep:
    """The ray-marched transfer map of one medium and boundary source.

    Holds the per-frequency rates, the weighted scattering kernel
    Kw[i, k] = K[i, k] w_k, the ray sweeper and the boundary radiance table
    (A, J); ``source`` is the one place the kernel is applied to a radiance
    field, for the sweeps here and for ``Solution``'s diagnostics.
    """

    def __init__(self, domain: ConvexDomain, medium: MediumSpec, g: BoundarySource,
                 grids: Grids, cache_bytes: int = 256 << 20):
        angular, nus = grids.angular, grids.spectral.nodes
        self.weights = angular.weights
        self.alphas_a = medium.absorption(nus)
        self.alphas_s = medium.scattering(nus)
        self.beta = self.alphas_a + self.alphas_s
        K, _ = medium.kernel_matrix(angular)
        self.Kw = K * angular.weights[None, :]
        self.rays = RaySweeper(domain, grids.spatial, angular, grids.ray_h, cache_bytes)
        self.gvals = g.evaluate(angular.nodes, nus)

    def source(self, I: np.ndarray, emit=0.0, i: int | None = None) -> np.ndarray:
        """In-scattered plus emitted source alpha_s sum_k Kw[i, k] I_k + emit:
        (M, A, J) for every direction, or (M, J) for direction ``i`` alone."""
        Kw = self.Kw if i is None else self.Kw[i]
        return np.einsum("...k,mkj->m...j", Kw, I) * self.alphas_s + emit

    def sweep(self, I: np.ndarray, emit=0.0) -> np.ndarray:
        """Formal solution (M, A, J) for ``source(I, emit)``."""
        return self.rays.sweep(self.source(I, emit), self.beta, self.gvals)

    def angle_integral(self, I: np.ndarray) -> np.ndarray:
        """sum_i w_i I[:, i, :], (M, J)."""
        return np.einsum("i,mij->mj", self.weights, I)


# ---------------------------------------------------------------------------
# Pure scattering
# ---------------------------------------------------------------------------


def solve_scattering(
    domain: ConvexDomain,
    medium: MediumSpec,
    g: BoundarySource,
    grids: Grids,
    tol: float = 1e-8,
    max_iter: int = 500,
):
    """Source iteration for the scattering-only transfer equation.

    The driver iterates the radiance I over (node, direction, frequency),
    one ``AngularSweep.sweep`` a step: I <- boundary + ray integral of the
    in-scattered field, which contracts with the optical depth.  ``tol``
    bounds the relative L1 change of I.
    """
    t0 = time.perf_counter()
    if not medium.absorption.is_zero():
        raise ValueError("solve_scattering requires a zero absorption profile")
    sw = AngularSweep(domain, medium, g, grids)
    if np.any(sw.beta <= 0.0):
        raise ValueError("scattering coefficient must be positive on the grid")
    return _drive_radiance(sw, sw.sweep, tol, max_iter, grids, t0)


def _drive_radiance(sw, step, tol, max_iter, grids, t0):
    """Run the driver on radiance arrays (M, A, J): I <- step(I), from the
    boundary term, the sweep's value at I = 0.  Returns (I, report)."""
    report = SolverReport(tolerance=tol, norm="L1(Omega x directions x frequency nodes) of I, "
                          "relative")
    start = sw.rays.boundary_term(sw.beta, sw.gvals)
    try:
        I = _fixed_point(lambda x: step(x.reshape(start.shape)).ravel(), start.ravel(), report,
                         tol, max_iter, grids.spatial.cell_volume, t0)
    except MonotonicityError as exc:  # a long ray step can make the sweep expand
        raise MonotonicityError(f"{exc}; max beta * ray_h is {np.max(sw.beta) * sw.rays.ray_h:.3g}"
                                ", and 'grids.ray.h' sets ray_h: lower it") from exc
    return I.reshape(start.shape), report


# ---------------------------------------------------------------------------
# Frequency-dependent absorption
# ---------------------------------------------------------------------------


def solve_spectral(
    domain: ConvexDomain,
    profile: AbsorptionProfile,
    g: BoundarySource,
    grids: Grids,
    tol: float = 1e-8,
    max_iter: int = 500,
):
    """Picard iteration on w = f(T) for frequency-dependent absorption.

    Iterates w <- kernel term + boundary term from w = 0; iterates stay in
    [0, L] where L is derived from the measured maximal kernel row mass.
    A constant profile is the grey regime: there f(f^-1(w)) = w, so the map
    is linear and a step is one single-channel apply K_alpha w + b, with no
    inversion; T is inverted once, at the end.
    The report's ``extra`` records the rate interpolation of the frequency
    sum (None when it is exact) and the emission table's size and fallbacks.
    Returns (w, T, report).
    """
    t0 = time.perf_counter()
    grid, sgrid = grids.spatial, grids.spectral
    alphas = profile(sgrid.nodes)
    if np.all(alphas == 0.0):
        raise ValueError("absorption profile vanishes on the spectral grid")
    b = boundary_attenuation_nodes(domain, grid, g, alphas, grids.angular, sgrid,
                                   weights=sgrid.weights * alphas)
    return _emission_fixed_point(grid, sgrid, profile, b, tol, max_iter, t0)


def _emission_fixed_point(grid, sgrid, profile, b, tol, max_iter, t0):
    """``solve_spectral`` after its boundary term b: iterates
    w <- sum_j q_j alpha_j K_alpha_j B_j(f^-1(w)) + b."""
    alphas = profile(sgrid.nodes)
    qa = sgrid.weights * alphas
    # A constant profile's one kernel: its map is linear, K_alpha w + b.
    op = attenuation_operator(grid, profile.value) if profile.is_constant else None
    mass = transport.summed_row_masses(grid, alphas) if op is None else op.row_mass()
    theta = float(np.max(mass))
    cap = float(np.max(b)) / max(1.0 - theta, 1e-12) * (1.0 + 1e-6) + 1e-300
    plan = transport.rate_interpolation(grid, alphas)
    table = spectral.emission_table(profile, sgrid)
    fallbacks = table.fallbacks

    T = np.zeros(grid.n_nodes)
    report = SolverReport(tolerance=tol, norm="L1(Omega), relative",
                          extra={"kernel_row_mass_max": theta, "iterate_cap": cap,
                                 "rate_interpolation": None if plan is None else plan.as_dict()})

    def step(w):
        nonlocal T
        if op is not None:
            w_new = transport.apply_attenuation_batch(grid, alphas[:1], w[None])[0] + b
        else:
            T = spectral.invert_emission_many(profile, w, sgrid, t_guess=T)
            B = spectral.planck(sgrid.nodes, T[:, None])  # (M, J)
            w_new = transport.apply_attenuation_batch(grid, alphas, B.T, weights=qa) + b
        if float(np.max(w_new)) > cap:
            report.status = "invariant_violation"
            raise CapExceeded(f"iterate max {np.max(w_new):.3e} exceeded bound {cap:.3e}")
        return w_new

    w = _fixed_point(step, np.zeros(grid.n_nodes), report, tol, max_iter,
                     grid.cell_volume, t0)
    T = spectral.invert_emission_many(profile, w, sgrid, t_guess=T)
    report.extra["emission_table"] = {"size": table.size,
                                      "fallbacks": table.fallbacks - fallbacks}
    return w, T, report


# ---------------------------------------------------------------------------
# Combined scattering + absorption
# ---------------------------------------------------------------------------


def solve_combined(
    domain: ConvexDomain,
    medium: MediumSpec,
    g: BoundarySource,
    grids: Grids,
    tol: float = 1e-8,
    max_iter: int = 500,
):
    """Scattering plus emission-absorption; ``report.extra["route"]`` names the route.

    An isotropic kernel runs no inner solve.  Constant coefficients run the
    grey solve (``solve_spectral``'s linear map) at rate alpha_a + alpha_s
    ("grey": scattering drops out of grey radiative equilibrium), set
    w = (alpha_a/beta) w_beta, then recover J0 once at the converged T, both
    to min(tol, 1e-10), with one boundary term for both.
    Otherwise the driver iterates the mean intensity ("joint"),
    J0 <- b4pi + (4pi/beta) K_beta[alpha_a B(T) + (alpha_s/4pi) J0] with
    T = f^-1(sum_j q_j alpha_a J0_j / 4pi).  A tabulated kernel makes the
    driver iterate the radiance I itself, one sweep a step ("angular"); there
    ``max_iter`` counts sweeps and ``tol`` bounds the relative L1 change of I.
    Returns (w, T, radiation, report, J0): ``radiation`` is the angular
    route's radiance, else None.
    """
    t0 = time.perf_counter()
    grid, angular, sgrid = grids.spatial, grids.angular, grids.spectral
    alphas_a = medium.absorption(sgrid.nodes)
    alphas_s = medium.scattering(sgrid.nodes)
    if np.all(alphas_a == 0.0):
        raise ValueError(
            "combined solver needs nonzero absorption; the temperature is "
            "indeterminate for pure scattering (use solve_scattering)"
        )
    if not medium.is_isotropic:
        return _solve_combined_angular(domain, medium, g, grids, tol, max_iter, t0)
    beta = alphas_a + alphas_s
    b_freq = boundary_attenuation_nodes(domain, grid, g, beta, angular, sgrid)
    b4pi = FOUR_PI * b_freq
    qa = sgrid.weights * alphas_a
    M, J = grid.n_nodes, sgrid.n_nodes

    if medium.absorption.is_constant and medium.scattering.is_constant:
        # One tolerance for T and the J0 recovery, whose warm start 4pi B(T)
        # is then accurate to it: a looser T costs more batched recovery
        # applies than the tighter one-channel solve takes.
        tight = min(tol, 1e-10)
        # f_beta = (beta/alpha_a) f_alpha, so the rate-beta solve's T is the
        # medium's, at w = (alpha_a/beta) w_beta.
        w, T, report = _emission_fixed_point(grid, sgrid, AbsorptionProfile.constant(beta[0]),
                                             b_freq @ (sgrid.weights * beta), tight, max_iter, t0)
        w = alphas_a[0] / beta[0] * w
        B = spectral.planck(sgrid.nodes, T[:, None])
        J0, _ = scattered_mean_intensity(grid, alphas_a, alphas_s, B, b4pi, tol=tight,
                                         init=FOUR_PI * B)
        report.extra["route"] = "grey"
    else:
        T = np.zeros(M)
        report = SolverReport(tolerance=tol, norm="L1(Omega x frequency nodes) of J0, relative",
                              extra={"route": "joint"})

        def step(x):
            nonlocal T
            J0 = x.reshape(M, J)
            T = spectral.invert_emission_many(medium.absorption, J0 @ qa / FOUR_PI, sgrid,
                                              t_guess=T)
            B = spectral.planck(sgrid.nodes, T[:, None])
            return transport._j0_map(grid, alphas_a, alphas_s, B, b4pi, J0).ravel()

        J0 = _fixed_point(step, np.zeros(M * J), report, tol, max_iter, grid.cell_volume,
                          t0).reshape(M, J)
        w = J0 @ qa / FOUR_PI
        T = spectral.invert_emission_many(medium.absorption, w, sgrid, t_guess=T)
    report.extra["certificate_bound"] = float(np.max(duhamel_theta(
        alphas_a, alphas_s, geometry.diameter(domain))))
    return w, T, None, report, J0


def _solve_combined_angular(domain, medium, g, grids, tol, max_iter, t0):
    """Tabulated kernels: the driver iterates the radiance I, one sweep a step.

    The step is the oracle's map: T = f^-1(sum_j q_j alpha_a,j J0_j / 4pi)
    from the angle integral J0 of I, warm-started from the last T, then
    ``AngularSweep.sweep`` of I with the emission alpha_a B(T).
    """
    sgrid = grids.spectral
    sw = AngularSweep(domain, medium, g, grids)
    qa = sgrid.weights * sw.alphas_a
    T = np.zeros(grids.spatial.n_nodes)

    def step(I):
        nonlocal T
        T = spectral.invert_emission_many(medium.absorption, sw.angle_integral(I) @ qa / FOUR_PI,
                                          sgrid, t_guess=T)
        B = spectral.planck(sgrid.nodes, T[:, None])
        return sw.sweep(I, (sw.alphas_a * B)[:, None, :])

    I, report = _drive_radiance(sw, step, tol, max_iter, grids, t0)
    report.extra["route"] = "angular"
    J0 = sw.angle_integral(I)
    w = J0 @ qa / FOUR_PI
    T = spectral.invert_emission_many(medium.absorption, w, sgrid, t_guess=T)
    return w, T, I, report, J0


# ---------------------------------------------------------------------------
# Duhamel-series certificate
# ---------------------------------------------------------------------------


def duhamel_theta(alpha_a, alpha_s, D: float):
    """Closed-form bound on the angle-integrated absorption response:
    alpha_a (1 - e^{-beta D}) / (alpha_a + alpha_s e^{-beta D}) per frequency.
    """
    alpha_a = np.asarray(alpha_a, dtype=float)
    alpha_s = np.asarray(alpha_s, dtype=float)
    beta = alpha_a + alpha_s
    decay = np.exp(-beta * D)
    with np.errstate(invalid="ignore", divide="ignore"):
        theta = alpha_a * (1.0 - decay) / (alpha_a + alpha_s * decay)
    return np.where(beta > 0.0, theta, 0.0)


@dataclass
class HCertificate:
    """Angular integral of the absorption response and its a-priori geometric bound."""

    angular_integral: np.ndarray  # (M, J)
    terms_used: int
    theta_bound: np.ndarray  # (J,)


def compute_H(
    domain: ConvexDomain,
    medium: MediumSpec,
    grids: Grids,
    eps_trunc: float = 1e-10,
    max_terms: int = 400,
) -> HCertificate:
    """Sum the multiple-scattering series for the absorption response field.

    Term zero is the direct-absorption transit integral along each ray;
    every further term applies the scattering transfer operator by ray
    quadrature.  Truncation stops at the first term whose closed-form
    geometric bound drops below ``eps_trunc``; partial angular integrals are
    checked to increase monotonically.
    """
    sw = AngularSweep(domain, medium, BoundarySource.zero(), grids)
    alphas_a, alphas_s, beta = sw.alphas_a, sw.alphas_s, sw.beta
    if np.any(beta <= 0.0):
        raise ValueError("compute_H requires positive total extinction on the grid")
    D = geometry.diameter(domain)
    A = grids.angular.n_nodes

    # Term 0: (alpha_a / (4 pi beta)) (1 - e^{-beta s}).
    term = np.empty((grids.spatial.n_nodes, A, grids.spectral.n_nodes))
    for i in sw.rays.orbit_order():
        term[:, i, :] = (alphas_a / (FOUR_PI * beta)) * (
            -np.expm1(-np.outer(sw.rays.path_lengths(i), beta)))
    H = term.copy()
    angint = sw.angle_integral(H)
    reach = 1.0 - np.exp(-beta * D)
    terms = 1
    while terms < max_terms:
        next_bound = alphas_a * alphas_s**terms / beta ** (terms + 1) * reach ** (terms + 1)
        if float(np.max(next_bound)) <= eps_trunc:
            break
        term = sw.sweep(term)
        H += term
        new_angint = sw.angle_integral(H)
        if np.any(new_angint < angint - 1e-12):
            raise MonotonicityError("partial sums of the response series decreased")
        angint = new_angint
        terms += 1
    return HCertificate(angular_integral=angint, terms_used=terms,
                        theta_bound=duhamel_theta(alphas_a, alphas_s, D))


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

ORACLE_MAX_UNKNOWNS = 100_000


@dataclass
class OracleResult:
    radiation: np.ndarray  # (M, A, J)
    w: np.ndarray | None
    T: np.ndarray | None
    iterations: int


def oracle_solve(
    domain: ConvexDomain,
    medium: MediumSpec,
    g: BoundarySource,
    grids: Grids,
    tol: float = 1e-10,
    max_iter: int = 5000,
) -> OracleResult:
    """Dense fixed-point reference: direct ray marching every iteration.

    No kernel stencils or convolution shortcuts; the full radiance array is
    re-swept from the current temperature and in-scattered field each pass.
    Intended for small instances and used in tests and `radbody oracle`.
    """
    grid, angular, sgrid = grids.spatial, grids.angular, grids.spectral
    M, A, J = grid.n_nodes, angular.n_nodes, sgrid.n_nodes
    if M * A * J > ORACLE_MAX_UNKNOWNS:
        raise TooLarge(f"oracle limited to {ORACLE_MAX_UNKNOWNS} unknowns, got {M * A * J}")
    sw = AngularSweep(domain, medium, g, grids)
    alphas_a = sw.alphas_a
    emitting = bool(np.max(alphas_a) > 0.0)

    I = np.zeros((M, A, J))
    w = np.zeros(M)
    T = np.zeros(M)
    its = 0
    for it in range(max_iter):
        its = it + 1
        if emitting:
            T = spectral.invert_emission_many(medium.absorption, w, sgrid, t_guess=T)
        B = spectral.planck(sgrid.nodes, T[:, None]) if emitting else np.zeros((M, J))
        I_new = sw.sweep(I, alphas_a * B[:, None, :])
        delta_I = float(np.max(np.abs(I_new - I)))
        I = I_new
        scale = float(np.max(np.abs(I))) + 1e-300
        if emitting:
            w_new = (sgrid.weights * alphas_a) @ sw.angle_integral(I).T / FOUR_PI
            delta_w = float(np.max(np.abs(w_new - w)))
            w = w_new
            wscale = float(np.max(np.abs(w))) + 1e-300
        else:
            delta_w, wscale = 0.0, 1.0
        if delta_I <= tol * scale and delta_w <= tol * wscale:
            break
    if emitting:
        T = spectral.invert_emission_many(medium.absorption, w, sgrid, t_guess=T)
        return OracleResult(I, w, T, its)
    return OracleResult(I, None, None, its)


# ---------------------------------------------------------------------------
# Solution container and radiance reconstruction
# ---------------------------------------------------------------------------


@dataclass
class Solution:
    """Converged state plus everything needed to evaluate radiance anywhere."""

    mode: str
    domain: ConvexDomain
    grids: Grids
    medium: MediumSpec
    source: BoundarySource
    report: SolverReport
    w: np.ndarray | None = None
    T: np.ndarray | None = None
    radiation: np.ndarray | None = None  # (M, A, J) radiance
    J0: np.ndarray | None = None  # (M, J) angle-integrated radiance
    _sweep: AngularSweep | None = field(default=None, init=False, repr=False)
    # The direction-independent part of the ray source: alpha_a B(T) at the
    # nodes with stored radiance, else the box of alpha_a B(T) + (alpha_s/4pi) J0.
    _source: np.ndarray | float | None = field(default=None, init=False, repr=False)

    @property
    def angular_sweep(self) -> AngularSweep:
        """The one ``AngularSweep`` on the solve's own grids that rebuilds radiance;
        no design cache, since a pass in orbit order never rereads a design."""
        if self._sweep is None:
            self._sweep = AngularSweep(self.domain, self.medium, self.source, self.grids,
                                       cache_bytes=0)
        return self._sweep

    def source_box_for_angle(self, i: int) -> np.ndarray:
        """The ray source for direction i as a box (nx, ny, nz, J).

        The data held chooses the source.  With stored radiance (scattering
        mode, tabulated-kernel combined run) it is ``AngularSweep.source`` of
        that radiance plus the emission alpha_a B(T), per direction.
        Otherwise it is the cached, direction-independent
        alpha_a B(T) + (alpha_s/4pi) J0, which is exact for an isotropic kernel.
        """
        if self._source is None:
            if self.radiation is None and self.T is None:
                raise ValueError("solution holds neither radiance nor a temperature")
            sw = self.angular_sweep
            src = 0.0 if self.T is None else sw.alphas_a * spectral.planck(
                self.grids.spectral.nodes, self.T[:, None])
            if self.radiation is None:
                if self.J0 is not None:
                    src = src + (sw.alphas_s / FOUR_PI) * self.J0
                src = self.grids.spatial.embed(src)
            self._source = src
        if self.radiation is None:
            return self._source
        return self.grids.spatial.embed(self.angular_sweep.source(self.radiation, self._source, i))

    def interior_radiance(self, i: int) -> np.ndarray:
        """Radiance (M, J) for direction i of the solve's angular grid."""
        sw = self.angular_sweep
        return sw.rays.radiance(i, self.source_box_for_angle(i), sw.beta, sw.gvals[i])

    def boundary_radiance(self, i: int, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Radiance (S, J) at boundary points for direction i of the solve's angular grid.

        Where direction i enters the body it is the boundary source; where it
        leaves, the formal solution integrated along the full chord.
        """
        sw = self.angular_sweep
        g = sw.gvals[i]
        out = np.empty((points.shape[0], g.size))
        outgoing = normals @ self.grids.angular.nodes[i] > 0.0
        out[~outgoing] = g
        if np.any(outgoing):
            out[outgoing] = sw.rays.chord_radiance(i, points[outgoing],
                                                   self.source_box_for_angle(i), sw.beta, g)
        return out
