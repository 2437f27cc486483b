"""Fixed-point solvers for the four radiative regimes.

The temperature solvers share one driver, ``_fixed_point``: Picard iteration
of a monotone contraction from zero, accelerated by safeguarded Anderson
mixing.  Every recorded residual is the true residual of the map, recomputed
with the operator, so the recorded history decays monotonically; a Picard
step that raises it aborts the run.  Convergence norms follow the
contraction proofs: sup-over-position of the angular L1 change for the
scattering sweep, and the volume L1 norm for the temperature maps.

The combined regime is organized as a nested iteration: the outer loop
updates the emission field w = f(T); each outer step solves the linear
transport problem at frozen temperature.  For isotropic scattering that
linear problem closes in the angle-integrated radiance and is solved with
the lattice kernel (``scattered_mean_intensity``; with constant
coefficients on one channel, the absorption-weighted frequency sum); for
tabulated kernels an angular source-iteration sweep is used instead.

The ray-marching loops with in-scattering (scattering solver, tabulated-kernel
inner solve, ``compute_H``, oracle) share one ``AngularSweep``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from radbody import geometry, spectral, transport
from radbody.geometry import ConvexDomain
from radbody.quadrature import AngularGrid, SpatialGrid, SpectralGrid, scaled_spatial
from radbody.spectral import AbsorptionProfile
from radbody.transport import (
    FOUR_PI,
    BoundarySource,
    MediumSpec,
    RadiationField,
    RaySweeper,
    ScalarField,
    attenuation_operator,
    boundary_attenuation_nodes,
    scattered_mean_intensity,
)


class InnerDiverged(RuntimeError):
    """The inner linear-transport solve of the combined regime stalled."""


class CapExceeded(RuntimeError):
    """A spectral iterate escaped its a-priori bound; kernel mass is suspect."""


class NegativeSource(RuntimeError):
    """The boundary sink term came out negative; quadrature failure."""


class TooLarge(ValueError):
    """Problem size exceeds the brute-force oracle budget."""


class MonotonicityError(RuntimeError):
    """Residuals increased for a map that must contract monotonically."""


@dataclass(frozen=True)
class Grids:
    """Resolution bundle shared by the solvers."""

    spatial: SpatialGrid
    angular: AngularGrid
    spectral: SpectralGrid
    ray_h: float | None = None


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
    G, F = [], []  # accepted (g, f) pairs, oldest first
    applies = 0
    converged = False
    while applies < max_iter:
        mixed = len(F) > 1
        if mixed:
            dF = np.diff(np.array(F), axis=0).T
            gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
            x_new = np.maximum(g - np.diff(np.array(G), axis=0).T @ gamma, 0.0)
        else:
            x_new = g
        g_new = step(x_new)
        applies += 1
        f_new = g_new - x_new
        change = float(np.sum(np.abs(f_new))) * cell_volume
        if mixed and change > report.residual_history[-1]:
            report.rejected_steps += 1
            G.clear()
            F.clear()
            continue
        scale = float(np.sum(np.abs(g_new))) * cell_volume
        _push_residual(report, change, scale + 1e-300)
        g, f = g_new, f_new
        if change <= tol * max(scale, 1e-300):
            converged = True
            break
        G.append(g)
        F.append(f)
        del G[:-ANDERSON_DEPTH - 1], F[:-ANDERSON_DEPTH - 1]
    _finish(report, converged, t0)
    return g


# ---------------------------------------------------------------------------
# Angular sweep with in-scattering
# ---------------------------------------------------------------------------


class AngularSweep:
    """The ray-marched transfer map of one medium and boundary source.

    Holds the per-frequency rates, the weighted scattering kernel
    Kw[i, k] = K[i, k] w_k, the ray sweeper and the boundary radiance table
    (A, J); it is the one place a sweep applies the kernel to a radiance field.
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

    def sweep(self, I: np.ndarray, emit=0.0) -> np.ndarray:
        """Formal solution (M, A, J) for the source alpha_s sum_k Kw[i, k] I_k + emit."""
        Phi = np.einsum("ik,mkj->mij", self.Kw, I) * self.alphas_s + emit
        return self.rays.sweep(Phi, self.beta, self.gvals)

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

    Sweeps the integral map I <- boundary + ray integral of the in-scattered
    field for every (node, direction, frequency); converges in the
    sup-position, L1-direction norm with the optical-depth contraction.
    """
    t0 = time.perf_counter()
    if not medium.absorption.is_zero():
        raise ValueError("solve_scattering requires a zero absorption profile")
    sw = AngularSweep(domain, medium, g, grids)
    if np.any(sw.beta <= 0.0):
        raise ValueError("scattering coefficient must be positive on the grid")
    I = sw.rays.boundary_term(sw.beta, sw.gvals)  # start from the boundary-only term
    report = SolverReport(tolerance=tol, norm="sup_x L1_n (per frequency)")
    converged = False
    for _ in range(max_iter):
        I_new = sw.sweep(I)
        change = float(np.max(sw.angle_integral(np.abs(I_new - I))))
        I = I_new
        _push_residual(report, change, float(np.max(np.abs(I))) + 1e-300)
        if change <= tol:
            converged = True
            break
    _finish(report, converged, t0)
    report.conservation_norm = report.residual_history[-1] if report.residual_history else 0.0
    return RadiationField(I), report


# ---------------------------------------------------------------------------
# Grey absorption
# ---------------------------------------------------------------------------


def solve_grey(
    domain: ConvexDomain,
    alpha: float,
    g: BoundarySource,
    grids: Grids,
    tol: float = 1e-8,
    max_iter: int = 500,
):
    """Picard iteration for the grey (constant absorption) regime.

    Coordinates are pre-scaled by alpha so the internal map uses the
    unit-rate kernel; the returned fields live on the original nodes.
    Returns (a = sigma T^4, T, report).
    """
    t0 = time.perf_counter()
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("grey absorption coefficient must be positive")
    grid, angular, sgrid = grids.spatial, grids.angular, grids.spectral
    if alpha == 1.0:
        sdomain, sgrid_sp = domain, grid
    else:
        sdomain = ConvexDomain(domain.shape, domain.center * alpha, domain.semi_axes * alpha)
        sgrid_sp = scaled_spatial(grid, alpha)
    op = attenuation_operator(sgrid_sp, 1.0)
    rates = np.ones(sgrid.n_nodes)
    b_freq = boundary_attenuation_nodes(
        sdomain, sgrid_sp, g, rates, angular, sgrid,
        mass_fields=[op.row_mass()] * sgrid.n_nodes if g.is_isotropic else None,
    )
    b = b_freq @ sgrid.weights
    if np.any(b < 0.0):
        raise NegativeSource("boundary sink term is negative at some node")

    report = SolverReport(tolerance=tol, norm="L1(Omega), relative")
    a = _fixed_point(lambda x: op.apply(x) + b, np.zeros(grid.n_nodes), report, tol,
                     max_iter, grid.cell_volume, t0)
    report.conservation_norm = float(np.max(np.abs(FOUR_PI * (a - op.apply(a) - b))))
    T = (a / spectral.stefan_sigma()) ** 0.25
    return ScalarField(a, "sigma_T4"), ScalarField(T, "temperature"), report


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
    Returns (w, T, report).
    """
    t0 = time.perf_counter()
    grid, angular, sgrid = grids.spatial, grids.angular, grids.spectral
    alphas = profile(sgrid.nodes)
    if np.all(alphas == 0.0):
        raise ValueError("absorption profile vanishes on the spectral grid")
    live = alphas > 0.0
    mass_fields = [attenuation_operator(grid, a).row_mass() for a in alphas]
    b_freq = boundary_attenuation_nodes(
        domain, grid, g, alphas, angular, sgrid,
        mass_fields=mass_fields if g.is_isotropic else None,
    )
    qa = sgrid.weights * alphas
    b = qa @ b_freq.T
    if np.any(b < 0.0):
        raise NegativeSource("boundary sink term is negative at some node")
    theta = max((float(np.max(mass_fields[j])) for j in np.flatnonzero(live)), default=0.0)
    cap = float(np.max(b)) / max(1.0 - theta, 1e-12) * (1.0 + 1e-6) + 1e-300

    T = np.zeros(grid.n_nodes)
    report = SolverReport(tolerance=tol, norm="L1(Omega), relative",
                          extra={"kernel_row_mass_max": theta, "iterate_cap": cap})

    def step(w):
        nonlocal T
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
    report.conservation_norm = float(report.residual_history[-1]) if report.residual_history else 0.0
    return ScalarField(w, "f_of_T"), ScalarField(T, "temperature"), report


# ---------------------------------------------------------------------------
# Combined scattering + absorption
# ---------------------------------------------------------------------------


# Iteration cap of the inner linear-transport solves of the combined regime.
INNER_MAX_ITER = 800


def solve_combined(
    domain: ConvexDomain,
    medium: MediumSpec,
    g: BoundarySource,
    grids: Grids,
    tol: float = 1e-8,
    max_iter: int = 500,
    return_radiation: bool = True,
):
    """Nested iteration for scattering plus emission-absorption.

    Outer Picard step on w = f(T); each step solves the linear transport
    problem at frozen temperature (warm-started, tolerance tied to the outer
    residual).  Returns (w, T, radiation, report, J0) where J0 holds the
    angle-integrated radiance per frequency; ``radiation`` is None when
    ``return_radiation`` is False (large runs).
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
    mass_fields = [attenuation_operator(grid, bj).row_mass() for bj in beta]
    b_freq = boundary_attenuation_nodes(
        domain, grid, g, beta, angular, sgrid,
        mass_fields=mass_fields if g.is_isotropic else None,
    )
    b4pi = FOUR_PI * b_freq
    if np.any(b4pi < 0.0):
        raise NegativeSource("boundary term is negative at some node")

    M, J = grid.n_nodes, sgrid.n_nodes
    T = np.zeros(M)
    report = SolverReport(tolerance=tol, norm="L1(Omega), relative")
    report.extra["certificate_bound"] = float(np.max(duhamel_theta(alphas_a, alphas_s,
                                                                   geometry.diameter(domain))))
    # Constant coefficients close the inner solve on one channel, the
    # absorption-weighted frequency sum U = sum_j q_j alpha_a J0_j with
    # emission f(T); otherwise iterate the per-frequency system.
    collapsed = medium.absorption.is_constant and medium.scattering.is_constant
    J0 = None if collapsed else np.zeros((M, J))
    U = np.zeros((M, 1))
    inner_tol = 1e-2

    def step(w):
        nonlocal T, J0, U, inner_tol
        T = spectral.invert_emission_many(medium.absorption, w, sgrid, t_guess=T)
        if collapsed:
            fT = spectral.emission_integral(medium.absorption, T, sgrid)
            bU = b4pi @ (sgrid.weights * alphas_a)
            U, inner_its = scattered_mean_intensity(
                grid, sgrid, alphas_a[:1], alphas_s[:1], fT[:, None], bU[:, None],
                tol=inner_tol, max_iter=INNER_MAX_ITER, init=U)
            w_new = U[:, 0] / FOUR_PI
        else:
            B = spectral.planck(sgrid.nodes, T[:, None])
            J0, inner_its = scattered_mean_intensity(
                grid, sgrid, alphas_a, alphas_s, B, b4pi,
                tol=inner_tol, max_iter=INNER_MAX_ITER, init=J0,
            )
            w_new = (sgrid.weights * alphas_a) @ J0.T / FOUR_PI
        if inner_its >= INNER_MAX_ITER:
            raise InnerDiverged("inner transport solve hit its iteration cap")
        inner_tol = _inner_tolerance(w, w_new, tol)
        return w_new

    w = _fixed_point(step, np.zeros(M), report, tol, max_iter, grid.cell_volume, t0)
    T = spectral.invert_emission_many(medium.absorption, w, sgrid, t_guess=T)
    if J0 is None:
        # Recover the per-frequency mean intensities at the converged state
        # (warm start: blackbody proportions hold near equilibrium).
        B = spectral.planck(sgrid.nodes, T[:, None])
        J0, _ = scattered_mean_intensity(
            grid, sgrid, alphas_a, alphas_s, B, b4pi,
            tol=min(tol, 1e-10), max_iter=INNER_MAX_ITER, init=FOUR_PI * B)
    report.conservation_norm = float(report.residual_history[-1]) if report.residual_history else 0.0
    radiation = None
    if return_radiation:
        radiation = RadiationField(_reconstruct_radiation(
            domain, grids, medium, g, T, J0))
    return (ScalarField(w, "f_of_T"), ScalarField(T, "temperature"), radiation,
            report, J0)


def _solve_combined_angular(domain, medium, g, grids, tol, max_iter, t0):
    """Fallback for tabulated kernels: angular source-iteration inner solves."""
    sgrid = grids.spectral
    sw = AngularSweep(domain, medium, g, grids)
    qa = sgrid.weights * sw.alphas_a
    T = np.zeros(grids.spatial.n_nodes)
    I = sw.rays.boundary_term(sw.beta, sw.gvals)
    report = SolverReport(tolerance=tol, norm="L1(Omega), relative")
    inner_tol = 1e-2

    def step(w):
        nonlocal T, I, inner_tol
        T = spectral.invert_emission_many(medium.absorption, w, sgrid, t_guess=T)
        B = spectral.planck(sgrid.nodes, T[:, None])
        emit = sw.alphas_a * B  # (M, J)
        i_scale = float(np.max(np.abs(I))) + float(np.max(np.abs(emit))) + 1e-300
        for inner in range(INNER_MAX_ITER):
            I_new = sw.sweep(I, emit[:, None, :])
            delta = float(np.max(np.abs(I_new - I)))
            I = I_new
            if delta <= inner_tol * i_scale:
                break
        else:
            raise InnerDiverged("angular inner solve hit its iteration cap")
        w_new = qa @ sw.angle_integral(I).T / FOUR_PI
        inner_tol = _inner_tolerance(w, w_new, tol)
        return w_new

    w = _fixed_point(step, np.zeros(grids.spatial.n_nodes), report, tol, max_iter,
                     grids.spatial.cell_volume, t0)
    T = spectral.invert_emission_many(medium.absorption, w, sgrid, t_guess=T)
    report.conservation_norm = float(report.residual_history[-1]) if report.residual_history else 0.0
    return (ScalarField(w, "f_of_T"), ScalarField(T, "temperature"), RadiationField(I),
            report, sw.angle_integral(I))


def _inner_tolerance(w, w_new, tol):
    """Inner-solve tolerance for the next outer step, tied to this step's change."""
    rel = float(np.sum(np.abs(w_new - w))) / max(float(np.sum(np.abs(w_new))), 1e-300)
    return max(min(0.05 * rel, 1e-2), 0.02 * tol)


def _reconstruct_radiation(domain, grids, medium, g, T, J0):
    """One formal-solution pass: radiance at every (node, direction, frequency)."""
    grid, sgrid = grids.spatial, grids.spectral
    sw = AngularSweep(domain, medium, g, grids, cache_bytes=0)
    B = spectral.planck(sgrid.nodes, np.asarray(T, dtype=float)[:, None])
    box = grid.embed(sw.alphas_a * B + (sw.alphas_s / FOUR_PI) * J0)
    I = np.empty((grid.n_nodes, grids.angular.n_nodes, sgrid.n_nodes))
    for i in range(grids.angular.n_nodes):
        I[:, i, :] = sw.rays.radiance(i, box, sw.beta, sw.gvals[i])
    return I


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
    """Accumulated absorption response and its a-priori geometric bound."""

    values: np.ndarray  # (M, A, J)
    angular_integral: np.ndarray  # (M, J)
    terms_used: int
    term_bounds: list
    theta_bound: np.ndarray  # (J,)
    eps_trunc: float


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
    for i in range(A):
        term[:, i, :] = (alphas_a / (FOUR_PI * beta)) * (
            -np.expm1(-np.outer(sw.rays.path_lengths(i), beta)))
    H = term.copy()
    angint = sw.angle_integral(H)
    reach = 1.0 - np.exp(-beta * D)
    term_bounds = [list(alphas_a / beta * reach)]
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
        term_bounds.append([float(x) for x in next_bound])
        terms += 1
    return HCertificate(
        values=H,
        angular_integral=angint,
        terms_used=terms,
        term_bounds=term_bounds,
        theta_bound=duhamel_theta(alphas_a, alphas_s, D),
        eps_trunc=eps_trunc,
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

ORACLE_MAX_UNKNOWNS = 100_000


@dataclass
class OracleResult:
    radiation: RadiationField
    w: ScalarField | None
    T: ScalarField | None
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
        return OracleResult(RadiationField(I), ScalarField(w, "f_of_T"),
                            ScalarField(T, "temperature"), its)
    return OracleResult(RadiationField(I), None, None, its)


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
    w: ScalarField | None = None
    T: ScalarField | None = None
    radiation: RadiationField | None = None
    J0: np.ndarray | None = None  # (M, J) angle-integrated radiance
    _shared_box_cache: np.ndarray | None = None

    def emission_rates(self):
        sgrid = self.grids.spectral
        return self.medium.absorption(sgrid.nodes), self.medium.scattering(sgrid.nodes)

    def source_box_for_angle(self, i: int, angular: AngularGrid | None = None):
        """(box (nx,ny,nz,J), rates (J,)): the ray source for direction i.

        For temperature modes the emission source is direction independent
        and cached; for the scattering mode the in-scattered source depends
        on the target direction (native angular grid only).
        """
        grid, sgrid = self.grids.spatial, self.grids.spectral
        alphas_a, alphas_s = self.emission_rates()
        beta = alphas_a + alphas_s
        if self.mode == "scattering":
            if angular is not None and angular is not self.grids.angular:
                raise ValueError("scattering radiance is only defined on its native grid")
            if self.radiation is None:
                raise ValueError("scattering solution lacks its radiation field")
            K, _ = self.medium.kernel_matrix(self.grids.angular)
            Kw = K * self.grids.angular.weights[None, :]
            Phi = np.einsum("k,mkj->mj", Kw[i], self.radiation.values)
            return grid.embed(Phi * beta), beta
        if self._shared_box_cache is None:
            B = spectral.planck(sgrid.nodes, self.T.values[:, None])
            src = alphas_a * B
            if self.J0 is not None:
                src = src + (alphas_s / FOUR_PI) * self.J0
            self._shared_box_cache = grid.embed(src)
        return self._shared_box_cache, beta

    def diagnostic_angular(self, angular: AngularGrid | None) -> AngularGrid:
        if angular is None or self.mode == "scattering":
            return self.grids.angular
        return angular

    def interior_radiance(self, i: int, angular: AngularGrid | None = None,
                          ray_h: float | None = None,
                          _sweeper: RaySweeper | None = None) -> np.ndarray:
        """Radiance (M, J) for direction i of an angular grid (native default)."""
        ang = self.diagnostic_angular(angular)
        box, rates = self.source_box_for_angle(i, ang)
        sweeper = _sweeper or RaySweeper(self.domain, self.grids.spatial, ang,
                                         ray_h if ray_h is not None else self.grids.ray_h)
        gvals = self.source.evaluate(ang.nodes, self.grids.spectral.nodes)
        return sweeper.radiance(i, box, rates, gvals[i])

    def boundary_radiance(self, points: np.ndarray, normals: np.ndarray,
                          angular: AngularGrid | None = None,
                          ray_h: float | None = None) -> np.ndarray:
        """Radiance (S, A, J) at boundary points for all angular directions.

        Incoming directions carry the boundary source; outgoing directions
        integrate the formal solution along the full chord.
        """
        ang = self.diagnostic_angular(angular)
        out = np.empty((points.shape[0], ang.n_nodes, self.grids.spectral.n_nodes))
        gvals = self.source.evaluate(ang.nodes, self.grids.spectral.nodes)
        sweeper = RaySweeper(self.domain, self.grids.spatial, ang,
                             ray_h if ray_h is not None else self.grids.ray_h)
        for i in range(ang.n_nodes):
            outgoing = normals @ ang.nodes[i] > 0.0
            out[~outgoing, i, :] = gvals[i]
            if np.any(outgoing):
                box, rates = self.source_box_for_angle(i, ang)
                out[outgoing, i, :] = sweeper.chord_radiance(i, points[outgoing], box, rates,
                                                             gvals[i])
        return out
