import time
import tracemalloc

import numpy as np
import pytest

from radbody import cli, entropy, geometry, solvers, spectral, transport
from radbody.quadrature import (
    build_angular,
    build_spatial,
    build_spectral,
    single_frequency_grid,
)
from radbody.solvers import Grids
from radbody.spectral import AbsorptionProfile
from radbody.transport import BoundarySource, MediumSpec


@pytest.fixture(scope="module")
def scatter_grids(unit_ball):
    return Grids(
        spatial=build_spatial(unit_ball, 0.15),
        angular=build_angular(6, 10),
        spectral=single_frequency_grid(1.0),
        ray_h=0.0625,
    )


@pytest.fixture(scope="module")
def eq_grids(unit_ball):
    return Grids(
        spatial=build_spatial(unit_ball, 0.125),
        angular=build_angular(6, 12),
        spectral=build_spectral(1.0, 32),
        ray_h=0.0625,
    )


# ---------------------------------------------------------------------------
# Pure scattering
# ---------------------------------------------------------------------------


def test_scattering_constant_fixed_point(unit_ball, scatter_grids):
    med = MediumSpec(AbsorptionProfile.constant(0.0), AbsorptionProfile.constant(1.0))
    I, report = solvers.solve_scattering(unit_ball, med, BoundarySource.constant(3.0),
                                         scatter_grids, tol=1e-7, max_iter=300)
    assert report.status == "converged"
    assert np.max(np.abs(I - 3.0)) <= 1e-6
    assert np.all(np.isfinite(I))
    assert np.all(I >= 0.0)


def test_scattering_zero_source(unit_ball, scatter_grids):
    med = MediumSpec(AbsorptionProfile.constant(0.0), AbsorptionProfile.constant(1.0))
    I, report = solvers.solve_scattering(unit_ball, med, BoundarySource.zero(),
                                         scatter_grids, tol=1e-10, max_iter=50)
    assert np.max(np.abs(I)) == 0.0


def test_scattering_contraction_and_monotonicity(unit_ball, scatter_grids, beam_source):
    med = MediumSpec(AbsorptionProfile.constant(0.0), AbsorptionProfile.constant(1.0))
    # The solver's ratios are Anderson residual ratios, so the map's own are
    # measured on plain sweeps from the boundary term, in the norm of the
    # contraction proof: sup over nodes of the angular L1 change.
    sw = solvers.AngularSweep(unit_ball, med, beam_source, scatter_grids)
    I = sw.rays.boundary_term(sw.beta, sw.gvals)
    changes = []
    for _ in range(8):
        I_new = sw.sweep(I)
        changes.append(float(np.max(sw.angle_integral(np.abs(I_new - I)))))
        I = I_new
    # optical diameter is 2, so the paper's factor is 1 - e^{-2}
    assert max(b / a for a, b in zip(changes[2:], changes[3:])) <= 1.0 - np.exp(-2.0) + 0.05
    I, report = solvers.solve_scattering(unit_ball, med, beam_source, scatter_grids,
                                         tol=1e-7, max_iter=300)
    assert report.status == "converged"
    hist = report.residual_history
    assert all(b <= a * 1.0001 + 1e-14 for a, b in zip(hist, hist[1:]))


def test_scattering_thick_converges(unit_ball, beam_source):
    # alpha_s D = 40: the sweep's factor 1 - e^{-40} is all but 1, and plain
    # source iteration needs about 1 500 sweeps to reach tol.
    grids = Grids(build_spatial(unit_ball, 0.25), build_angular(4, 8), single_frequency_grid(1.0))
    med = MediumSpec(AbsorptionProfile.constant(0.0), AbsorptionProfile.constant(20.0))
    tol = 1e-8
    I, report = solvers.solve_scattering(unit_ball, med, beam_source, grids, tol=tol,
                                         max_iter=150)
    assert report.status == "converged"
    change = solvers.AngularSweep(unit_ball, med, beam_source, grids).sweep(I) - I
    assert np.sum(np.abs(change)) <= 10 * tol * np.sum(np.abs(I))


def test_scattering_requires_pure_scattering(unit_ball, scatter_grids):
    med = MediumSpec(AbsorptionProfile.constant(0.5), AbsorptionProfile.constant(1.0))
    with pytest.raises(ValueError):
        solvers.solve_scattering(unit_ball, med, BoundarySource.zero(), scatter_grids)


# ---------------------------------------------------------------------------
# Grey absorption
# ---------------------------------------------------------------------------


def grey(alpha):
    """Grey absorption: the constant profile, which ``solve_spectral`` iterates linearly."""
    return AbsorptionProfile.constant(alpha)


def test_grey_zero_source(unit_ball, eq_grids):
    w, T, report = solvers.solve_spectral(unit_ball, grey(1.0), BoundarySource.zero(), eq_grids)
    assert np.max(T) == 0.0
    assert report.status == "converged"


def test_grey_equilibrium(unit_ball, eq_grids):
    g = BoundarySource.equilibrium(1.0)
    w, T, report = solvers.solve_spectral(unit_ball, grey(1.0), g, eq_grids, tol=1e-10)
    assert np.max(np.abs(T - 1.0)) <= 1e-2  # discretization budget
    assert np.max(np.abs(T - 1.0)) <= 1e-6  # consistent source term is exact
    hist = report.residual_history
    assert all(b <= a_ * 1.0001 + 1e-12 for a_, b in zip(hist, hist[1:]))


def test_grey_positivity(unit_ball, eq_grids, beam_source):
    w, T, _ = solvers.solve_spectral(unit_ball, grey(1.0), beam_source, eq_grids, tol=1e-10)
    assert np.min(w) > 0.0


def test_grey_linearity(unit_ball, eq_grids, beam_source):
    w1, _, _ = solvers.solve_spectral(unit_ball, grey(1.0), beam_source, eq_grids, tol=1e-12)
    b = beam_source
    for c in (0.5, 2.0, 10.0):
        scaled = BoundarySource.tabulated((b.spectrum_nu, c * b.spectrum_val), axis=b.axis,
                                          angular_profile=(b.profile_mu, b.profile_val))
        wc, _, _ = solvers.solve_spectral(unit_ball, grey(1.0), scaled, eq_grids, tol=1e-12)
        dev = np.max(np.abs(wc - c * w1)) / np.max(np.abs(c * w1))
        assert dev <= 1e-10


@pytest.mark.parametrize("t_b, n_nodes", [(0.9, 32), (0.3, 32), (0.1, 32), (0.9, 16)])
def test_grey_equilibrium_returns_boundary_temperature(unit_ball, t_b, n_nodes):
    # The boundary term, the kernel sum and the inversion share one spectral
    # grid, so an equilibrium boundary at T_b is the discrete fixed point
    # T = T_b (the uniqueness theorem) to rounding, far from t_ref too.
    grids = Grids(build_spatial(unit_ball, 0.2), build_angular(4, 8),
                  build_spectral(1.0, n_nodes))
    _, T, report = solvers.solve_spectral(unit_ball, grey(1.0), BoundarySource.equilibrium(t_b),
                                          grids, tol=1e-12)
    assert report.status == "converged"
    assert np.max(np.abs(T - t_b)) <= 1e-10 * t_b


def test_grey_inverts_emission_once(unit_ball, eq_grids, beam_source, monkeypatch):
    # The grey map is linear in w: the steps invert nothing, and T is read
    # from the emission table once, after the solve.
    calls = []
    invert = spectral.invert_emission_many
    monkeypatch.setattr(spectral, "invert_emission_many",
                        lambda *args, **kw: calls.append(1) or invert(*args, **kw))
    _, T, report = solvers.solve_spectral(unit_ball, grey(1.0), beam_source, eq_grids)
    assert report.status == "converged" and report.iterations > 1
    assert len(calls) == 1 and np.min(T) > 0.0


def test_grey_rescaled_alpha(unit_ball, eq_grids):
    # A non-unit coefficient runs on internally rescaled coordinates; the
    # equilibrium fixed point is preserved.
    g = BoundarySource.equilibrium(1.0)
    w, T, _ = solvers.solve_spectral(unit_ball, grey(2.5), g, eq_grids, tol=1e-10)
    assert np.max(np.abs(T - 1.0)) <= 1e-6


def test_grey_conservation_residual_after_convergence(unit_ball, eq_grids, beam_source):
    tol = 1e-8
    w, T, report = solvers.solve_spectral(unit_ball, grey(1.0), beam_source, eq_grids, tol=tol)
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.0))
    res, rel = transport.conservation_residual(
        T, beam_source, med, unit_ball, eq_grids.spatial, eq_grids.angular,
        eq_grids.spectral, representation="kernel")
    w = spectral.emission_integral(med.absorption, T, eq_grids.spectral)
    assert np.max(np.abs(res)) <= 10.0 * tol * 4 * np.pi * np.max(w)


# ---------------------------------------------------------------------------
# Frequency-dependent absorption
# ---------------------------------------------------------------------------


def test_spectral_zero_source(unit_ball, eq_grids):
    prof = AbsorptionProfile.table([0.1, 10.0, 50.0], [1.0, 0.5, 0.1])
    w, T, report = solvers.solve_spectral(unit_ball, prof, BoundarySource.zero(), eq_grids)
    assert np.max(np.abs(w)) == 0.0


def test_spectral_equilibrium(unit_ball, eq_grids):
    prof = AbsorptionProfile.table([0.01, 1.0, 5.0, 20.0, 60.0], [1.2, 1.0, 0.5, 0.1, 0.02])
    g = BoundarySource.equilibrium(1.0)
    w, T, report = solvers.solve_spectral(unit_ball, prof, g, eq_grids, tol=1e-9)
    assert np.max(np.abs(T - 1.0)) <= 1e-6
    # iterates stayed inside the a-priori box [0, L]
    assert np.max(w) <= report.extra["iterate_cap"]
    assert report.extra["kernel_row_mass_max"] < 1.0


def test_spectral_equilibrium_exact_under_rate_interpolation(unit_ball, eq_grids):
    # The boundary term reads the interpolated row masses, so the blackbody
    # boundary stays an exact discrete fixed point of the compressed map.
    prof = AbsorptionProfile.table([0.01, 5.0, 60.0], [1.25, 1.0, 0.75])
    w, T, report = solvers.solve_spectral(unit_ball, prof, BoundarySource.equilibrium(0.9),
                                          eq_grids, tol=1e-12)
    plan = report.extra["rate_interpolation"]
    assert plan is not None and sum(plan["nodes_per_interval"]) < eq_grids.spectral.n_nodes
    assert plan["young_bound"] <= transport.RATE_L1_TOL
    assert report.extra["emission_table"]["size"] > 0
    assert np.max(np.abs(T - 0.9)) <= 1e-10


def test_spectral_reduces_to_grey(unit_ball, eq_grids, beam_source):
    # A flat table of the same coefficient takes the general, nonlinear step.
    flat = AbsorptionProfile.table([1.0, 2.0], [1.0, 1.0])
    w, T_s, _ = solvers.solve_spectral(unit_ball, flat, beam_source, eq_grids, tol=1e-10)
    w_g, T_g, _ = solvers.solve_spectral(unit_ball, grey(1.0), beam_source, eq_grids, tol=1e-10)
    assert np.max(np.abs(T_s - T_g)) <= 1e-4


def test_spectral_rejects_zero_profile(unit_ball, eq_grids):
    with pytest.raises(ValueError):
        solvers.solve_spectral(unit_ball, AbsorptionProfile.constant(0.0),
                               BoundarySource.zero(), eq_grids)


# ---------------------------------------------------------------------------
# Fixed-point driver
# ---------------------------------------------------------------------------

MILD_PROFILE = AbsorptionProfile.table([0.01, 5.0, 60.0], [1.25, 1.0, 0.75])


def _picard(step, x0, report, tol, max_iter, cell_volume, t0):
    """Reference: the plain Picard loop, with the driver's signature."""
    x = x0
    converged = False
    for _ in range(max_iter):
        x_new = step(x)
        change = float(np.sum(np.abs(x_new - x))) * cell_volume
        scale = float(np.sum(np.abs(x_new))) * cell_volume
        x = x_new
        transport._push_residual(report, change, scale + 1e-300)
        if change <= tol * max(scale, 1e-300):
            converged = True
            break
    transport._finish(report, converged, t0)
    return x


def _thick_grids(unit_ball, h=0.2):
    return Grids(build_spatial(unit_ball, h), build_angular(4, 8), build_spectral(1.0, 32))


def test_fixed_point_matches_picard_reference(unit_ball, beam_source, monkeypatch):
    def solve_both():
        _, T_g, rep_g = solvers.solve_spectral(unit_ball, grey(20.0), beam_source,
                                               _thick_grids(unit_ball), tol=1e-11, max_iter=5000)
        _, T_s, rep_s = solvers.solve_spectral(unit_ball, MILD_PROFILE, beam_source,
                                               _thick_grids(unit_ball, 0.25), tol=1e-11)
        return T_g, T_s, rep_g, rep_s

    T_g, T_s, rep_g, rep_s = solve_both()
    monkeypatch.setattr(solvers, "_fixed_point", _picard)
    T_g_ref, T_s_ref, rep_g_ref, rep_s_ref = solve_both()
    assert rep_g.status == rep_s.status == rep_g_ref.status == rep_s_ref.status == "converged"
    assert np.max(np.abs(T_g - T_g_ref) / T_g_ref) <= 1e-8
    assert np.max(np.abs(T_s - T_s_ref) / T_s_ref) <= 1e-8
    assert rep_g.operator_applies < rep_g_ref.operator_applies
    assert rep_s.operator_applies < rep_s_ref.operator_applies


def test_fixed_point_safeguard_thick_grey(unit_ball):
    # At alpha R = 50 plain Picard stops at its cap far from the fixed point;
    # the mixed iteration converges within the default cap, and it needs the
    # safeguard: some mixed iterates raise the residual and are rejected.
    w, T, report = solvers.solve_spectral(unit_ball, grey(50.0), BoundarySource.equilibrium(1.0),
                                          _thick_grids(unit_ball))
    assert report.status == "converged"
    assert report.operator_applies <= 500
    assert report.rejected_steps > 0
    assert report.operator_applies == report.iterations + report.rejected_steps
    hist = report.residual_history
    assert all(b <= a_ * 1.0001 + 1e-12 for a_, b in zip(hist, hist[1:]))
    assert np.min(w) >= 0.0
    assert np.max(np.abs(T - 1.0)) <= 1e-4


def test_fixed_point_cap_counts_rejected_applies(unit_ball):
    grids = _thick_grids(unit_ball)
    g = BoundarySource.equilibrium(1.0)
    _, _, full = solvers.solve_spectral(unit_ball, grey(50.0), g, grids)
    assert full.rejected_steps > 0
    for cap in range(1, full.operator_applies):
        _, _, report = solvers.solve_spectral(unit_ball, grey(50.0), g, grids, max_iter=cap)
        assert report.status == "max_iter"
        assert report.operator_applies == cap


def _stacked_fixed_point(step, x0, report, tol, max_iter, cell_volume, t0):
    """Reference: the driver as it was, with its accepted (g, f) pairs kept in
    lists and restacked and differenced on every mixed step."""
    g, f = x0, None
    G, F = [], []
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
        transport._push_residual(report, change, scale + 1e-300)
        g, f = g_new, f_new
        if change <= tol * max(scale, 1e-300):
            converged = True
            break
        G.append(g)
        F.append(f)
        del G[:-transport.ANDERSON_DEPTH - 1], F[:-transport.ANDERSON_DEPTH - 1]
    transport._finish(report, converged, t0)
    report.conservation_norm = float(report.residual_history[-1]) if report.residual_history else 0.0
    return g


def test_fixed_point_buffers_match_stacked_history(unit_ball, beam_source, monkeypatch):
    # The in-place difference buffers hand lstsq and the mixing product the
    # same values in the same order as the restacked history did.
    def solve_all():
        grids = Grids(build_spatial(unit_ball, 0.2), build_angular(4, 8), build_spectral(1.0, 16))
        joint = MediumSpec(MILD_PROFILE, AbsorptionProfile.constant(0.5))
        w20, _, rep20 = solvers.solve_spectral(unit_ball, grey(20.0), beam_source,
                                               _thick_grids(unit_ball))
        w, _, rep_s = solvers.solve_spectral(unit_ball, MILD_PROFILE, beam_source,
                                             _thick_grids(unit_ball, 0.25))
        _, _, _, rep_j, J0 = solvers.solve_combined(unit_ball, joint, beam_source, grids)
        w50, _, rep50 = solvers.solve_spectral(unit_ball, grey(50.0),
                                               BoundarySource.equilibrium(1.0),
                                               _thick_grids(unit_ball))
        return [(w20, rep20), (w, rep_s), (J0, rep_j), (w50, rep50)]

    new = solve_all()
    monkeypatch.setattr(solvers, "_fixed_point", _stacked_fixed_point)
    monkeypatch.setattr(transport, "_fixed_point", _stacked_fixed_point)
    old = solve_all()
    assert new[2][1].extra["route"] == "joint" and new[3][1].rejected_steps > 0
    for (x, report), (x_ref, report_ref) in zip(new, old):
        assert np.array_equal(x, x_ref)
        assert report.residual_history == report_ref.residual_history
        assert report.rejected_steps == report_ref.rejected_steps


def test_fixed_point_memory_peak():
    # A contraction on 10^6 unknowns: the driver's traced peak stays within
    # 20 iterate-sized arrays (the restacked history peaked at 30).
    n = 10**6
    rng = np.random.default_rng(3)
    d, b = rng.uniform(0.5, 0.95, n), rng.uniform(0.0, 1.0, n)
    report = solvers.SolverReport()
    tracemalloc.start()
    try:
        solvers._fixed_point(lambda x: d * x + b, np.zeros(n), report, 1e-10, 12, 1.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.iterations > transport.ANDERSON_DEPTH + 2
    assert peak <= 20 * 8 * n, peak / (8 * n)


# ---------------------------------------------------------------------------
# Combined regime
# ---------------------------------------------------------------------------


def test_combined_refuses_pure_scattering(unit_ball, eq_grids):
    med = MediumSpec(AbsorptionProfile.constant(0.0), AbsorptionProfile.constant(1.0))
    with pytest.raises(ValueError, match="solve_scattering"):
        solvers.solve_combined(unit_ball, med, BoundarySource.zero(), eq_grids)


def test_combined_equilibrium(unit_ball, eq_grids):
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.5))
    g = BoundarySource.equilibrium(1.0)
    w, T, I, report, J0 = solvers.solve_combined(unit_ball, med, g, eq_grids, tol=1e-9)
    assert np.max(np.abs(T - 1.0)) <= 1e-6
    assert I is None  # an isotropic kernel's radiance is evaluated on demand
    # the radiance of every direction is the blackbody field
    sol = solvers.Solution("combined", unit_ball, eq_grids, med, g, report, w=w, T=T, J0=J0)
    B = spectral.planck(eq_grids.spectral.nodes, 1.0)
    for i in range(eq_grids.angular.n_nodes):
        assert np.max(np.abs(sol.interior_radiance(i) - B) / B) <= 1e-6
    assert report.extra["certificate_bound"] < 1.0


def test_combined_zero_boundary(unit_ball, eq_grids):
    med = MediumSpec(AbsorptionProfile.constant(0.3), AbsorptionProfile.constant(0.4))
    w, T, I, report, _ = solvers.solve_combined(unit_ball, med, BoundarySource.zero(),
                                                eq_grids, tol=1e-10)
    assert np.max(np.abs(w)) == 0.0


def test_combined_reduces_to_spectral(unit_ball, eq_grids, beam_source):
    prof = AbsorptionProfile.table([0.01, 1.0, 5.0, 20.0, 60.0], [1.2, 1.0, 0.5, 0.1, 0.02])
    med = MediumSpec(prof, AbsorptionProfile.constant(0.0))
    w_c, T_c, _, _, _ = solvers.solve_combined(unit_ball, med, beam_source, eq_grids,
                                               tol=1e-10)
    w_s, T_s, _ = solvers.solve_spectral(unit_ball, prof, beam_source, eq_grids, tol=1e-10)
    assert np.max(np.abs(T_c - T_s)) <= 1e-4


def _nested_combined(domain, medium, g, grids, tol, max_iter=500):
    """Reference: the former nested isotropic combined solve.  The driver's
    outer step on w runs scattered_mean_intensity per frequency to a
    tolerance tied to the outer change, warm-started from the last J0."""
    grid, sgrid = grids.spatial, grids.spectral
    alphas_a, alphas_s = medium.absorption(sgrid.nodes), medium.scattering(sgrid.nodes)
    b4pi = transport.FOUR_PI * transport.boundary_attenuation_nodes(
        domain, grid, g, alphas_a + alphas_s, grids.angular, sgrid)
    qa = sgrid.weights * alphas_a
    T, J0, inner_tol = np.zeros(grid.n_nodes), np.zeros((grid.n_nodes, sgrid.n_nodes)), 1e-2

    def step(w):
        nonlocal T, J0, inner_tol
        T = spectral.invert_emission_many(medium.absorption, w, sgrid, t_guess=T)
        B = spectral.planck(sgrid.nodes, T[:, None])
        J0, _ = transport.scattered_mean_intensity(grid, alphas_a, alphas_s, B, b4pi,
                                                   tol=inner_tol, init=J0)
        w_new = qa @ J0.T / transport.FOUR_PI
        rel = float(np.sum(np.abs(w_new - w))) / max(float(np.sum(np.abs(w_new))), 1e-300)
        inner_tol = max(min(0.05 * rel, 1e-2), 0.02 * tol)
        return w_new

    report = solvers.SolverReport(tolerance=tol)
    w = solvers._fixed_point(step, np.zeros(grid.n_nodes), report, tol, max_iter,
                             grid.cell_volume, time.perf_counter())
    assert report.status == "converged"
    return spectral.invert_emission_many(medium.absorption, w, sgrid, t_guess=T)


@pytest.mark.parametrize("boundary", ["equilibrium", "constant", "beam"])
@pytest.mark.parametrize("absorption, route", [(AbsorptionProfile.constant(1.0), "grey"),
                                               (MILD_PROFILE, "joint")],
                         ids=["constant", "mild"])
def test_combined_routes_match_nested_reference(unit_ball, beam_source, absorption, route,
                                                boundary):
    grids = Grids(build_spatial(unit_ball, 0.2), build_angular(4, 8), build_spectral(1.0, 16))
    g = {"equilibrium": BoundarySource.equilibrium(1.0), "constant": BoundarySource.constant(0.3),
         "beam": beam_source}[boundary]
    med = MediumSpec(absorption, AbsorptionProfile.constant(0.5))
    _, T, _, report, _ = solvers.solve_combined(unit_ball, med, g, grids, tol=1e-10)
    assert report.status == "converged"
    assert report.extra["route"] == route
    T_ref = _nested_combined(unit_ball, med, g, grids, tol=1e-10)
    assert np.max(np.abs(T - T_ref) / T_ref) <= 1e-9


PHASE_TABLES = {"flat": (np.array([-1.0, 1.0]), np.array([1.0, 1.0])),
                "fwd": (np.array([-1.0, 0.0, 1.0]), np.array([0.1, 0.5, 4.0]))}
HIGH_ALBEDO = [(0.05, 5.0), (0.2, 10.0), (0.1, 6.0)]


@pytest.mark.parametrize("absorption, scattering, table", [
    *(pytest.param(a, s, "isotropic", id=f"{a}-{s}")
      for a, s in HIGH_ALBEDO + [(0.15, 8.0), ("mild", 5.0)]),
    *(pytest.param(a, s, t, id=f"{t}-{a}-{s}") for t in PHASE_TABLES for a, s in HIGH_ALBEDO),
])
def test_combined_high_albedo_converges(unit_ball, absorption, scattering, table):
    # Each of these aborted with MonotonicityError: the nested solves'
    # inexact inner steps raised the outer residual, on the constant
    # isotropic media and on every tabulated one.  Every route now converges
    # with a monotone history, and the node-table residual stays small: for
    # an isotropic kernel the J0 solve warm-started from J0, for a table one
    # more sweep of the stored radiance.
    tol = 1e-8
    grids = (Grids(build_spatial(unit_ball, 0.2), build_angular(4, 8), build_spectral(1.0, 16))
             if table == "isotropic" else
             Grids(build_spatial(unit_ball, 0.25), build_angular(2, 4), build_spectral(1.0, 8)))
    prof = (AbsorptionProfile.table(MILD_PROFILE.table_nu, 0.05 * MILD_PROFILE.table_alpha)
            if absorption == "mild" else AbsorptionProfile.constant(absorption))
    med = MediumSpec(prof, AbsorptionProfile.constant(scattering),
                     kernel=PHASE_TABLES.get(table, table))
    g = BoundarySource.constant(1.0)
    w, T, I, report, J0 = solvers.solve_combined(unit_ball, med, g, grids, tol=tol)
    assert report.status == "converged"
    hist = report.residual_history
    assert all(b <= a * 1.0001 + 1e-14 for a, b in zip(hist, hist[1:]))
    if table == "isotropic":
        _, rel = transport.conservation_residual(T, g, med, unit_ball, grids.spatial,
                                                 grids.angular, grids.spectral, J0_guess=J0)
    else:
        sol = solvers.Solution("combined", unit_ball, grids, med, g, report, w=w, T=T,
                               radiation=I, J0=J0)
        rel = cli._node_residual(sol) / (transport.FOUR_PI * np.max(w))
    assert np.max(np.abs(rel)) <= 1e2 * tol


def test_combined_tabulated_isotropic_kernel_matches_fast_path(unit_ball):
    # A flat phase table is the isotropic kernel; the angular-sweep fallback
    # must agree at equilibrium, to solver precision, with the kernel route,
    # whose constant coefficients take the grey map at alpha_a + alpha_s.
    grids = Grids(build_spatial(unit_ball, 0.25), build_angular(4, 8),
                  build_spectral(1.0, 8), ray_h=0.04)
    g = BoundarySource.equilibrium(1.0)
    med_iso = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.5))
    med_tab = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.5),
                         kernel=(np.array([-1.0, 1.0]), np.array([1.0, 1.0])))
    w_i, T_i, _, _, _ = solvers.solve_combined(unit_ball, med_iso, g, grids, tol=1e-10)
    w_t, T_t, _, _, _ = solvers.solve_combined(unit_ball, med_tab, g, grids, tol=1e-10)
    assert np.max(np.abs(T_i - 1.0)) <= 1e-6
    assert np.max(np.abs(T_t - 1.0)) <= 1e-6


def test_tabulated_kernel_solution_radiance_matches_stored(unit_ball, beam_source):
    # Regression: the diagnostics of a tabulated-kernel combined run used the
    # isotropic source alpha_a B + (alpha_s/4pi) J0 whatever the kernel, so
    # the radiance they re-evaluated missed the stored one by 4.8e-2 (max
    # 1.30) and the entropy report's conservation term read 6.7e-2.
    grids = Grids(build_spatial(unit_ball, 0.25), build_angular(4, 8),
                  build_spectral(1.0, 8), ray_h=0.1)
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.5),
                     kernel=(np.array([-1.0, 0.0, 1.0]), np.array([0.1, 0.5, 4.0])))
    w, T, I, report, J0 = solvers.solve_combined(unit_ball, med, beam_source, grids, tol=1e-9)
    sol = solvers.Solution("combined", unit_ball, grids, med, beam_source, report,
                           w=w, T=T, radiation=I, J0=J0)
    for i in range(grids.angular.n_nodes):
        assert np.max(np.abs(sol.interior_radiance(i) - I[:, i])) <= 1e-8
    assert abs(entropy.solution_entropy_report(sol).conservation_entropy_term) <= 1e-6


def test_scattering_boundary_radiance_matches_reference(unit_ball, beam_source):
    # The in-scattered source of a scattering-mode Solution comes from
    # AngularSweep.source; compare with the per-direction formula it replaced.
    grids = Grids(build_spatial(unit_ball, 0.25), build_angular(4, 8),
                  build_spectral(1.0, 8), ray_h=0.1)
    med = MediumSpec(AbsorptionProfile.constant(0.0), AbsorptionProfile.constant(1.0),
                     kernel=(np.array([-1.0, 0.0, 1.0]), np.array([0.1, 0.5, 4.0])))
    I, report = solvers.solve_scattering(unit_ball, med, beam_source, grids, tol=1e-9)
    sol = solvers.Solution("scattering", unit_ball, grids, med, beam_source, report,
                           radiation=I)
    angular, nus = grids.angular, grids.spectral.nodes
    pts, _, normals = geometry.surface_quadrature(unit_ball, angular.nodes, angular.weights)
    got = np.stack([sol.boundary_radiance(i, pts, normals) for i in range(angular.n_nodes)],
                   axis=1)

    K, _ = med.kernel_matrix(angular)
    Kw = K * angular.weights[None, :]
    beta = med.scattering(nus)
    gvals = beam_source.evaluate(angular.nodes, nus)
    sweeper = transport.RaySweeper(unit_ball, grids.spatial, angular, grids.ray_h)
    want = np.empty(got.shape)
    for i in range(angular.n_nodes):
        outgoing = normals @ angular.nodes[i] > 0.0
        want[~outgoing, i, :] = gvals[i]
        box = grids.spatial.embed(np.einsum("k,mkj->mj", Kw[i], I) * beta)
        want[outgoing, i, :] = sweeper.chord_radiance(i, pts[outgoing], box, beta, gvals[i])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# Duhamel-series certificate
# ---------------------------------------------------------------------------


def test_compute_H_absorption_only(unit_ball):
    grids = Grids(build_spatial(unit_ball, 0.25), build_angular(6, 12),
                  single_frequency_grid(1.0), ray_h=0.05)
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.0))
    cert = solvers.compute_H(unit_ball, med, grids, eps_trunc=1e-10)
    assert cert.terms_used == 1
    center = transport._node_index(grids.spatial, [0.0, 0.0, 0.0])
    assert cert.angular_integral[center, 0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-6)


def test_compute_H_bound_and_depth(unit_ball):
    grids = Grids(build_spatial(unit_ball, 0.25), build_angular(4, 8),
                  single_frequency_grid(1.0), ray_h=0.05)
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(1.0))
    cert = solvers.compute_H(unit_ball, med, grids, eps_trunc=1e-10)
    bound = (1.0 - np.exp(-4.0)) / (1.0 + np.exp(-4.0))
    assert cert.theta_bound[0] == pytest.approx(bound, rel=1e-12)
    assert np.max(cert.angular_integral) <= bound + 1e-3
    # geometric-series depth: ceil(log eps / log(0.5 (1 - e^-4))) = 33
    assert cert.terms_used <= 33
    # the a-priori bound of the first dropped term honors the truncation
    ratio = 0.5 * (1.0 - np.exp(-4.0))
    next_bound = 0.5 * ratio ** cert.terms_used * (1.0 - np.exp(-4.0))
    assert next_bound <= 1e-10 * 2  # within a factor of the formula's prefactor


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def test_oracle_too_large(unit_ball, eq_grids):
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.0))
    with pytest.raises(solvers.TooLarge):
        solvers.oracle_solve(unit_ball, med, BoundarySource.zero(), eq_grids)


def test_oracle_scattering_constant(unit_ball):
    grids = Grids(build_spatial(unit_ball, 2.0 / 7.0), build_angular(2, 13),
                  single_frequency_grid(1.0))
    med = MediumSpec(AbsorptionProfile.constant(0.0), AbsorptionProfile.constant(1.0))
    res = solvers.oracle_solve(unit_ball, med, BoundarySource.constant(3.0), grids)
    assert np.max(np.abs(res.radiation - 3.0)) <= 1e-8
    assert res.T is None


def test_oracle_equilibrium(unit_ball):
    grids = Grids(build_spatial(unit_ball, 2.0 / 7.0), build_angular(2, 13),
                  build_spectral(1.0, 8))
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.0))
    res = solvers.oracle_solve(unit_ball, med, BoundarySource.equilibrium(1.0), grids)
    assert np.max(np.abs(res.T - 1.0)) <= 1e-3


def test_oracle_grey_agreement(unit_ball):
    grids = Grids(build_spatial(unit_ball, 2.0 / 7.0), build_angular(2, 13),
                  build_spectral(1.0, 8))
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.0))
    g = BoundarySource.constant(0.3)
    w, T, _ = solvers.solve_spectral(unit_ball, grey(1.0), g, grids, tol=1e-10)
    res = solvers.oracle_solve(unit_ball, med, g, grids)
    assert np.max(np.abs(T - res.T)) <= 5e-3


def test_oracle_tabulated_kernel_agreement(unit_ball):
    # A tabulated kernel sends solve_combined through the angular route, where
    # Anderson mixing iterates the radiance one sweep a step; the oracle
    # iterates the same map by plain Picard.  The second medium has albedo
    # about 0.9 and a forward-peaked table.
    grids = Grids(build_spatial(unit_ball, 2.0 / 7.0), build_angular(2, 13),
                  build_spectral(1.0, 8))
    g = BoundarySource.constant(0.3)
    for absorption, scattering, table in [
            (MILD_PROFILE, 0.5, (np.array([-1.0, 0.0, 1.0]), np.array([0.5, 1.0, 2.0]))),
            (AbsorptionProfile.table(MILD_PROFILE.table_nu, 0.2 * MILD_PROFILE.table_alpha),
             2.0, PHASE_TABLES["fwd"])]:
        med = MediumSpec(absorption, AbsorptionProfile.constant(scattering), kernel=table)
        _, T, _, report, _ = solvers.solve_combined(unit_ball, med, g, grids, tol=1e-10)
        assert report.extra["route"] == "angular"
        res = solvers.oracle_solve(unit_ball, med, g, grids, tol=1e-10)
        assert np.max(np.abs(T - res.T)) <= 1e-8
