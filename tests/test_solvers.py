import numpy as np
import pytest

from radbody import geometry, solvers, spectral, transport
from radbody.quadrature import (
    build_angular,
    build_spatial,
    build_spectral,
    single_frequency_grid,
)
from radbody.solvers import Grids
from radbody.spectral import AbsorptionProfile
from radbody.transport import BoundarySource, MediumSpec

SIGMA = spectral.stefan_sigma()


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
    assert np.max(np.abs(I.values - 3.0)) <= 1e-6
    I.validate()


def test_scattering_zero_source(unit_ball, scatter_grids):
    med = MediumSpec(AbsorptionProfile.constant(0.0), AbsorptionProfile.constant(1.0))
    I, report = solvers.solve_scattering(unit_ball, med, BoundarySource.zero(),
                                         scatter_grids, tol=1e-10, max_iter=50)
    assert np.max(np.abs(I.values)) == 0.0


def test_scattering_contraction_and_monotonicity(unit_ball, scatter_grids, beam_source):
    med = MediumSpec(AbsorptionProfile.constant(0.0), AbsorptionProfile.constant(1.0))
    I, report = solvers.solve_scattering(unit_ball, med, beam_source, scatter_grids,
                                         tol=1e-7, max_iter=300)
    assert report.status == "converged"
    ratios = report.contraction_estimates
    # optical diameter is 2, so the paper's factor is 1 - e^{-2}
    assert max(ratios[2:]) <= 1.0 - np.exp(-2.0) + 0.05
    hist = report.residual_history
    assert all(b <= a * 1.0001 + 1e-14 for a, b in zip(hist, hist[1:]))


def test_scattering_requires_pure_scattering(unit_ball, scatter_grids):
    med = MediumSpec(AbsorptionProfile.constant(0.5), AbsorptionProfile.constant(1.0))
    with pytest.raises(ValueError):
        solvers.solve_scattering(unit_ball, med, BoundarySource.zero(), scatter_grids)


# ---------------------------------------------------------------------------
# Grey absorption
# ---------------------------------------------------------------------------


def test_grey_zero_source(unit_ball, eq_grids):
    a, T, report = solvers.solve_grey(unit_ball, 1.0, BoundarySource.zero(), eq_grids)
    assert np.max(T.values) == 0.0
    assert report.status == "converged"


def test_grey_equilibrium(unit_ball, eq_grids):
    g = BoundarySource.equilibrium(1.0)
    a, T, report = solvers.solve_grey(unit_ball, 1.0, g, eq_grids, tol=1e-10)
    assert np.max(np.abs(T.values - 1.0)) <= 1e-2  # discretization budget
    assert np.max(np.abs(T.values - 1.0)) <= 1e-6  # consistent source term is exact
    assert a.role == "sigma_T4"
    hist = report.residual_history
    assert all(b <= a_ * 1.0001 + 1e-12 for a_, b in zip(hist, hist[1:]))


def test_grey_positivity(unit_ball, eq_grids, beam_source):
    a, T, _ = solvers.solve_grey(unit_ball, 1.0, beam_source, eq_grids, tol=1e-10)
    assert np.min(a.values) > 0.0


def test_grey_linearity(unit_ball, eq_grids, beam_source):
    a1, _, _ = solvers.solve_grey(unit_ball, 1.0, beam_source, eq_grids, tol=1e-12)
    for c in (0.5, 2.0, 10.0):
        ac, _, _ = solvers.solve_grey(unit_ball, 1.0, beam_source.scaled(c),
                                      eq_grids, tol=1e-12)
        dev = np.max(np.abs(ac.values - c * a1.values)) / np.max(np.abs(c * a1.values))
        assert dev <= 1e-10


def test_grey_rescaled_alpha(unit_ball, eq_grids):
    # A non-unit coefficient runs on internally rescaled coordinates; the
    # equilibrium fixed point is preserved.
    g = BoundarySource.equilibrium(1.0)
    a, T, _ = solvers.solve_grey(unit_ball, 2.5, g, eq_grids, tol=1e-10)
    assert np.max(np.abs(T.values - 1.0)) <= 1e-6


def test_grey_conservation_residual_after_convergence(unit_ball, eq_grids, beam_source):
    tol = 1e-8
    a, T, report = solvers.solve_grey(unit_ball, 1.0, beam_source, eq_grids, tol=tol)
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.0))
    res, rel = transport.conservation_residual(
        T, beam_source, med, unit_ball, eq_grids.spatial, eq_grids.angular,
        eq_grids.spectral, representation="kernel")
    w = spectral.emission_integral(med.absorption, T.values, eq_grids.spectral)
    assert np.max(np.abs(res.values)) <= 10.0 * tol * 4 * np.pi * np.max(w)


# ---------------------------------------------------------------------------
# Frequency-dependent absorption
# ---------------------------------------------------------------------------


def test_spectral_zero_source(unit_ball, eq_grids):
    prof = AbsorptionProfile.table([0.1, 10.0, 50.0], [1.0, 0.5, 0.1])
    w, T, report = solvers.solve_spectral(unit_ball, prof, BoundarySource.zero(), eq_grids)
    assert np.max(np.abs(w.values)) == 0.0


def test_spectral_equilibrium(unit_ball, eq_grids):
    prof = AbsorptionProfile.table([0.01, 1.0, 5.0, 20.0, 60.0], [1.2, 1.0, 0.5, 0.1, 0.02])
    g = BoundarySource.equilibrium(1.0)
    w, T, report = solvers.solve_spectral(unit_ball, prof, g, eq_grids, tol=1e-9)
    assert np.max(np.abs(T.values - 1.0)) <= 1e-6
    assert w.role == "f_of_T"
    # iterates stayed inside the a-priori box [0, L]
    assert np.max(w.values) <= report.extra["iterate_cap"]
    assert report.extra["kernel_row_mass_max"] < 1.0


def test_spectral_reduces_to_grey(unit_ball, eq_grids, beam_source):
    prof = AbsorptionProfile.constant(1.0)
    w, T_s, _ = solvers.solve_spectral(unit_ball, prof, beam_source, eq_grids, tol=1e-10)
    a, T_g, _ = solvers.solve_grey(unit_ball, 1.0, beam_source, eq_grids, tol=1e-10)
    assert np.max(np.abs(T_s.values - T_g.values)) <= 1e-4


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
        solvers._push_residual(report, change, scale + 1e-300)
        if change <= tol * max(scale, 1e-300):
            converged = True
            break
    solvers._finish(report, converged, t0)
    return x


def _thick_grids(unit_ball, h=0.2):
    return Grids(build_spatial(unit_ball, h), build_angular(4, 8), build_spectral(1.0, 32))


def test_fixed_point_matches_picard_reference(unit_ball, beam_source, monkeypatch):
    def solve_both():
        _, T_g, rep_g = solvers.solve_grey(unit_ball, 20.0, beam_source,
                                           _thick_grids(unit_ball), tol=1e-11, max_iter=5000)
        _, T_s, rep_s = solvers.solve_spectral(unit_ball, MILD_PROFILE, beam_source,
                                               _thick_grids(unit_ball, 0.25), tol=1e-11)
        return T_g.values, T_s.values, rep_g, rep_s

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
    a, T, report = solvers.solve_grey(unit_ball, 50.0, BoundarySource.equilibrium(1.0),
                                      _thick_grids(unit_ball))
    assert report.status == "converged"
    assert report.operator_applies <= 500
    assert report.rejected_steps > 0
    assert report.operator_applies == report.iterations + report.rejected_steps
    hist = report.residual_history
    assert all(b <= a_ * 1.0001 + 1e-12 for a_, b in zip(hist, hist[1:]))
    assert np.min(a.values) >= 0.0
    assert np.max(np.abs(T.values - 1.0)) <= 1e-4


def test_fixed_point_cap_counts_rejected_applies(unit_ball):
    grids = _thick_grids(unit_ball)
    g = BoundarySource.equilibrium(1.0)
    _, _, full = solvers.solve_grey(unit_ball, 50.0, g, grids)
    assert full.rejected_steps > 0
    for cap in range(1, full.operator_applies):
        _, _, report = solvers.solve_grey(unit_ball, 50.0, g, grids, max_iter=cap)
        assert report.status == "max_iter"
        assert report.operator_applies == cap


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
    w, T, I, report, _ = solvers.solve_combined(unit_ball, med, g, eq_grids, tol=1e-9)
    assert np.max(np.abs(T.values - 1.0)) <= 1e-6
    # the reconstructed radiance is the blackbody field
    B = spectral.planck(eq_grids.spectral.nodes, 1.0)
    assert np.max(np.abs(I.values - B) / B) <= 1e-6
    assert report.extra["certificate_bound"] < 1.0


def test_combined_zero_boundary(unit_ball, eq_grids):
    med = MediumSpec(AbsorptionProfile.constant(0.3), AbsorptionProfile.constant(0.4))
    w, T, I, report, _ = solvers.solve_combined(unit_ball, med, BoundarySource.zero(),
                                                eq_grids, tol=1e-10)
    assert np.max(np.abs(w.values)) == 0.0


def test_combined_reduces_to_spectral(unit_ball, eq_grids, beam_source):
    prof = AbsorptionProfile.table([0.01, 1.0, 5.0, 20.0, 60.0], [1.2, 1.0, 0.5, 0.1, 0.02])
    med = MediumSpec(prof, AbsorptionProfile.constant(0.0))
    w_c, T_c, _, _, _ = solvers.solve_combined(unit_ball, med, beam_source, eq_grids,
                                               tol=1e-10, return_radiation=False)
    w_s, T_s, _ = solvers.solve_spectral(unit_ball, prof, beam_source, eq_grids, tol=1e-10)
    assert np.max(np.abs(T_c.values - T_s.values)) <= 1e-4


def test_combined_tabulated_isotropic_kernel_matches_fast_path(unit_ball):
    # A flat phase table is the isotropic kernel; the angular-sweep fallback
    # must agree at equilibrium, to solver precision, with the kernel route,
    # whose constant coefficients make the inner solve one channel.
    grids = Grids(build_spatial(unit_ball, 0.25), build_angular(4, 8),
                  build_spectral(1.0, 8), ray_h=0.04)
    g = BoundarySource.equilibrium(1.0)
    med_iso = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.5))
    med_tab = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.5),
                         kernel=(np.array([-1.0, 1.0]), np.array([1.0, 1.0])))
    w_i, T_i, _, _, _ = solvers.solve_combined(unit_ball, med_iso, g, grids, tol=1e-10,
                                               return_radiation=False)
    w_t, T_t, _, _, _ = solvers.solve_combined(unit_ball, med_tab, g, grids, tol=1e-10,
                                               return_radiation=False)
    assert np.max(np.abs(T_i.values - 1.0)) <= 1e-6
    assert np.max(np.abs(T_t.values - 1.0)) <= 1e-6


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
    assert np.max(np.abs(res.radiation.values - 3.0)) <= 1e-8
    assert res.T is None


def test_oracle_equilibrium(unit_ball):
    grids = Grids(build_spatial(unit_ball, 2.0 / 7.0), build_angular(2, 13),
                  build_spectral(1.0, 8))
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.0))
    res = solvers.oracle_solve(unit_ball, med, BoundarySource.equilibrium(1.0), grids)
    assert np.max(np.abs(res.T.values - 1.0)) <= 1e-3


def test_oracle_grey_agreement(unit_ball):
    grids = Grids(build_spatial(unit_ball, 2.0 / 7.0), build_angular(2, 13),
                  build_spectral(1.0, 8))
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.0))
    g = BoundarySource.constant(0.3)
    a, T, _ = solvers.solve_grey(unit_ball, 1.0, g, grids, tol=1e-10)
    res = solvers.oracle_solve(unit_ball, med, g, grids)
    # consistent temperature map: derive both from the emission field
    T_oracle = (res.w.values / SIGMA) ** 0.25
    assert np.max(np.abs(T.values - T_oracle)) <= 5e-3


def test_oracle_tabulated_kernel_agreement(unit_ball):
    # A tabulated kernel sends solve_combined through the angular sweep with
    # Anderson outer steps; the oracle sweeps the same rays by plain Picard.
    grids = Grids(build_spatial(unit_ball, 2.0 / 7.0), build_angular(2, 13),
                  build_spectral(1.0, 8))
    med = MediumSpec(MILD_PROFILE, AbsorptionProfile.constant(0.5),
                     kernel=(np.array([-1.0, 0.0, 1.0]), np.array([0.5, 1.0, 2.0])))
    g = BoundarySource.constant(0.3)
    _, T, _, _, _ = solvers.solve_combined(unit_ball, med, g, grids, tol=1e-10)
    res = solvers.oracle_solve(unit_ball, med, g, grids, tol=1e-10)
    assert np.max(np.abs(T.values - res.T.values)) <= 1e-8
