import tracemalloc

import numpy as np
import pytest

from radbody import entropy, geometry, solvers, spectral, transport
from entropy_probe import max_entropy_probe
from radbody.entropy import (
    boundary_flows,
    entropy_density,
    production_density,
    solution_entropy_report,
)
from radbody.quadrature import build_angular, build_spatial, build_spectral
from radbody.solvers import Grids, Solution
from radbody.spectral import AbsorptionProfile
from radbody.transport import FOUR_PI, BoundarySource, MediumSpec

SIGMA = spectral.stefan_sigma()


@pytest.fixture(scope="module")
def entropy_grids(unit_ball):
    return Grids(
        spatial=build_spatial(unit_ball, 0.125),
        angular=build_angular(6, 12),
        spectral=build_spectral(1.0, 32),
        ray_h=0.0625,
    )


@pytest.fixture(scope="module")
def two_sided_beam():
    return BoundarySource.tabulated(
        spectrum=([0.5, 1.0, 3.0, 10.0], [0.5, 1.0, 0.7, 0.05]),
        axis=[0.0, 0.0, 1.0],
        angular_profile=([-1.0, -0.2, 0.2, 1.0], [1.6, 0.2, 0.2, 1.6]),
    )


def test_entropy_density_examples():
    assert entropy_density(1.0, 0.0) == 0.0
    rng = np.random.default_rng(31)
    nu = rng.uniform(0.1, 8.0, 1000)
    I = rng.uniform(1e-9, 20.0, 1000)
    assert np.all(entropy_density(nu, I) > 0.0)
    with pytest.raises(spectral.NegativeIntensity):
        entropy_density(1.0, -0.5)


def test_entropy_density_concave_in_intensity():
    rng = np.random.default_rng(32)
    nu = rng.uniform(0.2, 5.0, 2000)
    I1 = rng.uniform(1e-6, 10.0, 2000)
    I2 = I1 * rng.uniform(1.1, 5.0, 2000)
    mid = entropy_density(nu, 0.5 * (I1 + I2))
    avg = 0.5 * (entropy_density(nu, I1) + entropy_density(nu, I2))
    assert np.all(mid >= avg)
    assert np.min(mid - avg) > 0.0  # strict for distinct arguments


def test_production_density_examples():
    # radiance at the local blackbody value produces nothing
    assert production_density(1.0, 1.0, spectral.planck(1.0, 1.0), 1.0) == 0.0
    # frozen evaluation: T_nu = 2, T = 1, nu = 1, kappa = 1
    val = production_density(1.0, 1.0, spectral.planck(1.0, 2.0), 1.0)
    assert val == pytest.approx(0.9595173756674719, rel=1e-13)
    # zero state
    assert production_density(1.0, 0.0, 0.0, 1.0) == 0.0
    # emission into perfect vacuum diverges
    assert production_density(1.0, 1.0, 0.0, 1.0) == np.inf


def test_production_density_nonnegative_random():
    rng = np.random.default_rng(2024)
    nu = rng.uniform(0.05, 10.0, 10_000)
    T = rng.uniform(0.05, 5.0, 10_000)
    I = rng.uniform(1e-12, 10.0, 10_000)
    kappa = rng.uniform(0.0, 2.0, 10_000)
    dens = production_density(nu, T, I, kappa)
    assert np.min(dens) >= -1e-15
    # A precomputed blackbody table gives the same values bit for bit.
    assert np.array_equal(production_density(nu, T, I, kappa, B_T=spectral.planck(nu, T)), dens)


def _two_planck_production(nu, T, I, kappa):
    """The production formula that evaluates B(T_nu) with a second Planck
    call, T_nu the brightness temperature nu / log1p(2 nu^3 / I)."""
    nu_b, T_b, I_b, k_b = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (nu, T, I, kappa)))
    out = np.zeros(nu_b.shape)
    with np.errstate(divide="ignore"):
        Tnu = nu_b / np.log1p(2.0 * nu_b**3 / I_b)
    live = (T_b > 0.0) & (Tnu > 0.0)
    BT = spectral.planck(nu_b[live], T_b[live])
    Bnu = spectral.planck(nu_b[live], Tnu[live])
    out[live] = k_b[live] * (1.0 / Tnu[live] - 1.0 / T_b[live]) * (BT - Bnu)
    out[(T_b > 0.0) & (I_b == 0.0) & (k_b > 0.0)] = np.inf
    return out


def test_production_density_matches_two_planck_reference():
    # Criterion 08's random inputs.  Near equilibrium both factors cancel, so
    # values below 1e-12 of the largest are rounding-level remainders.
    rng = np.random.default_rng(424242)
    nu = rng.uniform(0.05, 10.0, 10_000)
    T = rng.uniform(0.05, 5.0, 10_000)
    I = rng.uniform(1e-12, 10.0, 10_000)
    got = production_density(nu, T, I, 1.0)
    ref = _two_planck_production(nu, T, I, 1.0)
    big = np.abs(ref) > 1e-12 * np.max(np.abs(ref))
    np.testing.assert_allclose(got[big], ref[big], rtol=1e-12, atol=0.0)
    # Off the live set: T = 0, I = 0 with and without absorption, broadcast.
    T0 = np.array([[1.0], [0.0]])
    I0 = np.array([[0.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
    kappa = np.array([1.0, 0.0, 1.0])
    nus = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(production_density(nus, T0, I0, kappa),
                               _two_planck_production(nus, T0, I0, kappa), rtol=1e-12, atol=0.0)
    I[17] = -1e-300
    with pytest.raises(spectral.NegativeIntensity):
        production_density(nu, T, I, 1.0)


def _production_expression(nu, T, I, kappa, B_T=None):
    """``production_density``'s formula as one expression with its
    temporaries, off-live entries set through ``np.where``."""
    nu, T, I, kappa = (np.asarray(a, dtype=float) for a in (nu, T, I, kappa))
    BT = spectral.planck(nu, T) if B_T is None else B_T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_Tnu = 1.0 / (nu / np.log1p(2.0 * nu**3 / I))
        out = kappa * (inv_Tnu - 1.0 / T) * (BT - I)
    live = (T > 0.0) & np.isfinite(inv_Tnu)
    vacuum = (T > 0.0) & (I == 0.0) & (kappa > 0.0)
    return np.where(live, out, np.where(vacuum, np.inf, 0.0))


def test_production_density_in_place_matches_expression():
    # The report's layout, (M, 1) temperatures against (M, J) radiance and
    # (J,) frequencies and rates, with T = 0 rows and I = 0 entries: the
    # in-place buffers keep the expression's order, bit for bit.
    rng = np.random.default_rng(31)
    nu = rng.uniform(0.05, 10.0, 24)
    T = rng.uniform(0.05, 5.0, (300, 1))
    T[::37] = 0.0
    I = rng.uniform(1e-12, 10.0, (300, 24))
    I[rng.random(I.shape) < 0.02] = 0.0
    kappa = rng.uniform(0.0, 2.0, 24)
    kappa[3] = 0.0
    B = spectral.planck(nu, T)
    for B_T in (None, B):
        assert np.array_equal(production_density(nu, T, I, kappa, B_T=B_T),
                              _production_expression(nu, T, I, kappa, B_T=B_T))


def test_boundary_flows_zero_and_symmetric(unit_ball):
    ang = build_angular(6, 12)
    sgrid = build_spectral(1.0, 16)
    pts, wts, normals = geometry.surface_quadrature(unit_ball, ang.nodes, ang.weights)
    S, A = pts.shape[0], ang.n_nodes
    flows = boundary_flows(np.zeros((S, A)), np.zeros((S, A)), wts, normals, ang)
    assert all(v == 0.0 for v in flows.values())
    # blackbody radiance in both hemispheres: symmetric flows
    B = spectral.planck(sgrid.nodes, 1.0)
    ent = np.full((S, A), entropy_density(sgrid.nodes, B) @ sgrid.weights)
    flows = boundary_flows(ent, np.full((S, A), B @ sgrid.weights), wts, normals, ang)
    assert flows["phi_out"] == pytest.approx(-flows["phi_in"], rel=1e-13)
    assert flows["i_out"] == pytest.approx(-flows["i_in"], rel=1e-13)


def _grey_solution(domain, grids, g, tol=1e-10):
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.0))
    w, T, report = solvers.solve_spectral(domain, med.absorption, g, grids, tol=tol)
    return Solution("grey", domain, grids, med, g, report, w=w, T=T)


def test_equilibrium_entropy_report(unit_ball, entropy_grids):
    sol = _grey_solution(unit_ball, entropy_grids, BoundarySource.equilibrium(1.0))
    report = solution_entropy_report(sol)
    scale = 4 * np.pi * SIGMA * unit_ball.volume()
    assert report.production_volume_integral <= 1e-8 * scale
    assert report.production_volume_integral >= -1e-9 * scale
    assert report.min_pointwise_production >= -1e-15
    # flows balance and the divergence identity holds tightly at equilibrium
    assert abs(report.phi_out + report.phi_in) <= 1e-6 * report.phi_out
    assert abs(report.balance_defect) <= 1e-6 * report.i_out
    assert abs(report.flow_identity_defect) <= 1e-6 * report.phi_out


def test_nonequilibrium_entropy_report(unit_ball, entropy_grids, two_sided_beam):
    sol = _grey_solution(unit_ball, entropy_grids, two_sided_beam)
    report = solution_entropy_report(sol)
    assert report.production_volume_integral > 0.0
    assert report.min_pointwise_production >= -1e-15
    # net entropy outflow (production theorem)
    assert report.phi_out + report.phi_in >= -1e-6 * abs(report.phi_out)
    # divergence-theorem consistency at the h = 0.125, (6,12) quadrature
    # level; the identity tightens under refinement (see the next test) and
    # the equilibrium case reaches 1e-6.
    assert abs(report.flow_identity_defect) <= 6e-3 * report.phi_out
    assert abs(report.balance_defect) <= 1e-2 * report.i_out


def test_identity_defect_shrinks_with_resolution(unit_ball, two_sided_beam):
    defects = []
    for h, npol, naz in [(0.25, 4, 8), (0.125, 8, 16)]:
        grids = Grids(build_spatial(unit_ball, h), build_angular(npol, naz),
                      build_spectral(1.0, 16), ray_h=h / 2)
        sol = _grey_solution(unit_ball, grids, two_sided_beam)
        rep = solution_entropy_report(sol)
        defects.append(abs(rep.flow_identity_defect) / rep.phi_out)
    assert defects[1] < defects[0]


def _report_reference(solution):
    """The entropy report in two passes: the interior in orbit order, then
    every direction's boundary radiance in turn, each from its own chord
    design.  Returns the report's fields as a dict."""
    grids = solution.grids
    grid, angular, sgrid = grids.spatial, grids.angular, grids.spectral
    sw = solution.angular_sweep
    rays, alphas_a = sw.rays, sw.alphas_a
    production, min_pointwise, residual_term = 0.0, np.inf, 0.0
    if solution.T is not None and np.max(alphas_a) > 0.0:
        T = solution.T
        B = spectral.planck(sgrid.nodes, T[:, None])
        absorbed = np.zeros(grid.n_nodes)
        for i in rays.orbit_order():
            I_i = solution.interior_radiance(i)
            dens = production_density(sgrid.nodes[None, :], T[:, None], I_i,
                                      alphas_a[None, :], B_T=B)
            min_pointwise = min(min_pointwise, float(np.min(dens)))
            production += angular.weights[i] * float(
                np.sum(sgrid.weights * dens) * grid.cell_volume)
            absorbed += angular.weights[i] * (I_i @ (sgrid.weights * alphas_a))
        emission = FOUR_PI * np.sum(sgrid.weights * alphas_a * B, axis=1)
        live = T > 0.0
        residual_term = float(
            np.sum((emission[live] - absorbed[live]) / T[live]) * grid.cell_volume)
    else:
        min_pointwise = 0.0

    pts, wts, normals = geometry.surface_quadrature(solution.domain, angular.nodes,
                                                    angular.weights)
    ent = np.empty((pts.shape[0], angular.n_nodes))
    rad = np.empty(ent.shape)
    for i in range(angular.n_nodes):
        n, g = angular.nodes[i], sw.gvals[i]
        I_b = np.empty((pts.shape[0], g.size))
        outgoing = normals @ n > 0.0
        I_b[~outgoing] = g
        if np.any(outgoing):
            chords = geometry.boundary_chord(solution.domain, pts[outgoing], n)
            design = rays._ray_design(pts[outgoing], chords, n)
            contrib = rays._integrate(design, solution.source_box_for_angle(i), sw.beta)
            I_b[outgoing] = transport._attenuated(g, chords, sw.beta) + contrib
        ent[:, i] = entropy_density(sgrid.nodes, I_b) @ sgrid.weights
        rad[:, i] = I_b @ sgrid.weights
    mu = normals @ angular.nodes.T
    flux_w = wts[:, None] * angular.weights[None, :] * mu
    out = mu > 0.0
    phi_out, phi_in = (float(np.sum(flux_w[m] * ent[m])) for m in (out, ~out))
    i_out, i_in = (float(np.sum(flux_w[m] * rad[m])) for m in (out, ~out))
    return {"production_volume_integral": production,
            "min_pointwise_production": min_pointwise,
            "phi_out": phi_out, "phi_in": phi_in, "i_out": i_out, "i_in": i_in,
            "balance_defect": i_out + i_in,
            "conservation_entropy_term": residual_term,
            "flow_identity_defect": phi_out + phi_in - production - residual_term}


def _coarse_grids(domain, h, n_polar=4, n_azimuth=8, n_freq=16):
    return Grids(build_spatial(domain, h), build_angular(n_polar, n_azimuth),
                 build_spectral(1.0, n_freq), ray_h=h / 2)


OFF_CENTRE = geometry.ConvexDomain.ball([0.13, -0.21, 0.07], 1.0)
ELLIPSOID = geometry.ConvexDomain.ellipsoid([0.0, 0.0, 0.0], [2.0, 1.0, 1.0])


@pytest.mark.parametrize("case", [
    "grey-ball", "grey-off-centre", "grey-off-centre-mirrored", "grey-ellipsoid",
    "spectral-mild", "scattering"])
def test_streaming_report_matches_two_pass_reference(unit_ball, case):
    # One pass in orbit order, with each orbit's node design read through
    # the flips, gives every field of the two-pass report to 1e-13.  The
    # beam is one-sided and off every axis, so that no flip maps the source
    # onto itself and a box read without its flip shows.
    beam = BoundarySource.tabulated(
        spectrum=([0.5, 1.0, 3.0, 10.0], [0.5, 1.0, 0.7, 0.05]),
        axis=[0.3, -0.5, 0.8],
        angular_profile=([-1.0, -0.2, 0.2, 1.0], [0.2, 0.2, 0.6, 1.6]),
    )
    domain, h, angles = {
        "grey-off-centre": (OFF_CENTRE, 0.2, (4, 8)),           # no flip: every direction alone
        "grey-off-centre-mirrored": (OFF_CENTRE, 0.25, (4, 8)),  # y, z flips about a shifted centre
        "grey-ellipsoid": (ELLIPSOID, 0.25, (3, 5)),           # an odd azimuth count: 4 flips
    }.get(case, (unit_ball, 0.25, (4, 8)))
    grids = _coarse_grids(domain, h, *angles)
    rep, mirror, _ = transport._mirror_orbits(grids.spatial, grids.angular)
    flips = {m[0] for m in mirror if m is not None}
    assert flips == {"grey-off-centre": set(),
                     "grey-off-centre-mirrored": {(1,), (2,), (1, 2)},
                     "grey-ellipsoid": {(1,), (2,), (1, 2)}}.get(case, flips)
    if case == "spectral-mild":
        # 16 distinct rates: one R_u per rate in the interior sweep.
        med = MediumSpec(AbsorptionProfile.table([0.01, 5.0, 60.0], [1.25, 1.0, 0.75]),
                         AbsorptionProfile.constant(0.0))
        w, T, report = solvers.solve_spectral(domain, med.absorption, beam, grids, tol=1e-9)
        sol = Solution("spectral", domain, grids, med, beam, report, w=w, T=T)
        assert np.unique(sol.angular_sweep.beta).size == grids.spectral.n_nodes
    elif case == "scattering":
        # Stored radiance and a forward-peaked kernel: the source box
        # differs per direction.
        med = MediumSpec(AbsorptionProfile.constant(0.0), AbsorptionProfile.constant(1.0),
                         kernel=(np.array([-1.0, 0.0, 1.0]), np.array([0.1, 0.5, 4.0])))
        I, report = solvers.solve_scattering(domain, med, beam, grids, tol=1e-8)
        sol = Solution("scattering", domain, grids, med, beam, report, radiation=I)
    else:
        sol = _grey_solution(domain, grids, beam)
    got = solution_entropy_report(sol).as_dict()
    ref = _report_reference(Solution(sol.mode, domain, grids, sol.medium, sol.source,
                                     sol.report, w=sol.w, T=sol.T, radiation=sol.radiation))
    assert set(got) == set(ref)
    # The two defects are differences of flows: they are held to 1e-13 of
    # the flows they balance.
    scale = {"balance_defect": abs(ref["i_out"]), "flow_identity_defect": abs(ref["phi_out"])}
    for key, value in ref.items():
        assert abs(got[key] - value) <= 1e-13 * scale.get(key, abs(value)), (key, got[key], value)


def test_entropy_report_memory_peak(unit_ball, two_sided_beam):
    # Grey beam at h = 0.125 with 32 frequencies: the report's traced peak
    # stays within 6 source boxes.  It measures 4.7 here, set by one
    # orbit's design and its summed sweep R_u G.
    grids = Grids(build_spatial(unit_ball, 0.125), build_angular(4, 8),
                  build_spectral(1.0, 32), ray_h=0.125)
    sol = _grey_solution(unit_ball, grids, two_sided_beam)
    solution_entropy_report(sol)  # loads scipy.sparse outside the trace
    sol = Solution("grey", unit_ball, grids, sol.medium, sol.source, sol.report,
                   w=sol.w, T=sol.T)
    box = grids.spatial.inside.size * grids.spectral.n_nodes * 8
    tracemalloc.start()
    try:
        solution_entropy_report(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * box, peak / box


def test_max_entropy_probe_examples():
    # no perturbations: trivial equality with itself
    ok, margin = max_entropy_probe(10.0, 1.0, 0, seed=1)
    assert ok and margin == 0.0
    # 100 random 10% perturbations all lose
    ok, margin = max_entropy_probe(10.0, 1.0, 100, seed=42, amplitude=0.1)
    assert ok
    assert margin > 0.0
    with pytest.raises(ValueError):
        max_entropy_probe(0.0, 1.0, 10, seed=0)


def test_max_entropy_probe_quadratic_deficit():
    amps = [0.02, 0.04, 0.08]
    deficits = [max_entropy_probe(10.0, 1.0, 1, seed=123, amplitude=a)[1] for a in amps]
    slope = np.polyfit(np.log(amps), np.log(deficits), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)
