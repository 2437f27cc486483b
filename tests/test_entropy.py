import numpy as np
import pytest

from radbody import entropy, geometry, solvers, spectral
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
from radbody.transport import BoundarySource, MediumSpec

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


def test_boundary_flows_zero_and_symmetric(unit_ball):
    ang = build_angular(6, 12)
    sgrid = build_spectral(1.0, 16)
    pts, wts, normals = geometry.surface_quadrature(unit_ball, ang.nodes, ang.weights)
    S, A, J = pts.shape[0], ang.n_nodes, sgrid.n_nodes
    flows = boundary_flows((np.zeros((S, J)) for _ in range(A)), wts, normals, ang, sgrid)
    assert all(v == 0.0 for v in flows.values())
    # blackbody radiance in both hemispheres: symmetric flows
    I_b = np.broadcast_to(spectral.planck(sgrid.nodes, 1.0), (S, J))
    flows = boundary_flows((I_b for _ in range(A)), wts, normals, ang, sgrid)
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
