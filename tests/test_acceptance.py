"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one line per checked criterion in the form

    ACCEPT <nn> <name>: measured=... bound=... PASS|FAIL

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import time

import numpy as np
import pytest

from entropy_probe import max_entropy_probe
from radbody import entropy, geometry, solvers, spectral, transport
from radbody.geometry import ConvexDomain
from radbody.quadrature import (
    build_angular,
    build_spatial,
    build_spectral,
    single_frequency_grid,
)
from radbody.solvers import Grids, Solution
from radbody.spectral import AbsorptionProfile
from radbody.transport import BoundarySource, MediumSpec, attenuation_operator

SIGMA = spectral.stefan_sigma()
T0 = 1.0

MILD_PROFILE = AbsorptionProfile.table([0.01, 5.0, 60.0], [1.25, 1.0, 0.75])
# Grey absorption: the constant profile, which ``solve_spectral`` iterates linearly.
GREY = AbsorptionProfile.constant(1.0)


def _report(num, name, measured, bound, ok, cmp="<="):
    print(f"ACCEPT {num:02d} {name}: measured={measured:.6g} {cmp} {bound:.6g} "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed: {measured} vs {bound}"


@pytest.fixture(scope="module")
def ball():
    return ConvexDomain.ball([0.0, 0.0, 0.0], 1.0)


@pytest.fixture(scope="module")
def equilibrium_runs(ball):
    """Criterion 5 solves, shared with the entropy checks: mode -> h -> data."""
    angular = build_angular(8, 16)
    sgrid = build_spectral(T0, 32)
    g = BoundarySource.equilibrium(T0)
    runs = {}
    for h in (0.1, 0.05):
        grids = Grids(build_spatial(ball, h), angular, sgrid, ray_h=h / 2)
        per_mode = {}
        t0 = time.perf_counter()
        w, T, rep = solvers.solve_spectral(ball, GREY, g, grids, tol=1e-9)
        med = MediumSpec(GREY, AbsorptionProfile.constant(0.0))
        per_mode["grey"] = (Solution("grey", ball, grids, med, g, rep, w=w, T=T),
                            time.perf_counter() - t0)
        t0 = time.perf_counter()
        w, T, rep = solvers.solve_spectral(ball, MILD_PROFILE, g, grids, tol=1e-9)
        med = MediumSpec(MILD_PROFILE, AbsorptionProfile.constant(0.0))
        per_mode["spectral"] = (Solution("spectral", ball, grids, med, g, rep, w=w, T=T),
                                time.perf_counter() - t0)
        t0 = time.perf_counter()
        med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.5))
        w, T, I, rep, J0 = solvers.solve_combined(ball, med, g, grids, tol=1e-9)
        per_mode["combined"] = (Solution("combined", ball, grids, med, g, rep,
                                         w=w, T=T, J0=J0),
                                time.perf_counter() - t0)
        runs[h] = per_mode
    return runs


def test_criterion_01_stefan_boltzmann():
    worst = 0.0
    for T in (0.5, 1.0, 2.0):
        grid = build_spectral(T, 64)
        val = float(np.sum(grid.weights * spectral.planck(grid.nodes, T)))
        worst = max(worst, abs(val - SIGMA * T**4) / (SIGMA * T**4))
    _report(1, "stefan_boltzmann", worst, 1e-8, worst <= 1e-8)


def test_criterion_02_kernel_normalization():
    worst = 0.0
    for alpha, R in ((1.0, 5.0), (2.0, 3.0)):
        dom = ConvexDomain.ball([0, 0, 0], R)
        grid = build_spatial(dom, R / 20.0)
        center = transport._node_index(grid, [0.0, 0.0, 0.0])
        mass = float(attenuation_operator(grid, alpha).row_mass()[center])
        worst = max(worst, abs(mass - (1.0 - np.exp(-alpha * R))))
    _report(2, "kernel_normalization", worst, 1e-4, worst <= 1e-4)


def test_criterion_03_grey_mass_bound(ball):
    worst = 0.0
    for h in (0.1, 0.05):
        grid = build_spatial(ball, h)
        worst = max(worst, float(np.max(attenuation_operator(grid, 1.0).row_mass())))
    _report(3, "grey_kernel_mass_bound", worst, 1.0, worst < 1.0, cmp="<")


def test_criterion_04_ray_identity(ball):
    rng = np.random.default_rng(20260810)
    u = rng.normal(size=(1000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    x = 0.98 * u * rng.random((1000, 1)) ** (1 / 3)
    n = rng.normal(size=(1000, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    h = 1e-5
    fd = (geometry.exit_lengths(ball, x + h * n, n)
          - geometry.exit_lengths(ball, x - h * n, n)) / (2 * h)
    worst = float(np.max(np.abs(fd - 1.0)))
    _report(4, "ray_direction_identity", worst, 1e-4, worst <= 1e-4)


def test_criterion_05_equilibrium_uniqueness(ball, equilibrium_runs):
    budgets = {0.1: 1e-2, 0.05: 4e-3}
    prod_scale = 4 * np.pi * SIGMA * T0**4 * ball.volume()
    for h, per_mode in equilibrium_runs.items():
        for mode, (sol, wall) in per_mode.items():
            dev = float(np.max(np.abs(sol.T - T0)) / T0)
            _report(5, f"equilibrium_T_{mode}_h{h:g}", dev, budgets[h], dev <= budgets[h])
            if h == 0.05:
                # The report runs on 4x8 directions with ray h 2h: none of
                # these solutions stores radiance, so the ray source
                # alpha_a B(T) + (alpha_s/4pi) J0 does not depend on the
                # angular grid, and a copy on coarser grids is exact.
                grids = Grids(sol.grids.spatial, build_angular(4, 8), sol.grids.spectral,
                              ray_h=2 * h)
                coarse = Solution(mode, ball, grids, sol.medium, sol.source, sol.report,
                                  w=sol.w, T=sol.T, J0=sol.J0)
                t0 = time.perf_counter()
                er = entropy.solution_entropy_report(coarse)
                total = wall + (time.perf_counter() - t0)
                prod = er.production_volume_integral
                _report(5, f"equilibrium_entropy_{mode}", prod, 1e-8 * prod_scale,
                        prod <= 1e-8 * prod_scale)
                _report(5, f"equilibrium_runtime_{mode}", total, 300.0, total <= 300.0)


def test_criterion_06_scattering_contraction(ball):
    med = MediumSpec(AbsorptionProfile.constant(0.0), AbsorptionProfile.constant(1.0))
    grids = Grids(build_spatial(ball, 0.15), build_angular(6, 10),
                  single_frequency_grid(1.0), ray_h=0.0625)
    beam = BoundarySource.tabulated(spectrum=([1.0], [1.0]), axis=[0, 0, 1],
                                    angular_profile=([-1.0, 0.0, 0.2, 1.0],
                                                     [0.0, 0.0, 1.0, 2.0]))
    # The map's contraction, measured on plain sweeps from the boundary term in
    # the norm of the proof (sup over nodes of the angular L1 change); the
    # solver's own ratios are those of its Anderson-mixed residuals.
    sw = solvers.AngularSweep(ball, med, beam, grids)
    I = sw.rays.boundary_term(sw.beta, sw.gvals)
    changes = []
    for _ in range(8):
        I_new = sw.sweep(I)
        changes.append(float(np.max(sw.angle_integral(np.abs(I_new - I)))))
        I = I_new
    ratio = max(b / a for a, b in zip(changes[2:], changes[3:]))
    bound = 1.0 - np.exp(-2.0) + 0.05
    _report(6, "scattering_contraction_ratio", ratio, bound, ratio <= bound)

    I, rep = solvers.solve_scattering(ball, med, BoundarySource.constant(3.0),
                                      grids, tol=1e-7, max_iter=300)
    dev = float(np.max(np.abs(I - 3.0)))
    _report(6, "scattering_constant_source", dev, 1e-6, dev <= 1e-6)


def test_criterion_07_h_bound(ball):
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(1.0))
    grids = Grids(build_spatial(ball, 1.0 / 6.0), build_angular(8, 16),
                  single_frequency_grid(1.0), ray_h=0.05)
    cert = solvers.compute_H(ball, med, grids, eps_trunc=1e-10)
    bound = (1.0 - np.exp(-4.0)) / (1.0 + np.exp(-4.0))
    worst = float(np.max(cert.angular_integral))
    _report(7, "h_response_bound", worst, bound + 1e-3, worst <= bound + 1e-3)
    # truncation honored: the first omitted term's closed-form bound
    reach = 1.0 - np.exp(-4.0)
    next_bound = 1.0 * 1.0 ** cert.terms_used / 2.0 ** (cert.terms_used + 1) \
        * reach ** (cert.terms_used + 1)
    _report(7, "h_truncation_bound", next_bound, 1e-10, next_bound <= 1e-10)
    _report(7, "h_truncation_depth", cert.terms_used, 33, cert.terms_used <= 33)


def test_criterion_08_entropy_nonnegativity(ball):
    rng = np.random.default_rng(424242)
    nu = rng.uniform(0.05, 10.0, 10_000)
    T = rng.uniform(0.05, 5.0, 10_000)
    I = rng.uniform(1e-12, 10.0, 10_000)
    dens = entropy.production_density(nu, T, I, 1.0)
    worst = float(np.min(dens))
    _report(8, "production_density_min", worst, -1e-15, worst >= -1e-15, cmp=">=")

    beam = BoundarySource.tabulated(
        spectrum=([0.5, 1.0, 3.0, 10.0], [0.5, 1.0, 0.7, 0.05]),
        axis=[0, 0, 1], angular_profile=([-1.0, -0.2, 0.2, 1.0], [1.6, 0.2, 0.2, 1.6]))
    grids = Grids(build_spatial(ball, 0.1), build_angular(8, 16),
                  build_spectral(T0, 32), ray_h=0.05)
    w, T_f, rep = solvers.solve_spectral(ball, GREY, beam, grids, tol=1e-10)
    med = MediumSpec(GREY, AbsorptionProfile.constant(0.0))
    sol = Solution("grey", ball, grids, med, beam, rep, w=w, T=T_f)
    er = entropy.solution_entropy_report(sol)
    net = er.phi_out + er.phi_in
    _report(8, "boundary_entropy_outflow", net, -1e-6 * abs(er.phi_out),
            net >= -1e-6 * abs(er.phi_out), cmp=">=")


def test_criterion_09_max_entropy_probe():
    ok, margin = max_entropy_probe(10.0, T0, 100, seed=20260810, amplitude=0.1)
    _report(9, "max_entropy_probe_margin", margin, 0.0, ok and margin > 0.0, cmp=">")


def test_criterion_10_oracle_equivalence(ball):
    t_start = time.perf_counter()
    grids = Grids(build_spatial(ball, 2.0 / 7.0), build_angular(2, 13),
                  build_spectral(T0, 8))
    g = BoundarySource.constant(0.3)

    med = MediumSpec(GREY, AbsorptionProfile.constant(0.0))
    w, T, _ = solvers.solve_spectral(ball, GREY, g, grids, tol=1e-10)
    orc = solvers.oracle_solve(ball, med, g, grids)
    dev = float(np.max(np.abs(T - orc.T)))
    _report(10, "oracle_grey", dev, 5e-3, dev <= 5e-3)

    med = MediumSpec(MILD_PROFILE, AbsorptionProfile.constant(0.0))
    w, T, _ = solvers.solve_spectral(ball, MILD_PROFILE, g, grids, tol=1e-10)
    orc = solvers.oracle_solve(ball, med, g, grids)
    dev = float(np.max(np.abs(T - orc.T)))
    _report(10, "oracle_spectral", dev, 5e-3, dev <= 5e-3)

    med = MediumSpec(MILD_PROFILE, AbsorptionProfile.constant(0.5))
    w, T, _, _, _ = solvers.solve_combined(ball, med, g, grids, tol=1e-10)
    orc = solvers.oracle_solve(ball, med, g, grids)
    dev = float(np.max(np.abs(T - orc.T)))
    _report(10, "oracle_combined", dev, 5e-3, dev <= 5e-3)

    wall = time.perf_counter() - t_start
    _report(10, "oracle_runtime", wall, 600.0, wall <= 600.0)


def test_criterion_11_regime_reductions(ball):
    grids = Grids(build_spatial(ball, 0.125), build_angular(6, 12),
                  build_spectral(T0, 32), ray_h=0.0625)
    beam = BoundarySource.tabulated(
        spectrum=([0.5, 1.0, 3.0, 10.0], [0.5, 1.0, 0.7, 0.05]),
        axis=[0, 0, 1], angular_profile=([-1.0, 0.0, 1.0], [0.1, 0.4, 1.5]))

    # A flat table of the same coefficient takes the general, nonlinear step.
    flat = AbsorptionProfile.table([1.0, 2.0], [1.0, 1.0])
    w_s, T_s, _ = solvers.solve_spectral(ball, flat, beam, grids, tol=1e-10)
    w_g, T_g, _ = solvers.solve_spectral(ball, GREY, beam, grids, tol=1e-10)
    dev = float(np.max(np.abs(T_s - T_g)))
    _report(11, "spectral_reduces_to_grey", dev, 1e-4, dev <= 1e-4)

    med = MediumSpec(MILD_PROFILE, AbsorptionProfile.constant(0.0))
    w_c, T_c, _, _, _ = solvers.solve_combined(ball, med, beam, grids, tol=1e-10)
    w_s2, T_s2, _ = solvers.solve_spectral(ball, MILD_PROFILE, beam, grids, tol=1e-10)
    dev = float(np.max(np.abs(T_c - T_s2)))
    _report(11, "combined_reduces_to_spectral", dev, 1e-4, dev <= 1e-4)


def test_criterion_12_grey_linearity(ball):
    grids = Grids(build_spatial(ball, 0.125), build_angular(6, 12),
                  build_spectral(T0, 32), ray_h=0.0625)
    def beam(c):
        return BoundarySource.tabulated(
            spectrum=([0.5, 1.0, 3.0, 10.0], c * np.array([0.5, 1.0, 0.7, 0.05])),
            axis=[0, 0, 1], angular_profile=([-1.0, 0.0, 1.0], [0.1, 0.4, 1.5]))

    w1, _, _ = solvers.solve_spectral(ball, GREY, beam(1.0), grids, tol=1e-12)
    worst = 0.0
    for c in (0.5, 2.0, 10.0):
        wc, _, _ = solvers.solve_spectral(ball, GREY, beam(c), grids, tol=1e-12)
        worst = max(worst, float(np.max(np.abs(wc - c * w1))
                                 / np.max(np.abs(c * w1))))
    _report(12, "grey_source_linearity", worst, 1e-10, worst <= 1e-10)
