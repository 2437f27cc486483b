import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from radbody import geometry, spectral, transport
from radbody.geometry import ConvexDomain
from radbody.quadrature import (
    AngularGrid,
    build_angular,
    build_spatial,
    build_spectral,
    scaled_spatial,
    single_frequency_grid,
)
from radbody.spectral import AbsorptionProfile
from radbody.transport import (
    BoundarySource,
    MediumSpec,
    RadiationField,
    ScalarField,
    RaySweeper,
    apply_attenuation_batch,
    attenuation_operator,
    boundary_attenuation_nodes,
    conservation_residual,
)

SIGMA = spectral.stefan_sigma()


# ---------------------------------------------------------------------------
# Medium and boundary-source types
# ---------------------------------------------------------------------------


def test_isotropic_kernel_normalized():
    med = MediumSpec(AbsorptionProfile.constant(0.0), AbsorptionProfile.constant(1.0))
    ang = build_angular(8, 16)
    K, corr = med.kernel_matrix(ang)
    assert corr == 0.0
    col_mass = ang.weights @ K
    assert np.max(np.abs(col_mass - 1.0)) <= 1e-12
    assert np.all(K >= 0.0)


def test_phase_table_kernel_renormalized():
    # Forward-peaked phase table; the load-time renormalization makes every
    # column integrate to one and reports the applied correction.
    mu = np.array([-1.0, 0.0, 1.0])
    p = np.array([0.2, 0.5, 3.0])
    med = MediumSpec(AbsorptionProfile.constant(0.0), AbsorptionProfile.constant(1.0),
                     kernel=(mu, p))
    ang = build_angular(8, 16)
    K, corr = med.kernel_matrix(ang)
    col_mass = ang.weights @ K
    assert np.max(np.abs(col_mass - 1.0)) <= 1e-6
    assert corr > 0.0
    assert np.all(K >= 0.0)


def test_boundary_source_variants():
    nus = np.array([0.5, 1.0, 2.0])
    dirs = build_angular(2, 4).nodes
    assert np.all(BoundarySource.zero().evaluate(dirs, nus) == 0.0)
    g = BoundarySource.constant(3.0)
    assert np.all(g.evaluate(dirs, nus) == 3.0)
    eq = BoundarySource.equilibrium(2.0)
    np.testing.assert_allclose(eq.evaluate(dirs, nus)[0], spectral.planck(nus, 2.0))
    beam = BoundarySource.tabulated(spectrum=([1.0, 2.0], [1.0, 0.5]),
                                    axis=[0, 0, 1],
                                    angular_profile=([-1.0, 1.0], [0.0, 2.0]))
    vals = beam.evaluate(dirs, nus)
    assert vals.shape == (dirs.shape[0], 3)
    assert np.all(vals >= 0.0)
    assert not beam.is_isotropic
    # linear scaling used by the grey-linearity acceptance check
    np.testing.assert_allclose(beam.scaled(2.0).evaluate(dirs, nus), 2 * vals)
    with pytest.raises(ValueError):
        BoundarySource.constant(-1.0)


# ---------------------------------------------------------------------------
# Formal solution and boundary sink
# ---------------------------------------------------------------------------


def _emission_radiance(domain, grid, ang, nu, T, g, alpha):
    """Formal solution with emission only at every node and direction, (M, A)."""
    sgrid = single_frequency_grid(nu)
    box = grid.embed(alpha * spectral.planck(nu, T)[:, None])
    gvals = g.evaluate(ang.nodes, sgrid.nodes)
    sweeper = RaySweeper(domain, grid, ang)
    rates = np.array([alpha])
    return np.stack([sweeper.radiance(i, box, rates, gvals[i])[:, 0]
                     for i in range(ang.n_nodes)], axis=1)


def test_formal_solution_examples(unit_ball):
    grid = build_spatial(unit_ball, 0.125)
    ang = build_angular(3, 6)
    zeroT = np.zeros(grid.n_nodes)
    val = _emission_radiance(unit_ball, grid, ang, 1.0, zeroT, BoundarySource.zero(), 1.0)
    assert np.all(val == 0.0)

    # constant temperature with matching equilibrium boundary reproduces the
    # blackbody radiance at every node and direction
    T0 = 1.3
    eqT = np.full(grid.n_nodes, T0)
    g = BoundarySource.equilibrium(T0)
    for nu in np.random.default_rng(8).uniform(0.3, 5.0, 4):
        val = _emission_radiance(unit_ball, grid, ang, nu, eqT, g, 1.0)
        np.testing.assert_allclose(val, spectral.planck(nu, T0), rtol=1e-8, atol=0.0)

    # transparent limit returns the boundary radiance
    val = _emission_radiance(unit_ball, grid, ang, 1.0, eqT, BoundarySource.constant(3.0), 0.0)
    np.testing.assert_allclose(val, 3.0, rtol=0.0, atol=1e-14)


def _boundary_sink(domain, grid, g, prof, ang, sgrid):
    """Divergence sink of the boundary term at every node: the quadrature of
    alpha_nu g_nu(n) exp(-alpha_nu s(x, n)) over directions and frequencies."""
    alphas = prof(sgrid.nodes)
    b = boundary_attenuation_nodes(domain, grid, g, alphas, ang, sgrid)
    return transport.FOUR_PI * b @ (sgrid.weights * alphas)


def test_neg_div_S_examples(unit_ball):
    ang = build_angular(8, 16)
    sgrid = build_spectral(1.0, 64)
    prof = AbsorptionProfile.constant(1.0)
    grid = build_spatial(unit_ball, 0.25)
    assert np.all(_boundary_sink(unit_ball, grid, BoundarySource.zero(), prof, ang, sgrid) == 0.0)
    # center of the unit ball with blackbody inflow: 4 pi sigma / e
    val = _boundary_sink(unit_ball, grid, BoundarySource.equilibrium(1.0), prof, ang, sgrid)
    center = transport._node_index(grid, [0.0, 0.0, 0.0])
    assert val[center] == pytest.approx(60.041787000677478, rel=1e-6)


def test_neg_div_S_positivity(unit_ball):
    ang = build_angular(4, 8)
    sgrid = build_spectral(1.0, 16)
    prof = AbsorptionProfile.constant(0.7)
    g = BoundarySource.constant(0.2)
    grid = build_spatial(unit_ball, 0.1)
    assert np.min(_boundary_sink(unit_ball, grid, g, prof, ang, sgrid)) > 0.0


# ---------------------------------------------------------------------------
# Volume kernels
# ---------------------------------------------------------------------------


def test_grey_kernel_examples(unit_ball):
    grid = build_spatial(unit_ball, 0.125)
    center = transport._node_index(grid, [0.0, 0.0, 0.0])
    assert attenuation_operator(grid, 1.0).apply(np.zeros(grid.n_nodes))[center] == 0.0

    # w = 1 on a large ball approaches 1 - e^{-R} at the center
    ball5 = ConvexDomain.ball([0, 0, 0], 5.0)
    g5 = build_spatial(ball5, 0.2)
    field = attenuation_operator(g5, 1.0).apply(np.ones(g5.n_nodes))
    val = field[transport._node_index(g5, [0.0, 0.0, 0.0])]
    assert val == pytest.approx(1.0 - np.exp(-5.0), abs=2e-2)
    assert np.max(field) < 1.0


def test_grey_kernel_mass_bound(unit_ball):
    grid = build_spatial(unit_ball, 0.1)
    mass = attenuation_operator(grid, 1.0).row_mass()
    assert np.max(mass) < 1.0
    assert np.min(mass) > 0.0


def thin_ellipsoid():
    """A body only three nodes thick at h = 0.125: box (17, 17, 3)."""
    return ConvexDomain.ellipsoid([0.0, 0.0, 0.0], [1.0, 1.0, 0.1])


def test_fft_matches_direct_sum(unit_ball, ellipsoid_211):
    # The FFT application must reproduce the literal stencil sum exactly,
    # also on non-cubic and thin boxes.
    rng = np.random.default_rng(1)
    for domain, h in ((unit_ball, 0.31), (ellipsoid_211, 0.31), (thin_ellipsoid(), 0.125)):
        grid = build_spatial(domain, h)
        op = attenuation_operator(grid, 1.3)
        assert all(f >= 2 * n - 1 for f, n in zip(op.fshape, grid.box_shape))
        vals = rng.random(grid.n_nodes)
        out = op.apply(vals)
        nx, ny, nz = grid.box_shape
        idx = np.array(np.unravel_index(grid.flat_index, grid.box_shape)).T
        direct = np.empty(grid.n_nodes)
        for a in range(grid.n_nodes):
            d = idx[a] - idx
            entries = op.stencil[d[:, 0] + nx - 1, d[:, 1] + ny - 1, d[:, 2] + nz - 1]
            direct[a] = np.sum(entries * vals)
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(np.abs(direct))


def _near_field_reference(grid, beta, near_range=transport.NEAR_RANGE,
                          near_subdiv=transport.NEAR_SUBDIV):
    """Per-offset loop over the near-field entries that lie inside the stencil."""
    h = grid.h
    n = np.array(grid.box_shape)
    out = {}
    for o in np.ndindex(*(2 * near_range + 1,) * 3):
        o = np.array(o) - near_range
        dist = int(np.max(np.abs(o)))
        if dist == 0 or np.any(np.abs(o) > n - 1):
            continue
        q = max(2, int(np.ceil(near_subdiv / (2 * dist))))
        cell = ((np.arange(q) + 0.5) / q - 0.5) * h
        pts = (cell[:, None] + np.array([-1.0, 1.0]) * (h / (2 * q * np.sqrt(3.0)))).ravel()
        px = o[0] * h + pts[:, None, None]
        py = o[1] * h + pts[None, :, None]
        pz = o[2] * h + pts[None, None, :]
        rr2 = px**2 + py**2 + pz**2
        val = np.mean(np.exp(-beta * np.sqrt(rr2)) / rr2)
        out[tuple(n - 1 + o)] = beta / transport.FOUR_PI * val * h**3
    return out


def test_near_field_matches_loop_reference(unit_ball):
    for domain in (unit_ball, thin_ellipsoid()):
        grid = build_spatial(domain, 0.125)
        op = transport.AttenuationOperator(grid, 1.3)
        ref = _near_field_reference(grid, 1.3)
        assert len(ref) > 0
        for index, value in ref.items():
            assert op.stencil[index] == value


def _far_field_reference(grid, beta):
    """Two-point Gauss far field evaluated over the full box of offsets."""
    h = grid.h
    dx, dy, dz = (np.arange(1 - n, n) * h for n in grid.box_shape)
    gauss = 0.5 * h / np.sqrt(3.0)
    out = np.zeros((dx.size, dy.size, dz.size))
    for sx in (-gauss, gauss):
        for sy in (-gauss, gauss):
            for sz in (-gauss, gauss):
                r2 = ((dx + sx)[:, None, None] ** 2 + (dy + sy)[None, :, None] ** 2
                      + (dz + sz)[None, None, :] ** 2)
                out += np.exp(-beta * np.sqrt(r2)) / r2
    return out * (beta / transport.FOUR_PI * h**3 / 8.0)


def test_far_field_octant_matches_full_box_reference(unit_ball, ellipsoid_211):
    # The stencil evaluates the far field on one octant and mirrors it; only
    # the order of the eight Gauss terms differs from the full-box sum.
    for domain, h in ((unit_ball, 0.125), (ellipsoid_211, 0.25), (thin_ellipsoid(), 0.125)):
        grid = build_spatial(domain, h)
        shape = np.array(grid.box_shape)
        offsets = np.abs(np.indices(2 * shape - 1) - (shape - 1)[:, None, None, None])
        far = np.max(offsets, axis=0) > transport.NEAR_RANGE
        assert np.count_nonzero(far) > 0
        for beta in (0.3, 1.0, 20.0):
            stencil = transport.AttenuationOperator(grid, beta).stencil
            ref = _far_field_reference(grid, beta)
            assert np.all(np.abs(stencil[far] - ref[far]) <= 1e-13 * ref[far])


def test_thin_body_operator():
    # Regression: a box axis with fewer than NEAR_RANGE + 1 nodes used to
    # raise IndexError while writing near-field entries.
    grid = build_spatial(thin_ellipsoid(), 0.125)
    assert tuple(grid.box_shape) == (17, 17, 3)
    mass = transport.AttenuationOperator(grid, 1.0).row_mass()
    assert np.max(mass) < 1.0
    assert np.min(mass) > 0.0


def test_batch_weights_equal_weighted_channel_sum(ellipsoid_211):
    grid = build_spatial(ellipsoid_211, 0.25)
    rng = np.random.default_rng(5)
    betas = np.array([0.4, 1.3, 0.0, 2.2, 1.3])
    fields = rng.random((betas.size, grid.n_nodes))
    weights = rng.random(betas.size)
    per_channel = transport.apply_attenuation_batch(grid, betas, fields)
    fused = transport.apply_attenuation_batch(grid, betas, fields, weights=weights)
    expected = weights @ per_channel
    assert fused.shape == (grid.n_nodes,)
    assert np.max(np.abs(fused - expected)) <= 1e-13 * np.max(np.abs(expected))


def _sample_reference(grid, box, points):
    """Eight-gather trilinear interpolation of a box array, clamped to the hull."""
    n = np.array(grid.box_shape)
    f = np.clip((points - grid.origin) / grid.h, 0.0, n - 1.0)
    i0 = np.minimum(f.astype(int), n - 2)
    t = f - i0
    ix, iy, iz = i0[:, 0], i0[:, 1], i0[:, 2]
    tx, ty, tz = t[:, 0], t[:, 1], t[:, 2]
    if box.ndim == 4:
        tx, ty, tz = tx[:, None], ty[:, None], tz[:, None]

    def g(dx, dy, dz):
        return box[ix + dx, iy + dy, iz + dz]

    c00 = g(0, 0, 0) * (1 - tz) + g(0, 0, 1) * tz
    c01 = g(0, 1, 0) * (1 - tz) + g(0, 1, 1) * tz
    c10 = g(1, 0, 0) * (1 - tz) + g(1, 0, 1) * tz
    c11 = g(1, 1, 0) * (1 - tz) + g(1, 1, 1) * tz
    return (c00 * (1 - ty) + c01 * ty) * (1 - tx) + (c10 * (1 - ty) + c11 * ty) * tx


def _gather_line_integrals_reference(sweeper, i, box, rates):
    """The eight-gather trilinear sweep that the sparse operators replaced."""
    s, starts, _, base_w, depth = sweeper._design(i)
    ray_of = np.repeat(np.arange(s.size), np.diff(np.append(starts, depth.size)))
    pos = sweeper.grid.centers[ray_of] - depth[:, None] * sweeper.angular.nodes[i]
    vals = _sample_reference(sweeper.grid, box, pos)
    rates_arr = np.atleast_1d(np.asarray(rates, dtype=float))
    uniq, inv = np.unique(rates_arr, return_inverse=True)
    att = np.exp(-np.outer(depth, uniq))[:, inv]
    if vals.ndim == 1:
        vals = vals[:, None]
    contrib = np.add.reduceat(vals * att * base_w[:, None], starts, axis=0)
    if np.isscalar(rates) or np.asarray(rates).ndim == 0:
        return contrib[:, 0], s
    return contrib, s


def test_line_integrals_match_gather_reference(unit_ball, ellipsoid_211):
    # Same samples and weights as the gather sweep; only the summation
    # order differs, so agreement is to rounding.
    rng = np.random.default_rng(11)
    ang = build_angular(4, 8)
    cases = [
        (4, np.full(5, 1.0)),                            # one shared rate
        (4, np.array([0.3, 1.0, 2.5, 0.0, 4.0])),        # distinct rates
        (4, np.array([0.7, 2.0, 0.7, 0.7, 2.0, 0.1])),   # repeated, mixed
        (3, 1.7),                                        # scalar rate, 3-D box
    ]
    for domain in (unit_ball, ellipsoid_211):
        grid = build_spatial(domain, 0.25)
        sweeper = transport.RaySweeper(domain, grid, ang, ray_h=0.1)
        for ndim, rates in cases:
            channels = () if ndim == 3 else (np.size(rates),)
            box = grid.embed(rng.random((grid.n_nodes,) + channels))
            for i in (0, 5, ang.n_nodes - 1):
                got, s = sweeper.line_integrals(i, box, rates)
                ref, s_ref = _gather_line_integrals_reference(sweeper, i, box, rates)
                assert got.shape == ref.shape == (grid.n_nodes,) + channels
                assert np.array_equal(s, s_ref)
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


def test_sweep_matches_direction_loop(unit_ball, ellipsoid_211):
    rng = np.random.default_rng(17)
    ang = build_angular(4, 8)
    rates = np.array([0.4, 1.3, 1.3])
    for domain in (unit_ball, ellipsoid_211):
        grid = build_spatial(domain, 0.25)
        sweeper = RaySweeper(domain, grid, ang, ray_h=0.1)
        Phi = rng.random((grid.n_nodes, ang.n_nodes, rates.size))
        gvals = rng.random((ang.n_nodes, rates.size))
        got = sweeper.sweep(Phi, rates, gvals)
        for i in range(ang.n_nodes):
            contrib, s = sweeper.line_integrals(i, grid.embed(Phi[:, i, :]), rates)
            assert np.array_equal(got[:, i, :], np.exp(-np.outer(s, rates)) * gvals[i] + contrib)
        # without sources only the boundary term remains
        assert np.array_equal(sweeper.sweep(np.zeros_like(Phi), rates, gvals),
                              sweeper.boundary_term(rates, gvals))


def _chord_integrals_reference(grid, box, end_points, lengths, direction, rates, ray_h):
    """The chord integrator that chord_radiance replaced: its own Simpson
    rule, gathers and reduceat over integral_0^L e^{-rate (L - xi)} f dxi."""
    N = end_points.shape[0]
    n_int = np.maximum(np.ceil(np.asarray(lengths) / ray_h).astype(int), 2)
    n_int += n_int % 2
    counts = n_int + 1
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    ray_of = np.repeat(np.arange(N), counts)
    k = np.arange(int(np.sum(counts))) - starts[ray_of]
    nn = n_int[ray_of]
    L = np.asarray(lengths)[ray_of]
    xi = L * (k / nn)
    coeff = np.where((k == 0) | (k == nn), 1.0, np.where(k % 2 == 1, 4.0, 2.0))
    base_w = coeff * L / (3.0 * nn)
    pos = end_points[ray_of] - (L - xi)[:, None] * direction
    vals = _sample_reference(grid, box, pos)
    att = np.exp(-np.outer(L - xi, rates))
    return np.add.reduceat(vals * att * base_w[:, None], starts, axis=0)


def test_chord_radiance_matches_reference(unit_ball, ellipsoid_211):
    # Boundary chords are rays that start on the boundary: same samples and
    # weights as the old chord integrator, summed by the sparse operator.
    rng = np.random.default_rng(13)
    ang = build_angular(4, 8)
    rates = np.array([0.7, 2.0, 0.7, 0.0])
    for domain in (unit_ball, ellipsoid_211):
        grid = build_spatial(domain, 0.25)
        sweeper = RaySweeper(domain, grid, ang, ray_h=0.1)
        pts, _, normals = geometry.surface_quadrature(domain, ang.nodes, ang.weights)
        box = grid.embed(rng.random((grid.n_nodes, rates.size)))
        g = rng.random(rates.size)
        for i in range(ang.n_nodes):
            n = ang.nodes[i]
            out = normals @ n > 0.0
            chords = geometry.boundary_chord(domain, pts[out], n)
            ref = (np.exp(-np.outer(chords, rates)) * g
                   + _chord_integrals_reference(grid, box, pts[out], chords, n, rates, 0.1))
            got = sweeper.chord_radiance(i, pts[out], box, rates, g)
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


def test_positivity_preservation(unit_ball):
    grid = build_spatial(unit_ball, 0.15)
    rng = np.random.default_rng(4)
    w = rng.random(grid.n_nodes)
    assert np.min(attenuation_operator(grid, 1.0).apply(w)) >= 0.0


def _spectral_kernel(w, grid, prof, sgrid):
    """Frequency-summed kernel term sum_j q_j alpha_j conv_j(B_j(T)) at w = f(T)."""
    T = spectral.invert_emission_many(prof, w, sgrid)
    alphas = prof(sgrid.nodes)
    B = spectral.planck(sgrid.nodes, T[:, None])
    return apply_attenuation_batch(grid, alphas, B.T, weights=sgrid.weights * alphas)


def test_spectral_kernel_examples(unit_ball):
    grid = build_spatial(unit_ball, 0.2)
    sgrid = build_spectral(1.0, 24)
    prof = AbsorptionProfile.table([0.1, 10.0, 50.0], [1.0, 0.6, 0.2])
    center = transport._node_index(grid, [0.0, 0.0, 0.0])
    assert _spectral_kernel(np.zeros(grid.n_nodes), grid, prof, sgrid)[center] == 0.0

    # constant w: the result stays strictly below w (kernel mass bound)
    T0 = 1.2
    w0 = spectral.emission_integral(prof, T0, sgrid)
    val = _spectral_kernel(np.full(grid.n_nodes, w0), grid, prof, sgrid)[center]
    assert 0.0 < val < w0


def test_spectral_kernel_reduces_to_grey(unit_ball):
    # With a constant coefficient the spectral kernel is the grey kernel in
    # rescaled coordinates applied to the frequency-integrated emission.
    alpha0 = 1.7
    grid = build_spatial(unit_ball, 0.2)
    sgrid = build_spectral(1.0, 32)
    prof = AbsorptionProfile.constant(alpha0)
    rng = np.random.default_rng(9)
    T = rng.uniform(0.5, 1.5, grid.n_nodes)
    w = spectral.emission_integral(prof, T, sgrid)
    lhs = _spectral_kernel(w, grid, prof, sgrid)
    a_field = np.sum(sgrid.weights * spectral.planck(sgrid.nodes, T[:, None]), axis=1)
    rhs = alpha0 * attenuation_operator(scaled_spatial(grid, alpha0), 1.0).apply(a_field)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6 * np.max(np.abs(rhs))


# ---------------------------------------------------------------------------
# Flux and conservation residual
# ---------------------------------------------------------------------------


def _split_polar_grid(n_half, n_az):
    """Composite Gauss-Legendre on [-1, 0] and [0, 1]: exact for integrands
    polynomial on each hemisphere (the hemisphere-beam oracle)."""
    gx, gw = leggauss(n_half)
    mus = np.concatenate([0.5 * (gx - 1.0), 0.5 * (gx + 1.0)])
    wmu = np.concatenate([0.5 * gw, 0.5 * gw])
    phi = (np.arange(n_az) + 0.5) * 2 * np.pi / n_az
    st = np.sqrt(1 - mus**2)
    nodes = np.column_stack([
        np.outer(st, np.cos(phi)).ravel(),
        np.outer(st, np.sin(phi)).ravel(),
        np.repeat(mus, n_az),
    ])
    weights = np.repeat(wmu, n_az) * (2 * np.pi / n_az)
    return AngularGrid(nodes=nodes, weights=weights)


def test_flux_examples():
    ang = _split_polar_grid(8, 16)
    sgrid = single_frequency_grid(1.0)
    M, A, J = 1, ang.n_nodes, 1
    # isotropic radiance: zero flux
    I = RadiationField(np.full((M, A, J), 2.5))
    f = transport.flux(I, 0, ang, sgrid)
    assert np.max(np.abs(f)) <= 1e-10 * 2.5 * 4 * np.pi
    # hemisphere beam: flux = (2 pi / 3) c0 e
    c0 = 1.7
    e = np.array([0.0, 0.0, 1.0])
    vals = c0 * np.maximum(ang.nodes @ e, 0.0)
    I = RadiationField(vals[None, :, None])
    f = transport.flux(I, 0, ang, sgrid)
    np.testing.assert_allclose(f, (2 * np.pi / 3) * c0 * e, atol=1e-6)
    # triangle inequality
    total = np.sum(sgrid.weights * np.sum(ang.weights[:, None] * vals[:, None], axis=0))
    assert np.linalg.norm(f) <= total + 1e-12


def test_conservation_residual_zero_state(unit_ball):
    grid = build_spatial(unit_ball, 0.2)
    ang = build_angular(4, 8)
    sgrid = build_spectral(1.0, 16)
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.0))
    T = ScalarField(np.zeros(grid.n_nodes), "temperature")
    res, _ = conservation_residual(T, BoundarySource.zero(), med, unit_ball,
                                   grid, ang, sgrid, representation="kernel")
    assert np.max(np.abs(res.values)) == 0.0


def test_conservation_residual_equilibrium_ray(unit_ball):
    # The exact equilibrium state is a fixed point of the ray-marched
    # operator to quadrature precision.
    grid = build_spatial(unit_ball, 0.15)
    ang = build_angular(6, 12)
    sgrid = build_spectral(1.0, 32)
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.0))
    T0 = 1.0
    T = ScalarField(np.full(grid.n_nodes, T0), "temperature")
    g = BoundarySource.equilibrium(T0)
    res, rel = conservation_residual(T, g, med, unit_ball, grid, ang, sgrid,
                                     representation="ray", ray_h=0.02)
    fT0 = spectral.emission_integral(med.absorption, T0, sgrid)
    assert np.max(np.abs(res.values)) <= 1e-6 * 4 * np.pi * fT0


def _collapsed_reference(grid, alpha_a, alpha_s, fT, bU, tol, max_iter=2000):
    """Reference: the former frequency-collapsed inner solve, a loop on
    U = bU + (4pi/beta) conv_beta(alpha_a f(T) + (alpha_s/4pi) U)."""
    beta = alpha_a + alpha_s
    op = attenuation_operator(grid, beta)
    U = np.zeros(grid.n_nodes)
    scale = max(float(np.max(np.abs(bU))) + float(np.max(np.abs(alpha_a * fT))), 1e-300)
    its = 0
    for it in range(max_iter):
        its = it + 1
        src = alpha_a * fT + (alpha_s / transport.FOUR_PI) * U
        new = bU + (transport.FOUR_PI / beta) * op.apply(src)
        delta = float(np.max(np.abs(new - U)))
        U = new
        if delta <= tol * scale:
            break
    return U, its


@pytest.mark.parametrize("alpha_a, alpha_s", [(1.0, 0.5), (0.3, 0.4), (2.0, 1.0)])
def test_one_channel_inner_solve_matches_collapsed_reference(unit_ball, alpha_a, alpha_s):
    # Constant coefficients: solve_combined runs the inner solve as one
    # channel of scattered_mean_intensity (emission f(T), boundary term bU).
    grid = build_spatial(unit_ball, 0.2)
    sgrid = build_spectral(1.0, 16)
    T = 1.0 + 0.2 * grid.centers[:, 2]
    fT = spectral.emission_integral(AbsorptionProfile.constant(alpha_a), T, sgrid)
    beta = np.full(sgrid.n_nodes, alpha_a + alpha_s)
    mass = [attenuation_operator(grid, b).row_mass() for b in beta]
    b_freq = boundary_attenuation_nodes(unit_ball, grid, BoundarySource.equilibrium(0.8),
                                        beta, build_angular(4, 8), sgrid, mass_fields=mass)
    bU = transport.FOUR_PI * b_freq @ (sgrid.weights * alpha_a)
    U_ref, its_ref = _collapsed_reference(grid, alpha_a, alpha_s, fT, bU, tol=1e-6)
    U, its = transport.scattered_mean_intensity(
        grid, sgrid, np.full(1, alpha_a), np.full(1, alpha_s), fT[:, None], bU[:, None],
        tol=1e-6)
    assert its == its_ref
    assert np.array_equal(U[:, 0], U_ref)
