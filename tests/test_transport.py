import itertools
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from radbody import geometry, spectral, transport
from radbody.geometry import ConvexDomain
from radbody.quadrature import (
    SpatialGrid,
    build_angular,
    build_spatial,
    build_spectral,
    single_frequency_grid,
)
from radbody.spectral import AbsorptionProfile
from lattice_stencil import attenuation_stencil
from radbody.transport import (
    AttenuationOperator,
    BoundarySource,
    MediumSpec,
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
    with pytest.raises(ValueError):
        BoundarySource.constant(-1.0)
    # np.interp needs increasing abscissae: out-of-order tables are rejected.
    with pytest.raises(ValueError, match="spectrum"):
        BoundarySource.tabulated(spectrum=([3.0, 1.0, 2.0], [1.0, 5.0, 0.0]))
    with pytest.raises(ValueError, match="angular profile"):
        BoundarySource.tabulated(spectrum=([1.0, 2.0], [1.0, 0.5]), axis=[0, 0, 1],
                                 angular_profile=([1.0, -1.0], [0.0, 2.0]))


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
    # center of the unit ball with blackbody inflow: 4 pi sigma / e.  A flat
    # beam profile makes the source anisotropic in form, so the term is the
    # direction quadrature rather than the row-mass identity.
    blackbody = BoundarySource.tabulated((sgrid.nodes, spectral.planck(sgrid.nodes, 1.0)),
                                         axis=[0.0, 0.0, 1.0],
                                         angular_profile=([-1.0, 1.0], [1.0, 1.0]))
    assert not blackbody.is_isotropic
    val = _boundary_sink(unit_ball, grid, blackbody, prof, ang, sgrid)
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


def _apply(grid, beta, field):
    """The rate-``beta`` kernel applied to one nodal field."""
    return apply_attenuation_batch(grid, [beta], field[None])[0]


def test_grey_kernel_examples(unit_ball):
    grid = build_spatial(unit_ball, 0.125)
    center = transport._node_index(grid, [0.0, 0.0, 0.0])
    assert _apply(grid, 1.0, np.zeros(grid.n_nodes))[center] == 0.0

    # w = 1 on a large ball approaches 1 - e^{-R} at the center
    ball5 = ConvexDomain.ball([0, 0, 0], 5.0)
    g5 = build_spatial(ball5, 0.2)
    field = _apply(g5, 1.0, np.ones(g5.n_nodes))
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
        stencil = attenuation_stencil(grid, 1.3)
        vals = rng.random(grid.n_nodes)
        out = _apply(grid, 1.3, vals)
        nx, ny, nz = grid.box_shape
        idx = np.array(np.unravel_index(grid.flat_index, grid.box_shape)).T
        direct = np.empty(grid.n_nodes)
        for a in range(grid.n_nodes):
            d = idx[a] - idx
            entries = stencil[d[:, 0] + nx - 1, d[:, 1] + ny - 1, d[:, 2] + nz - 1]
            direct[a] = np.sum(entries * vals)
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(np.abs(direct))


def _circular_stencil_transform(grid, beta, fshape):
    """np.fft.rfftn of the literal stencil placed circularly, offset d at d mod L."""
    placed = np.zeros(fshape)
    placed[tuple(slice(0, 2 * n - 1) for n in grid.box_shape)] = attenuation_stencil(grid, beta)
    return np.fft.rfftn(np.roll(placed, [1 - n for n in grid.box_shape], axis=(0, 1, 2)))


def test_kernel_hat_is_the_even_octant_of_the_stencil_transform(unit_ball, ellipsoid_211):
    # The stencil is even in every axis, so its circular transform is real
    # and takes one value at k and L - k: kernel_hat is its octant k <= L//2,
    # on odd and even cyclic lengths (n = 7 gives L = 14) and at zero rate,
    # where both are exactly 0.
    cases = ((unit_ball, 0.31), (ellipsoid_211, 0.31), (thin_ellipsoid(), 0.125),
             (unit_ball, 0.4))
    assert transport._next_fast_len(2 * 7 - 1) == 14
    assert build_spatial(unit_ball, 0.4).box_shape == (7, 7, 7)
    for domain, h in cases:
        grid = build_spatial(domain, h)
        for beta in (0.0, 1.3, 20.0):
            op = AttenuationOperator(grid, beta)
            full = _circular_stencil_transform(grid, beta, op.fshape)
            assert op.kernel_hat.dtype == np.float64
            assert op.kernel_hat.shape == tuple(L // 2 + 1 for L in op.fshape)
            # |transform| <= the stencil's L1 norm, which is its DC value.
            scale = full[0, 0, 0].real
            assert np.max(np.abs(full.imag)) <= 1e-14 * scale, (h, beta)
            mirror = np.ix_(*(np.minimum(np.arange(L), L - np.arange(L)) for L in op.fshape[:2]))
            assert np.max(np.abs(full.real - op.kernel_hat[mirror])) <= 1e-14 * scale, (h, beta)


def _near_field_reference(grid, beta, near_range=transport.NEAR_RANGE,
                          near_subdiv=transport.NEAR_SUBDIV):
    """Per-offset loop over the near-field entries that lie inside the stencil,
    each evaluated at its |offset| per axis: the kernel depends on |x - y| only."""
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
        a = np.abs(o)
        px = a[0] * h + pts[:, None, None]
        py = a[1] * h + pts[None, :, None]
        pz = a[2] * h + pts[None, None, :]
        rr2 = px**2 + py**2 + pz**2
        val = np.mean(np.exp(-beta * np.sqrt(rr2)) / rr2)
        out[tuple(n - 1 + o)] = beta / transport.FOUR_PI * val * h**3
    return out


def _near_field_grids(unit_ball, ellipsoid_211):
    thin = build_spatial(thin_ellipsoid(), 0.125)
    assert min(np.array(thin.box_shape) - 1) < transport.NEAR_RANGE
    return build_spatial(unit_ball, 0.125), build_spatial(ellipsoid_211, 0.25), thin


def test_near_field_matches_loop_reference(unit_ball, ellipsoid_211):
    # The stencil evaluates the near-field samples on the octant of offsets
    # >= 0 in the loop's order, so every entry is the loop's to the last bit.
    for grid in _near_field_grids(unit_ball, ellipsoid_211):
        for beta in (0.3, 1.7, 20.0):
            stencil = attenuation_stencil(grid, beta)
            ref = _near_field_reference(grid, beta)
            assert len(ref) > 0
            for index, value in ref.items():
                assert stencil[index] == value


def test_stencil_equals_its_axis_flips(unit_ball, ellipsoid_211):
    # The stencil is its octant mirrored, so I - K is symmetric to the last
    # bit on every grid.
    flips = [axes for k in (1, 2, 3) for axes in itertools.combinations(range(3), k)]
    for grid in _near_field_grids(unit_ball, ellipsoid_211):
        for beta in (0.3, 1.7, 20.0):
            stencil = attenuation_stencil(grid, beta)
            for axes in flips:
                assert np.array_equal(stencil, np.flip(stencil, axes)), (beta, axes)


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
            stencil = attenuation_stencil(grid, beta)
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


# Absorption tables of the interpolation tests: the acceptance suite's mild
# profile, test_spectral_equilibrium's wide one (0.02-1.2) and one spanning
# 0.6-4.9 on the grid, which takes two intervals.
RATE_TABLES = {
    "mild": ([0.01, 5.0, 60.0], [1.25, 1.0, 0.75]),
    "wide": ([0.01, 1.0, 5.0, 20.0, 60.0], [1.2, 1.0, 0.5, 0.1, 0.02]),
    "steep": ([0.01, 50.0], [4.9, 0.6]),
}


@pytest.mark.parametrize("table", sorted(RATE_TABLES))
def test_weighted_apply_interpolation_within_young_bound(unit_ball, table):
    grid = build_spatial(unit_ball, 0.2)
    sgrid = build_spectral(1.0, 32)
    alphas = AbsorptionProfile.table(*RATE_TABLES[table])(sgrid.nodes)
    plan = transport.rate_interpolation(grid, alphas)
    assert plan is not None and plan.nodes.size < np.unique(alphas).size
    assert plan.bound <= transport.RATE_L1_TOL
    if table == "steep":
        assert len(plan.nodes_per_interval) > 1
    rng = np.random.default_rng(17)
    fields = rng.random((alphas.size, grid.n_nodes)) * rng.uniform(0.1, 10.0, (alphas.size, 1))
    weights = sgrid.weights * alphas
    exact = weights @ apply_attenuation_batch(grid, alphas, fields)
    fused = apply_attenuation_batch(grid, alphas, fields, weights=weights)
    # Young: |sum_j w_j (K~_j - K_j) f_j| <= bound * sum_j |w_j| ||f_j||_inf.
    scale = float(np.sum(np.abs(weights) * np.max(np.abs(fields), axis=1)))
    assert np.max(np.abs(fused - exact)) <= plan.bound * scale
    masses = np.stack([attenuation_operator(grid, a).row_mass() for a in alphas], axis=1)
    assert np.max(np.abs(transport.summed_row_masses(grid, alphas) - masses)) <= plan.bound


def _grouped_weighted_reference(grid, betas, fields, weights):
    """The exact weighted path: channels summed per distinct rate, one forward
    transform per rate, the products summed in Fourier space, one inverse."""
    uniq, group = np.unique(betas, return_inverse=True)
    summed = np.zeros((uniq.size, grid.n_nodes))
    np.add.at(summed, group, weights[:, None] * fields)
    live = uniq > 0.0
    ops = [attenuation_operator(grid, u) for u in uniq[live]]
    boxes = np.zeros((len(ops),) + grid.box_shape)
    boxes.reshape(len(ops), -1)[:, grid.flat_index] = summed[live]
    fshape = ops[0].fshape
    fhat = np.fft.rfftn(boxes, s=fshape, axes=(-3, -2, -1))
    # The kernel's transform is even: frequency k reads kernel_hat at min(k, L - k).
    mirror = np.ix_(*(np.minimum(np.arange(L), L - np.arange(L)) for L in fshape[:2]))
    for k, op in enumerate(ops):
        fhat[k] *= op.kernel_hat[mirror]
    full = np.fft.irfftn(0.0 + fhat.sum(axis=0), s=fshape, axes=(-3, -2, -1))
    # The kernel sits at offset 0 of the cycle: the box is the crop [0, n).
    nx, ny, nz = grid.box_shape
    return full[:nx, :ny, :nz].reshape(-1)[grid.flat_index]


def test_weighted_apply_one_or_two_rates_is_exact(unit_ball):
    grid = build_spatial(unit_ball, 0.2)
    sgrid = build_spectral(1.0, 32)
    rng = np.random.default_rng(23)
    fields = rng.random((sgrid.n_nodes, grid.n_nodes))
    for profile in (AbsorptionProfile.constant(1.3),
                    AbsorptionProfile.table([1.0, 1.0 + 1e-9], [0.4, 2.1])):
        alphas = profile(sgrid.nodes)
        assert np.unique(alphas).size == (1 if profile.is_constant else 2)
        assert transport.rate_interpolation(grid, alphas) is None
        weights = sgrid.weights * alphas
        fused = apply_attenuation_batch(grid, alphas, fields, weights=weights)
        assert np.array_equal(fused, _grouped_weighted_reference(grid, alphas, fields, weights))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_operator_holds_only_its_transform(unit_ball):
    grid = build_spatial(unit_ball, 0.125)
    op = AttenuationOperator(grid, 1.3)
    held = sum(v.nbytes for v in vars(op).values() if isinstance(v, np.ndarray))
    Lx, Ly, Lz = op.fshape
    assert held == op.kernel_hat.nbytes == 8 * (Lx // 2 + 1) * (Ly // 2 + 1) * (Lz // 2 + 1)


def _half_spectrum_bytes(op):
    """The unit of the apply peaks: one complex half-spectrum at the cyclic shape,
    what np.fft.rfftn of a field returns."""
    Lx, Ly, Lz = op.fshape
    return 16 * Lx * Ly * (Lz // 2 + 1)


def test_weighted_apply_memory_peak(unit_ball):
    # Each rate node's product is added into one Fourier-space sum, inverted
    # in place: besides the (K, M) node sums the traced peak stays below
    # three half-spectra, whatever K (transforming all K nodes at once peaked
    # at 17 here).
    grid = build_spatial(unit_ball, 0.125)
    sgrid = build_spectral(1.0, 32)
    alphas = AbsorptionProfile.table(*RATE_TABLES["mild"])(sgrid.nodes)
    fields = np.random.default_rng(29).random((alphas.size, grid.n_nodes))
    weights = sgrid.weights * alphas
    first = apply_attenuation_batch(grid, alphas, fields, weights=weights)  # fills the caches
    plan = transport.rate_interpolation(grid, alphas)
    assert plan.nodes.size >= 8
    transform = _half_spectrum_bytes(attenuation_operator(grid, plan.nodes[0]))
    out = []
    peak = _traced_peak(lambda: out.append(
        apply_attenuation_batch(grid, alphas, fields, weights=weights)))
    assert np.array_equal(out[0], first)
    assert peak < 3 * transform + plan.nodes.size * grid.n_nodes * 8, peak / transform


def test_per_channel_apply_memory_peak(unit_ball):
    # Each channel's product is inverted at once, in place: besides the
    # (C, M) output the traced peak stays within three half-spectra, whatever
    # C (transforming a chunk of all C channels at once held C of them).
    grid = build_spatial(unit_ball, 0.125)
    sgrid = build_spectral(1.0, 32)
    alphas = AbsorptionProfile.table(*RATE_TABLES["mild"])(sgrid.nodes)
    fields = np.random.default_rng(31).random((alphas.size, grid.n_nodes))
    first = apply_attenuation_batch(grid, alphas, fields)  # fills the operator cache
    transform = _half_spectrum_bytes(attenuation_operator(grid, alphas[0]))
    out = []
    peak = _traced_peak(lambda: out.append(apply_attenuation_batch(grid, alphas, fields)))
    assert np.array_equal(out[0], first)
    assert peak <= 3 * transform + fields.nbytes, peak / transform


def test_rate_plan_memory_peak(unit_ball, monkeypatch):
    # Trial nodes are evaluated as octants, without keeping near-field
    # samples, and only the chosen nodes' operators are built, after the
    # exact octants are freed: seeding operators from kept samples peaked at
    # 12.2 MB here.
    grid = build_spatial(unit_ball, 0.125)
    alphas = AbsorptionProfile.table(*RATE_TABLES["mild"])(build_spectral(1.0, 32).nodes)
    monkeypatch.setattr(transport, "_PLAN_CACHE", OrderedDict())
    monkeypatch.setattr(transport, "_OPERATOR_CACHE", OrderedDict())
    peak = _traced_peak(lambda: transport.rate_interpolation(grid, alphas))
    assert peak < 4 << 20, peak / 1e6
    plan = transport.rate_interpolation(grid, alphas)
    assert plan.nodes.size == 10
    assert list(transport._OPERATOR_CACHE) == [(grid.token, b) for b in plan.nodes.tolist()]
    # The plan builds its operators from its own octants, bit for bit those
    # of a cold build.
    for b in plan.nodes:
        cold = transport.AttenuationOperator(grid, b)
        assert np.array_equal(transport._OPERATOR_CACHE[grid.token, b].kernel_hat, cold.kernel_hat)


def test_rate_plan_setup_counted(unit_ball, monkeypatch):
    # The plan builds the stencil geometry once and evaluates every distinct
    # rate's octant and every trial node's octant once on it; it builds the
    # chosen nodes' operators from its octants, so no octant is evaluated
    # again (the 10 chosen nodes were evaluated twice before, and every
    # evaluation rebuilt its geometry).
    grid = build_spatial(unit_ball, 0.125)
    alphas = AbsorptionProfile.table(*RATE_TABLES["mild"])(build_spectral(1.0, 32).nodes)
    for cache in ("_PLAN_CACHE", "_OPERATOR_CACHE"):
        monkeypatch.setattr(transport, cache, OrderedDict())
    builds, evaluated = [], []
    build, parts = transport._stencil_geometry, transport._stencil_parts
    monkeypatch.setattr(transport, "_stencil_geometry",
                        lambda g: builds.append(g.token) or build(g))
    monkeypatch.setattr(transport, "_stencil_parts",
                        lambda g, b, geom: evaluated.append(float(b)) or parts(g, b, geom))
    first = transport.summed_row_masses(grid, alphas)
    plan = transport.rate_interpolation(grid, alphas)
    assert builds == [grid.token]
    assert len(set(evaluated)) == len(evaluated)
    assert set(np.unique(alphas).tolist()) <= set(evaluated)
    assert set(plan.nodes.tolist()) <= set(evaluated)
    assert len(evaluated) > np.unique(alphas).size + plan.nodes.size  # some trials failed
    assert all((grid.token, b) in transport._OPERATOR_CACHE for b in plan.nodes.tolist())
    count = len(evaluated)
    assert np.array_equal(transport.summed_row_masses(grid, alphas), first)
    assert len(evaluated) == count and builds == [grid.token]


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
    """The eight-gather trilinear sweep that the sparse operators replaced, on
    a design of its own: the rays of direction i from every node, with the
    sweeper's path lengths, summed by ``_chord_integrals_reference``."""
    s = sweeper.path_lengths(i)
    channels = box if box.ndim == 4 else box[..., None]
    rates_c = np.broadcast_to(np.asarray(rates, dtype=float), channels.shape[3:])
    contrib = _chord_integrals_reference(sweeper.grid, channels, sweeper.grid.centers, s,
                                         sweeper.angular.nodes[i], rates_c, sweeper.ray_h)
    return (contrib[:, 0] if np.ndim(rates) == 0 else contrib), s


def test_line_integrals_match_gather_reference(unit_ball, ellipsoid_211):
    # Same samples and weights as the gather sweep, for every direction,
    # whether it owns its design or reads its orbit representative's through
    # a mirror; only the summation order differs, so agreement is to rounding.
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
        for i in range(ang.n_nodes):
            # Mirrored lengths are the direct ones to a few ulps.
            direct = geometry.exit_lengths(domain, grid.centers, ang.nodes[i])
            assert np.max(np.abs(sweeper.path_lengths(i) - direct)) <= 8 * np.spacing(
                np.max(direct))
        for ndim, rates in cases:
            channels = () if ndim == 3 else (np.size(rates),)
            box = grid.embed(rng.random((grid.n_nodes,) + channels))
            for i in sweeper.orbit_order():
                got, s = sweeper.line_integrals(i, box, rates)
                ref, s_ref = _gather_line_integrals_reference(sweeper, i, box, rates)
                assert got.shape == ref.shape == (grid.n_nodes,) + channels
                assert np.array_equal(s, s_ref)
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


def test_mirror_orbits_of_the_lattice(unit_ball):
    # The sharing rests on build_spatial centring the lattice on the body and
    # on build_angular grids being closed under sign flips of the axes.
    def orbits(domain, h, ang):
        rep, mirror, order = transport._mirror_orbits(build_spatial(domain, h), ang)
        assert np.array_equal(np.sort(order), np.arange(ang.n_nodes))
        assert np.all(np.diff(rep[order]) >= 0) and np.all(rep[rep] == rep)
        return np.bincount(rep)[np.unique(rep)], {m[0] for m in mirror if m is not None}

    sizes, flips = orbits(unit_ball, 0.125, build_angular(8, 16))
    assert sizes.tolist() == [8] * 16 and len(flips) == 7
    # An odd azimuth count has no x flip: the y and z flips, a group of 4.
    sizes, flips = orbits(unit_ball, 0.25, build_angular(3, 5))
    assert max(sizes) == 4 and flips == {(1,), (2,), (1, 2)}

    # One pass over every direction in orbit order at one shared rate builds
    # one design and one operator per orbit.
    grid = build_spatial(unit_ball, 0.25)
    ang = build_angular(4, 8)
    sweeper = RaySweeper(unit_ball, grid, ang, ray_h=0.1, cache_bytes=0)
    built = []
    sweeper._ray_design = lambda *args, real=sweeper._ray_design: built.append(1) or real(*args)
    box = grid.embed(np.random.default_rng(3).random((grid.n_nodes, 2)))
    for i in sweeper.orbit_order():
        sweeper.line_integrals(i, box, np.full(2, 0.8))
    assert len(built) == ang.n_nodes // 8

    # Off centre, the lattice's mask is not symmetric: every direction is its
    # own orbit and reads the direct path lengths.
    domain = ConvexDomain.ball([0.3, -0.2, 0.1], 1.3)
    grid = build_spatial(domain, 0.1)
    rep, mirror, _ = transport._mirror_orbits(grid, ang)
    assert np.array_equal(rep, np.arange(ang.n_nodes)) and mirror == [None] * ang.n_nodes
    sweeper = RaySweeper(domain, grid, ang, ray_h=0.2)
    rates = np.array([0.5, 0.5, 1.5])
    box = grid.embed(np.random.default_rng(5).random((grid.n_nodes, rates.size)))
    for i in range(0, ang.n_nodes, 3):
        got, s = sweeper.line_integrals(i, box, rates)
        ref, _ = _gather_line_integrals_reference(sweeper, i, box, rates)
        assert np.array_equal(s, geometry.exit_lengths(domain, grid.centers, ang.nodes[i]))
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


def test_line_integrals_same_with_and_without_design_cache(unit_ball):
    # A caching sweeper and a one-pass one (cache_bytes=0) build the same
    # design, so their line integrals agree bit for bit, before and after
    # the cache is filled.
    rng = np.random.default_rng(23)
    ang = build_angular(4, 8)
    grid = build_spatial(unit_ball, 0.25)
    cached = RaySweeper(unit_ball, grid, ang, ray_h=0.1)
    one_pass = RaySweeper(unit_ball, grid, ang, ray_h=0.1, cache_bytes=0)
    for rates in (np.full(4, 1.0), np.array([0.7, 2.0, 0.7, 0.0])):
        box = grid.embed(rng.random((grid.n_nodes, rates.size)))
        for i in range(ang.n_nodes):
            want, s = one_pass.line_integrals(i, box, rates)
            for _ in range(2):
                got, s_got = cached.line_integrals(i, box, rates)
                assert np.array_equal(got, want) and np.array_equal(s_got, s)
    # One design per orbit: all eight sign flips map this lattice onto itself.
    assert len(cached._cache) == ang.n_nodes // 8 and not one_pass._cache


def test_rate_change_rebuilds_held_sweep(unit_ball):
    # Two shared rates, several channels each, alternate within every orbit:
    # the orbit's held sweep R_u G is rebuilt at each change of rate, as a
    # fresh sweeper's first call builds it.
    rng = np.random.default_rng(29)
    ang = build_angular(4, 8)
    grid = build_spatial(unit_ball, 0.25)
    sweeper = RaySweeper(unit_ball, grid, ang, ray_h=0.1, cache_bytes=0)
    box = grid.embed(rng.random((grid.n_nodes, 3)))
    for i in sweeper.orbit_order():
        for rates in (np.full(3, 0.4), np.full(3, 2.5), np.full(3, 0.4)):
            got, _ = sweeper.line_integrals(i, box, rates)
            want, _ = RaySweeper(unit_ball, grid, ang, ray_h=0.1).line_integrals(i, box, rates)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


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
    assert np.min(_apply(grid, 1.0, w)) >= 0.0


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


def _scaled_spatial(grid, factor):
    """Reference: the same lattice with all coordinates scaled by ``factor``,
    on which the unit-rate kernel is the rate-``factor`` kernel."""
    return SpatialGrid(h=grid.h * factor, origin=grid.origin * factor,
                       box_shape=grid.box_shape, inside=grid.inside,
                       centers=grid.centers * factor, flat_index=grid.flat_index,
                       token=grid.token + f"*{factor!r}")


@pytest.mark.parametrize("alpha", [0.3, 1.7, 20.0])
@pytest.mark.parametrize("body", ["unit_ball", "ellipsoid_211"])
def test_stencil_matches_scaled_unit_rate_reference(request, body, alpha):
    # The rate-alpha stencil is the unit-rate stencil of the lattice scaled
    # by alpha: (alpha/4pi) e^{-alpha r}/r^2 h^3 with r, h in original units.
    grid = build_spatial(request.getfixturevalue(body), 0.25)
    ref = attenuation_stencil(_scaled_spatial(grid, alpha), 1.0)
    np.testing.assert_allclose(attenuation_stencil(grid, alpha), ref, rtol=1e-13,
                               atol=0.0)


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
    rhs = alpha0 * _apply(_scaled_spatial(grid, alpha0), 1.0, a_field)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6 * np.max(np.abs(rhs))


# ---------------------------------------------------------------------------
# Conservation residual
# ---------------------------------------------------------------------------


def test_conservation_residual_zero_state(unit_ball):
    grid = build_spatial(unit_ball, 0.2)
    ang = build_angular(4, 8)
    sgrid = build_spectral(1.0, 16)
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.0))
    T = np.zeros(grid.n_nodes)
    res, _ = conservation_residual(T, BoundarySource.zero(), med, unit_ball,
                                   grid, ang, sgrid, representation="kernel")
    assert np.max(np.abs(res)) == 0.0


def test_conservation_residual_equilibrium_ray(unit_ball):
    # The exact equilibrium state is a fixed point of the ray-marched
    # operator to quadrature precision.
    grid = build_spatial(unit_ball, 0.15)
    ang = build_angular(6, 12)
    sgrid = build_spectral(1.0, 32)
    med = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(0.0))
    T0 = 1.0
    T = np.full(grid.n_nodes, T0)
    g = BoundarySource.equilibrium(T0)
    res, rel = conservation_residual(T, g, med, unit_ball, grid, ang, sgrid,
                                     representation="ray", ray_h=0.02)
    fT0 = spectral.emission_integral(med.absorption, T0, sgrid)
    assert np.max(np.abs(res)) <= 1e-6 * 4 * np.pi * fT0


def _collapsed_reference(grid, alpha_a, alpha_s, fT, bU, tol, max_iter=2000):
    """Reference: the former frequency-collapsed inner solve, a loop on
    U = bU + (4pi/beta) conv_beta(alpha_a f(T) + (alpha_s/4pi) U)."""
    beta = alpha_a + alpha_s
    U = np.zeros(grid.n_nodes)
    scale = max(float(np.max(np.abs(bU))) + float(np.max(np.abs(alpha_a * fT))), 1e-300)
    its = 0
    for it in range(max_iter):
        its = it + 1
        src = alpha_a * fT + (alpha_s / transport.FOUR_PI) * U
        new = bU + (transport.FOUR_PI / beta) * _apply(grid, beta, src)
        delta = float(np.max(np.abs(new - U)))
        U = new
        if delta <= tol * scale:
            break
    return U, its


@pytest.mark.parametrize("alpha_a, alpha_s", [(1.0, 0.5), (0.3, 0.4), (2.0, 1.0), (0.2, 10.0)])
def test_one_channel_inner_solve_matches_collapsed_reference(unit_ball, alpha_a, alpha_s):
    # One channel of scattered_mean_intensity (emission f(T), boundary term
    # bU) is the frequency-collapsed linear problem at fixed T for constant
    # coefficients.  Solved by ``_fixed_point`` at its default tolerance, it
    # agrees with the former collapsed Picard loop run to 1e-14.  At albedo
    # 0.98 it took 44 applies where that reference takes 651.
    grid = build_spatial(unit_ball, 0.2)
    sgrid = build_spectral(1.0, 16)
    T = 1.0 + 0.2 * grid.centers[:, 2]
    fT = spectral.emission_integral(AbsorptionProfile.constant(alpha_a), T, sgrid)
    beta = np.full(sgrid.n_nodes, alpha_a + alpha_s)
    b_freq = boundary_attenuation_nodes(unit_ball, grid, BoundarySource.equilibrium(0.8),
                                        beta, build_angular(4, 8), sgrid)
    bU = transport.FOUR_PI * b_freq @ (sgrid.weights * alpha_a)
    U_ref, its_ref = _collapsed_reference(grid, alpha_a, alpha_s, fT, bU, tol=1e-14)
    assert its_ref < 2000
    U, its = transport.scattered_mean_intensity(
        grid, np.full(1, alpha_a), np.full(1, alpha_s), fT[:, None], bU[:, None])
    assert np.max(np.abs(U[:, 0] - U_ref) / U_ref) <= 1e-10
    if alpha_s / (alpha_a + alpha_s) > 0.9:
        assert its <= 100
