import numpy as np
import pytest

from radbody import geometry, quadrature, spectral, transport
from radbody.quadrature import (
    TooCoarse,
    build_angular,
    build_spatial,
    build_spectral,
)

SIGMA = spectral.stefan_sigma()


def test_angular_weight_sum_and_symmetry():
    ang = build_angular(8, 16)
    assert abs(np.sum(ang.weights) - 4 * np.pi) <= 1e-12
    assert np.all(ang.weights > 0)
    ang24 = build_angular(2, 4)
    assert np.max(np.abs(ang24.weights @ ang24.nodes)) <= 1e-12


def test_angular_second_moment():
    ang = build_angular(8, 16)
    rng = np.random.default_rng(1)
    for _ in range(5):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        m2 = np.sum(ang.weights * (ang.nodes @ e) ** 2)
        assert m2 == pytest.approx(4 * np.pi / 3, abs=1e-10)


def test_angular_odd_functions_vanish():
    ang = build_angular(6, 12)
    vals = ang.nodes[:, 0] ** 3 - ang.nodes[:, 2] + ang.nodes[:, 1] * ang.nodes[:, 2] ** 2
    assert abs(np.sum(ang.weights * vals)) <= 1e-12


def test_angular_too_coarse():
    with pytest.raises(TooCoarse):
        build_angular(1, 16)
    with pytest.raises(TooCoarse):
        build_angular(4, 3)


def test_spectral_stefan_and_closure():
    grid = build_spectral(1.0, 64)
    val = np.sum(grid.weights * spectral.planck(grid.nodes, 1.0))
    assert val == pytest.approx(SIGMA, rel=1e-8)
    assert abs(np.sum(grid.weights) - grid.nu_max) <= 1e-10
    assert np.all(grid.weights > 0)


def test_spectral_refinement_consistency():
    g64 = build_spectral(1.0, 64)
    g128 = build_spectral(1.0, 128)
    v64 = np.sum(g64.weights * spectral.planck(g64.nodes, 1.0))
    v128 = np.sum(g128.weights * spectral.planck(g128.nodes, 1.0))
    assert abs(v64 - v128) <= 1e-9 * abs(v128)


def test_gauss_rules_computed_once_and_read_only(monkeypatch):
    # Each degree's Gauss-Legendre rule is computed once and shared, so the
    # rule and the spectral grids built from it are read-only.
    calls = []
    leggauss = quadrature.leggauss
    monkeypatch.setattr(quadrature, "leggauss", lambda n: calls.append(n) or leggauss(n))
    quadrature.gauss_legendre.cache_clear()
    a, b = build_spectral(1.0, 32), build_spectral(1.0, 32)
    assert calls == [8]  # four panels of eight nodes, twice
    rule = quadrature.gauss_legendre(8)
    assert rule is quadrature.gauss_legendre(8)
    for x, y in zip((a.nodes, a.weights, *rule), (b.nodes, b.weights, *leggauss(8))):
        assert np.array_equal(x, y)
        assert not x.flags.writeable
    build_angular(8, 16)
    assert calls == [8]


def test_spectral_too_coarse():
    with pytest.raises(TooCoarse):
        build_spectral(1.0, 7)


def test_spatial_volume_convergence(unit_ball):
    exact = 4 * np.pi / 3
    g1 = build_spatial(unit_ball, 0.1)
    assert g1.n_nodes * g1.cell_volume == pytest.approx(exact, rel=0.05)
    g2 = build_spatial(unit_ball, 0.05)
    assert g2.n_nodes * g2.cell_volume == pytest.approx(exact, rel=0.02)
    # refinement improves the volume estimate
    e1 = abs(g1.n_nodes * g1.cell_volume - exact)
    e2 = abs(g2.n_nodes * g2.cell_volume - exact)
    assert e2 < e1


def test_spatial_interior_and_bounds(unit_ball):
    ball2 = geometry.ConvexDomain.ball([0, 0, 0], 2.0)
    g = build_spatial(ball2, 0.2)
    assert g.n_nodes > 0
    assert np.all(geometry.contains_many(ball2, g.centers))
    with pytest.raises(TooCoarse):
        build_spatial(unit_ball, 0.6)


def test_ray_nodes_examples(unit_ball):
    # The Simpson ray rule of the sweeper, read through a constant box: the
    # trilinear sampling of a constant is the constant.
    grid = build_spatial(unit_ball, 0.25)
    ang = build_angular(4, 8)
    sweeper = transport.RaySweeper(unit_ball, grid, ang, ray_h=0.005)
    box = np.ones(grid.box_shape)
    for i in (0, 9, ang.n_nodes - 1):
        s = sweeper.path_lengths(i)
        # constants are exact
        length, s_out = sweeper.line_integrals(i, box, 0.0)
        assert np.array_equal(s_out, s)
        np.testing.assert_allclose(length, s, rtol=1e-12, atol=0.0)
        # attenuation integral at the documented resolution
        att, _ = sweeper.line_integrals(i, box, 1.0)
        assert np.max(np.abs(att - (1.0 - np.exp(-s)))) <= 1e-6


def _interpolate(grid, points, box):
    """Trilinear interpolant of a box array at points, from the stencils."""
    indices, weights = grid.sample(points)
    flat = box.reshape(grid.inside.size, -1)
    return np.einsum("pc,pck->pk", weights, flat[indices]).reshape(
        (points.shape[0],) + box.shape[3:])


def _embed_reference(grid, values):
    """``SpatialGrid.embed`` as NaN-marked holes filled by rolled copies of
    the whole box, one masked sum per face neighbor and pass."""
    box = np.full(grid.box_shape + values.shape[1:], np.nan)
    box.reshape(-1, *values.shape[1:])[grid.flat_index] = values
    for _ in range(quadrature.HALO_PASSES):
        hole = np.isnan(box)
        if not np.any(hole):
            break
        acc = np.zeros(box.shape)
        counts = np.zeros(box.shape)
        for axis in range(3):
            for shift in (1, -1):
                rolled = np.roll(box, shift, axis=axis)
                # Blank the wrapped slab so the fill never crosses the box.
                sl = [slice(None)] * 3
                sl[axis] = slice(0, 1) if shift == 1 else slice(-1, None)
                rolled[tuple(sl)] = np.nan
                good = ~np.isnan(rolled)
                acc[good] += rolled[good]
                counts += good
        fill = hole & (counts > 0)
        box[fill] = acc[fill] / counts[fill]
    box[np.isnan(box)] = 0.0
    return box


def test_embed_matches_reference(unit_ball, ellipsoid_211):
    # The halo plan's gathers add the same neighbors in the same order as
    # the masked sums: equal to the last bit, for every value shape.
    rng = np.random.default_rng(17)
    off_centre = geometry.ConvexDomain.ball([0.13, -0.21, 0.07], 1.0)
    for domain in (unit_ball, off_centre, ellipsoid_211):
        for h in (0.25, 0.15, 1 / 6, 0.1):
            grid = build_spatial(domain, h)
            for tail in ((), (3,), (32,)):
                values = rng.normal(size=(grid.n_nodes,) + tail)
                box = grid.embed(values)
                assert box.shape == grid.box_shape + tail
                assert np.array_equal(box, _embed_reference(grid, values))
            # One plan per grid, kept under its token.
            assert quadrature._halo_plan(build_spatial(domain, h)) is quadrature._halo_plan(grid)


def test_embed_and_sample(unit_ball):
    g = build_spatial(unit_ball, 0.125)
    rng = np.random.default_rng(0)
    # constants are reproduced everywhere, including near the boundary hull
    box = g.embed(np.full(g.n_nodes, 7.0))
    pts = rng.normal(size=(500, 3))
    pts = 0.999 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.random((500, 1)) ** (1 / 3)
    assert np.max(np.abs(_interpolate(g, pts, box) - 7.0)) <= 1e-12
    # linear fields are reproduced in the interior
    c = np.array([1.0, -2.0, 0.5])
    box = g.embed(g.centers @ c)
    inner = pts * 0.5
    assert np.max(np.abs(_interpolate(g, inner, box) - inner @ c)) <= 1e-12
    # sampling at nodes returns node values exactly, for every channel
    vals = rng.random((g.n_nodes, 3))
    box = g.embed(vals)
    assert np.max(np.abs(_interpolate(g, g.centers, box) - vals)) <= 1e-12
    # every point holds one cell's 8 corners, as int32, with weights summing to one
    indices, weights = g.sample(pts)
    assert indices.shape == weights.shape == (pts.shape[0], 8)
    assert indices.dtype == np.int32
    cell = np.stack(np.unravel_index(indices, g.box_shape), axis=-1)  # (P, 8, 3)
    corner = np.stack(np.meshgrid([0, 1], [0, 1], [0, 1], indexing="ij"), axis=-1)
    assert np.array_equal(cell - cell[:, :1], np.broadcast_to(corner.reshape(8, 3), cell.shape))
    assert np.all(weights >= 0.0)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=1e-14)
