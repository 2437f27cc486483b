import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from radbody import spectral
from radbody.quadrature import build_spectral
from radbody.spectral import AbsorptionProfile

SIGMA = 2.0 * math.pi**4 / 15.0


def test_planck_examples():
    assert spectral.planck(1.0, 0.0) == 0.0
    # closed form 2/(e - 1)
    assert spectral.planck(1.0, 1.0) == pytest.approx(2.0 / (math.e - 1.0), rel=1e-15)
    # long-wavelength limit: planck / (2 nu^2 T) -> 1
    T = 1e8
    assert spectral.planck(1.0, T) / (2.0 * T) == pytest.approx(1.0, rel=1e-7)
    # overflow cutoff
    assert spectral.planck(1000.0, 1.0) == 0.0
    with pytest.raises(spectral.NonPositiveFrequency):
        spectral.planck(0.0, 1.0)


def test_planck_monotone_in_T():
    rng = np.random.default_rng(3)
    nu = rng.uniform(0.05, 20.0, 500)
    T1 = rng.uniform(0.05, 5.0, 500)
    T2 = T1 * rng.uniform(1.001, 2.0, 500)
    assert np.all(spectral.planck(nu, T2) > spectral.planck(nu, T1))


def test_planck_dT_examples():
    rng = np.random.default_rng(11)
    nu = rng.uniform(0.1, 10.0, 400)
    T = rng.uniform(0.1, 10.0, 400)
    assert np.all(spectral.planck_dT(nu, T) > 0.0)
    # central finite differences, h = 1e-6 T
    h = 1e-6
    fd = (spectral.planck(1.0, 1.0 + h) - spectral.planck(1.0, 1.0 - h)) / (2 * h)
    assert spectral.planck_dT(1.0, 1.0) == pytest.approx(fd, rel=1e-6)
    # deep Wien tail underflows to zero
    assert spectral.planck_dT(1000.0, 1.0) == pytest.approx(0.0, abs=1e-280)
    with pytest.raises(spectral.NonPositiveTemperature):
        spectral.planck_dT(1.0, 0.0)


def test_planck_dT_lattice_fd():
    nus = np.array([0.2, 0.7, 1.0, 3.0, 8.0])
    Ts = np.array([0.3, 1.0, 2.5, 7.0])
    for nu in nus:
        for T in Ts:
            h = 1e-6 * T
            fd = (spectral.planck(nu, T + h) - spectral.planck(nu, T - h)) / (2 * h)
            assert spectral.planck_dT(nu, T) == pytest.approx(fd, rel=1e-5)


def test_stefan_sigma_identity():
    assert spectral.stefan_sigma() == SIGMA
    # adaptive-quadrature oracle for the frequency integral
    val, err = scipy_quad(lambda nu: spectral.planck(nu, 1.0), 0.0, np.inf, limit=300)
    assert val == pytest.approx(SIGMA, rel=1e-8)
    val2, _ = scipy_quad(lambda nu: spectral.planck(nu, 2.0), 0.0, np.inf, limit=300)
    assert val2 == pytest.approx(16.0 * SIGMA, rel=1e-8)


def test_absorption_profile_validation():
    with pytest.raises(ValueError):
        AbsorptionProfile.constant(-1.0)
    with pytest.raises(ValueError):
        AbsorptionProfile.table([1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        AbsorptionProfile.table([1.0, 2.0], [0.5, -0.5])
    prof = AbsorptionProfile.table([1.0, 2.0, 4.0], [1.0, 0.5, 0.25])
    assert prof(1.5) == pytest.approx(0.75)
    assert prof(0.1) == 1.0   # clamped below
    assert prof(10.0) == 0.25  # clamped above


def test_emission_integral_examples():
    grid = build_spectral(1.0, 64)
    prof = AbsorptionProfile.constant(1.0)
    assert spectral.emission_integral(prof, 0.0, grid) == 0.0
    w1 = spectral.emission_integral(prof, 1.0, grid)
    assert w1 == pytest.approx(SIGMA, rel=1e-6)
    grid2 = build_spectral(2.0, 64)
    w2 = spectral.emission_integral(prof, 2.0, grid2)
    assert w2 == pytest.approx(16.0 * w1, rel=1e-6)
    with pytest.raises(spectral.EmptyGrid):
        spectral.emission_integral(prof, 1.0, type("G", (), {"nodes": np.array([])})())


def test_emission_integral_strictly_increasing():
    grid = build_spectral(1.0, 32)
    prof = AbsorptionProfile.table([0.1, 10.0, 50.0], [0.2, 1.0, 0.1])
    Ts = np.linspace(0.05, 4.0, 40)
    vals = spectral.emission_integral(prof, Ts, grid)
    assert np.all(np.diff(vals) > 0.0)


def test_invert_emission_examples():
    grid = build_spectral(1.0, 64)
    prof = AbsorptionProfile.constant(1.0)
    w = spectral.emission_integral(prof, 1.7, grid)
    T = spectral.invert_emission_many(prof, np.array([0.0, w, SIGMA]), grid)
    assert T[0] == 0.0
    assert T[1] == pytest.approx(1.7, abs=1e-9)
    assert T[2] == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(spectral.NotBracketable):
        spectral.invert_emission_many(prof, np.array([1e40]), grid, t_max=10.0)


def test_invert_emission_residual_and_warm_start():
    grid = build_spectral(1.0, 48)
    prof = AbsorptionProfile.table([0.1, 5.0, 50.0], [1.0, 0.6, 0.05])
    rng = np.random.default_rng(2)
    T_true = rng.uniform(0.01, 6.0, 200)
    w = spectral.emission_integral(prof, T_true, grid)
    T_cold = spectral.invert_emission_many(prof, w, grid)
    np.testing.assert_allclose(T_cold, T_true, rtol=1e-8)
    guess = T_true * rng.uniform(0.9, 1.1, 200)
    T_warm = spectral.invert_emission_many(prof, w, grid, t_guess=guess)
    resid = np.abs(spectral.emission_integral(prof, T_warm, grid) - w)
    assert np.all(resid <= 1e-10 * w)


INVERSION_PROFILES = {
    "constant": AbsorptionProfile.constant(1.0),
    "mild": AbsorptionProfile.table([0.01, 5.0, 60.0], [1.25, 1.0, 0.75]),
    "table": AbsorptionProfile.table([0.1, 5.0, 50.0], [1.0, 0.6, 0.05]),
}
INVERSION_GRID = build_spectral(1.0, 32)
INVERSION_T_MAX = 20.0


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(INVERSION_PROFILES)),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
       exponents=st.lists(st.floats(-250.0, 3.0), min_size=1, max_size=30),
       guess=st.one_of(st.none(), st.floats(0.01, 30.0)),
       excess=st.floats(1.0 + 1e-9, 10.0))
# Below w = 1 an absolute tolerance once let this w = 5.9e-22 invert to a T
# with f(T) = 8.4e-11, above the T of w = 5.9e-11.
@example(name="constant", fractions=[0.0], exponents=[-21.229, -10.229], guess=0.03125,
         excess=2.0)
def test_invert_emission_many_properties(name, fractions, exponents, guess, excess):
    prof, grid = INVERSION_PROFILES[name], INVERSION_GRID
    cap = spectral.emission_integral(prof, INVERSION_T_MAX, grid)
    # w over {0} and [1e-250, f(t_max)]: uniform fractions, and powers of ten
    # from 1e-250, far below the table's coldest entry, to 1e3.
    w = np.concatenate([cap * np.array(fractions), 10.0 ** np.array(exponents)])
    w = np.sort(np.where(w < 1e-250, 0.0, w))
    table = spectral.emission_table(prof, grid, INVERSION_T_MAX)
    off_table = int(np.count_nonzero(np.log(w[w > 0.0]) < table.log_f[0]))
    before = table.fallbacks
    t_guess = None if guess is None else np.full(w.shape, guess)
    T = spectral.invert_emission_many(prof, w, grid, t_guess=t_guess, t_max=INVERSION_T_MAX)
    assert table.fallbacks - before >= off_table
    tol = 1e-10 * w
    assert np.all(np.abs(spectral.emission_integral(prof, T, grid) - w) <= tol)
    # T is non-decreasing wherever w determines it: across gaps in w wider
    # than the two relative residual tolerances, and between table values,
    # to the table's accuracy of ~1e-10.
    dT = np.diff(T)
    assert np.all(dT[np.diff(w) > tol[:-1] + tol[1:]] >= 0.0)
    on_table = np.log(np.maximum(w, 1e-300)) >= table.log_f[0]
    both = on_table[:-1] & on_table[1:]
    assert np.all(dT[both] >= -1e-9 * T[1:][both])
    with pytest.raises(spectral.NotBracketable):
        spectral.invert_emission_many(prof, np.append(w, cap * excess), grid,
                                      t_max=INVERSION_T_MAX)


def test_truncation_tail_bound():
    # Tail above nu_max = 50 T_max is negligible against the total emission.
    for T in (0.5, 1.0, 2.0):
        nu_max = 50.0 * 2.0  # grid built for T_max = 2
        tail = spectral.emission_tail_bound(1.0, nu_max, T)
        assert tail <= 1e-8 * SIGMA * T**4


def test_emission_table_memory_peak():
    # f and f' are evaluated on blocks of TABLE_BLOCK temperatures; on
    # (TABLE_NODES, J) arrays the build's traced peak was 6.1 MiB at J = 32.
    sgrid = build_spectral(1.0, 32)
    profile = AbsorptionProfile.table([0.01, 5.0, 60.0], [1.25, 1.0, 0.75])
    tracemalloc.start()
    try:
        table = spectral.EmissionTable(profile, sgrid, spectral.DEFAULT_T_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.size > 0
    assert peak < 1 << 20, peak / (1 << 20)
