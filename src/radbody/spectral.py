"""Blackbody spectra and the monotone emission map, in natural units.

Natural units set h = k = c = 1, so the equilibrium radiance at frequency
``nu`` and temperature ``T`` is ``2 nu^3 / (exp(nu/T) - 1)`` and its frequency
integral is ``sigma T^4`` with ``sigma = 2 pi^4 / 15`` exactly.  Every
quantity in the package is dimensionless under this convention.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

# exp(nu/T) overflows IEEE doubles near 709; radiance is treated as zero
# beyond this ratio.  Below SERIES_RATIO the closed form loses digits and a
# short expansion of 1/expm1 is used instead.
OVERFLOW_RATIO = 700.0
SERIES_RATIO = 1e-6

DEFAULT_T_MAX = 1e6


class NonPositiveFrequency(ValueError):
    """Frequencies must be strictly positive."""


class NonPositiveTemperature(ValueError):
    """Operation requires a strictly positive temperature."""


class NegativeIntensity(ValueError):
    """Radiance values must be nonnegative."""


class EmptyGrid(ValueError):
    """A spectral grid with no nodes was supplied."""


class NotBracketable(ValueError):
    """Requested emission exceeds the cap f(T_max); cannot invert."""


def stefan_sigma() -> float:
    """Radiation constant in natural units: integral of the spectrum is sigma T^4."""
    return 2.0 * np.pi**4 / 15.0


def planck(nu, T):
    """Equilibrium spectral radiance 2 nu^3 / (exp(nu/T) - 1).

    Accepts scalars or arrays (broadcast).  Returns 0 for T = 0 and for
    ratios nu/T beyond the overflow cutoff; uses a series for tiny ratios.
    """
    nu_arr = np.asarray(nu, dtype=float)
    T_arr = np.asarray(T, dtype=float)
    if np.any(nu_arr <= 0.0):
        raise NonPositiveFrequency("planck requires nu > 0")
    nu_b, T_b = np.broadcast_arrays(nu_arr, T_arr)
    if np.all(T_arr > 0.0):
        # The common case, closed form everywhere: no masked copies.
        z = nu_b / T_b
        if z.size and SERIES_RATIO <= np.min(z) and np.max(z) <= OVERFLOW_RATIO:
            out = 2.0 * nu_arr**3 / np.expm1(z)
            return float(out) if np.isscalar(nu) and np.isscalar(T) else out
    out = np.zeros(nu_b.shape)
    pos = T_b > 0.0
    with np.errstate(divide="ignore", over="ignore"):
        z = np.where(pos, nu_b / np.where(pos, T_b, 1.0), np.inf)
    live = pos & (z <= OVERFLOW_RATIO)
    small = live & (z < SERIES_RATIO)
    main = live & ~small
    zm = z[main]
    out[main] = 2.0 * nu_b[main] ** 3 / np.expm1(zm)
    zs = z[small]
    # 1/expm1(z) = (1/z) (1 - z/2 + z^2/12 + O(z^4))
    out[small] = 2.0 * nu_b[small] ** 2 * T_b[small] * (1.0 - 0.5 * zs + zs * zs / 12.0)
    if np.isscalar(nu) and np.isscalar(T):
        return float(out)
    return out


def planck_dT(nu, T):
    """Temperature derivative of the spectral radiance; strictly positive."""
    nu_arr = np.asarray(nu, dtype=float)
    T_arr = np.asarray(T, dtype=float)
    if np.any(nu_arr <= 0.0):
        raise NonPositiveFrequency("planck_dT requires nu > 0")
    if np.any(T_arr <= 0.0):
        raise NonPositiveTemperature("planck_dT requires T > 0")
    nu_b, T_b = np.broadcast_arrays(nu_arr, T_arr)
    z = nu_b / T_b
    # exp(z)/(exp(z)-1)^2 written as exp(-z)/(1-exp(-z))^2 for stability.
    denom = -np.expm1(-np.minimum(z, OVERFLOW_RATIO))
    with np.errstate(under="ignore"):
        factor = np.exp(-z) / (denom * denom)
    out = 2.0 * nu_b**3 * (nu_b / (T_b * T_b)) * factor
    if np.isscalar(nu) and np.isscalar(T):
        return float(out)
    return out


@dataclass(frozen=True)
class AbsorptionProfile:
    """Frequency-dependent nonnegative coefficient, constant or tabulated.

    Tabulated profiles interpolate linearly between strictly increasing
    frequency nodes and clamp to the end values outside the table.
    """

    kind: str  # "constant" | "table"
    value: float = 0.0
    table_nu: np.ndarray | None = None
    table_alpha: np.ndarray | None = None

    @classmethod
    def constant(cls, value: float) -> "AbsorptionProfile":
        value = float(value)
        if value < 0.0:
            raise ValueError(f"absorption coefficient must be >= 0, got {value}")
        return cls("constant", value=value)

    @classmethod
    def table(cls, nus, alphas) -> "AbsorptionProfile":
        nus = np.asarray(nus, dtype=float)
        alphas = np.asarray(alphas, dtype=float)
        if nus.ndim != 1 or nus.shape != alphas.shape or nus.size == 0:
            raise ValueError("table needs matching 1-d frequency/value arrays")
        if np.any(np.diff(nus) <= 0.0):
            raise ValueError("table frequencies must be strictly increasing")
        if np.any(nus <= 0.0):
            raise NonPositiveFrequency("table frequencies must be positive")
        if np.any(alphas < 0.0):
            raise ValueError("table coefficients must be >= 0")
        return cls("table", table_nu=nus, table_alpha=alphas)

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def __call__(self, nu):
        nu_arr = np.asarray(nu, dtype=float)
        if self.kind == "constant":
            out = np.full(nu_arr.shape, self.value)
        else:
            out = np.interp(nu_arr, self.table_nu, self.table_alpha)
        if np.isscalar(nu):
            return float(out)
        return out

    def max_value(self) -> float:
        if self.kind == "constant":
            return self.value
        return float(np.max(self.table_alpha))

    def is_zero(self) -> bool:
        return self.max_value() == 0.0


def emission_integral(profile: AbsorptionProfile, T, spectral_grid):
    """w = integral over the grid of alpha_nu * B_nu(T); increasing in T."""
    if spectral_grid.nodes.size == 0:
        raise EmptyGrid("spectral grid has no nodes")
    alphas = profile(spectral_grid.nodes)
    T_arr = np.asarray(T, dtype=float)
    B = planck(spectral_grid.nodes, T_arr[..., None] if T_arr.ndim else T_arr)
    w = np.sum(spectral_grid.weights * alphas * B, axis=-1)
    if np.isscalar(T):
        return float(w)
    return w


def emission_slope(profile: AbsorptionProfile, T, spectral_grid):
    """d/dT of emission_integral, for Newton polishing (requires T > 0)."""
    alphas = profile(spectral_grid.nodes)
    T_arr = np.asarray(T, dtype=float)
    dB = planck_dT(spectral_grid.nodes, T_arr[..., None] if T_arr.ndim else T_arr)
    out = np.sum(spectral_grid.weights * alphas * dB, axis=-1)
    if np.isscalar(T):
        return float(out)
    return out


# The inverse emission map is read from a cubic Hermite table of log T
# against log f(T): TABLE_NODES temperatures uniform in log T, from where f is
# a deep Wien tail (T = nu_min / TABLE_COLD) up to t_max.
TABLE_NODES = 4096
TABLE_COLD = 40.0
TABLE_BLOCK = 256  # temperatures per evaluation of f and f': (256, J) temporaries


class EmissionTable:
    """Cubic Hermite interpolant of log T in log f(T) for one profile and grid.

    The slope at each node, d log T / d log f = f / (T f'(T)), comes from
    ``emission_slope``.  ``lookup`` is NaN outside [f(t_lo), f(t_max)];
    ``fallbacks`` counts the values ``invert_emission_many`` had to invert
    without the table.
    """

    def __init__(self, profile: AbsorptionProfile, spectral_grid, t_max: float):
        T = np.geomspace(spectral_grid.nodes[0] / TABLE_COLD, t_max, TABLE_NODES)
        blocks = np.array_split(T, TABLE_NODES // TABLE_BLOCK)
        f = np.concatenate([emission_integral(profile, t, spectral_grid) for t in blocks])
        slope = np.concatenate([emission_slope(profile, t, spectral_grid) for t in blocks])
        keep = (f > 0.0) & (slope > 0.0)  # a suffix: both increase with T
        self.log_f = np.log(f[keep])
        self.log_t = np.log(T[keep])
        self.dlog_t = f[keep] / (T[keep] * slope[keep])
        self.size = int(self.log_f.size)
        self.fallbacks = 0

    def lookup(self, w: np.ndarray):
        """(T, d log T / d log f) at emission values w > 0; T is NaN where w
        lies outside the table, and the slope is interpolated linearly."""
        s_w = np.log(w)
        s = np.clip(s_w, self.log_f[0], self.log_f[-1])
        i = np.clip(np.searchsorted(self.log_f, s) - 1, 0, self.size - 2)
        ds = self.log_f[i + 1] - self.log_f[i]
        t = (s - self.log_f[i]) / ds
        h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
        h01 = t * t * (3.0 - 2.0 * t)
        h10 = t * (1.0 - t) ** 2 * ds
        h11 = t * t * (t - 1.0) * ds
        y = (h00 * self.log_t[i] + h01 * self.log_t[i + 1]
             + h10 * self.dlog_t[i] + h11 * self.dlog_t[i + 1])
        slope = (1.0 - t) * self.dlog_t[i] + t * self.dlog_t[i + 1]
        return np.where(s == s_w, np.exp(y), np.nan), slope


_TABLES: "OrderedDict[tuple, EmissionTable]" = OrderedDict()
_TABLES_MAX = 8


def emission_table(profile: AbsorptionProfile, spectral_grid,
                   t_max: float = DEFAULT_T_MAX) -> EmissionTable:
    """The cached table of f(T) for the profile on the grid, up to ``t_max``."""
    qa = spectral_grid.weights * profile(spectral_grid.nodes)
    key = (spectral_grid.nodes.tobytes(), qa.tobytes(), float(t_max))
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = EmissionTable(profile, spectral_grid, t_max)
        while len(_TABLES) > _TABLES_MAX:
            _TABLES.popitem(last=False)
    return table


def invert_emission_many(
    profile: AbsorptionProfile,
    w: np.ndarray,
    spectral_grid,
    t_guess: np.ndarray | None = None,
    t_max: float = DEFAULT_T_MAX,
) -> np.ndarray:
    """Vectorized inverse of the emission map.

    Reads T from the profile's ``emission_table`` and checks every value
    with one exact evaluation of f, which also polishes it: one Newton step
    in log T against log f with the table's slope, which shrinks the
    residual to rounding level.  Values the check rejects, and values
    outside the table, are inverted by damped Newton steps from ``t_guess``
    (a previous iterate) or else by bracketing, bisection and Newton
    polishing.  Residual tolerance: |f(T) - w| <= 1e-10 w, for w down to
    about 1e-305, below which the emission terms underflow.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("invert_emission_many requires w >= 0")
    if profile.is_zero():
        raise ValueError("cannot invert emission for an identically zero profile")
    out = np.zeros(w.shape)
    live = w > 0.0
    if not np.any(live):
        return out
    wl = w[live]
    w_cap = emission_integral(profile, t_max, spectral_grid)
    if np.any(wl > w_cap):
        raise NotBracketable(f"w exceeds f(T_max={t_max:g}) = {w_cap:g}")

    table = emission_table(profile, spectral_grid, t_max)
    t, slope = table.lookup(wl)
    miss = np.isnan(t)
    hit = ~miss
    f_hit = emission_integral(profile, t[hit], spectral_grid)
    miss[hit] = ~(np.abs(f_hit - wl[hit]) <= 1e-10 * wl[hit])
    t[hit] *= np.exp(slope[hit] * np.log(wl[hit] / f_hit))
    if np.any(miss):
        table.fallbacks += int(np.count_nonzero(miss))
        guess = None if t_guess is None else np.asarray(t_guess, dtype=float)[live][miss]
        t[miss] = _invert_iteratively(profile, wl[miss], spectral_grid, guess)
    out[live] = t
    return out


def _invert_iteratively(profile, wl, spectral_grid, t_guess):
    """Invert f at w > 0 below the cap without the table (see invert_emission_many)."""
    f = lambda t: emission_integral(profile, t, spectral_grid)
    rtol = 1e-10 * wl
    t = np.zeros(wl.shape)
    open_mask = np.ones(wl.shape, dtype=bool)

    if t_guess is not None:
        # Warm path: damped Newton from the previous iterate; solver loops
        # move temperatures little between iterations.
        warm = np.isfinite(t_guess) & (t_guess > 0.0)
        tn = np.where(warm, t_guess, 1.0)
        for _ in range(12):
            resid = f(tn) - wl
            done = np.abs(resid) <= rtol
            if np.all(done | ~warm):
                break
            slope = emission_slope(profile, tn, spectral_grid)
            step = np.where(slope > 0.0, resid / np.where(slope > 0.0, slope, 1.0), np.inf)
            tn = np.clip(tn - step, 0.25 * tn, 4.0 * tn)
        good = warm & (np.abs(f(tn) - wl) <= rtol)
        t[good] = tn[good]
        open_mask &= ~good

    if np.any(open_mask):
        wl_o = wl[open_mask]
        lo = np.zeros(wl_o.shape)
        hi = np.ones(wl_o.shape)
        for _ in range(200):
            short = f(hi) < wl_o
            if not np.any(short):
                break
            lo[short] = hi[short]
            hi[short] = hi[short] * 2.0
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            below = f(mid) < wl_o
            lo[below] = mid[below]
            hi[~below] = mid[~below]
        tt = 0.5 * (lo + hi)
        for _ in range(3):
            tt = np.maximum(tt, 1e-300)
            resid = f(tt) - wl_o
            slope = emission_slope(profile, tt, spectral_grid)
            step = np.where(slope > 0.0, resid / np.where(slope > 0.0, slope, 1.0), 0.0)
            tt = np.clip(tt - step, lo, hi)
        t[open_mask] = tt
    return t


def emission_tail_bound(alpha_max: float, nu_max: float, T: float) -> float:
    """Upper bound on the emission integral truncated away above nu_max.

    Bounds the tail by alpha_max * 2 nu^3 exp(-nu/T); the Wien decay makes
    the closed form tiny for nu_max well above T.
    """
    if T <= 0.0:
        return 0.0
    a = nu_max / T
    if a > OVERFLOW_RATIO:
        return 0.0
    poly = nu_max**3 + 3.0 * nu_max**2 * T + 6.0 * nu_max * T**2 + 6.0 * T**3
    return 2.0 * alpha_max * T * np.exp(-a) * poly
