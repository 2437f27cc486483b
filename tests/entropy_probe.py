"""Max-entropy boundary probe: the constant-temperature outgoing profile
carries the most entropy flow among profiles with the same outgoing radiation.

A check of the entropy functional used by criterion 09 and
``test_entropy.py``; no solver path reaches it.
"""

from __future__ import annotations

import numpy as np

from radbody.entropy import _occupancy_entropy
from radbody.quadrature import build_angular, build_spectral


def _probe_quadrature(T_ref: float, n_polar: int = 12, n_azimuth: int = 24,
                      n_freq: int = 48):
    """Outgoing-hemisphere x frequency quadrature with projected weights."""
    ang = build_angular(n_polar, n_azimuth)
    mu = ang.nodes[:, 2]
    keep = mu > 0.0
    proj_w = ang.weights[keep] * mu[keep]
    sg = build_spectral(T_ref, n_freq)
    W = np.outer(proj_w, sg.weights)  # (A+, J)
    return W, sg.nodes


def max_entropy_probe(
    i_out_target: float,
    T_ref: float,
    n_perturbations: int,
    seed: int,
    amplitude: float = 0.1,
) -> tuple[bool, float]:
    """Test that the constant-temperature boundary profile maximizes entropy.

    Builds the blackbody profile with the requested outgoing radiation, then
    compares its entropy flow against random profiles perturbed in the
    inverse-occupancy variable and rescaled to the same outgoing radiation.
    Returns (constant profile won every trial, smallest margin).
    """
    if i_out_target <= 0.0:
        raise ValueError("i_out_target must be positive")
    W, nus = _probe_quadrature(T_ref)

    def radiation(Z):
        return float(np.sum(W * 2.0 * nus**3 * Z))

    def entropy_flow(Z):
        return float(np.sum(W * 2.0 * nus**2 * _occupancy_entropy(Z)))

    # Temperature of the blackbody profile carrying i_out_target.
    lo, hi = 0.0, T_ref
    occupancy = lambda T: 1.0 / np.expm1(np.minimum(nus / T, 500.0))
    while radiation(np.broadcast_to(occupancy(hi), W.shape)) < i_out_target:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if radiation(np.broadcast_to(occupancy(mid), W.shape)) < i_out_target:
            lo = mid
        else:
            hi = mid
    T_c = 0.5 * (lo + hi)
    Y_bar = nus / T_c  # (J,)
    Z_bar = np.broadcast_to(1.0 / np.expm1(np.minimum(Y_bar, 500.0)), W.shape)
    phi_best = entropy_flow(Z_bar)

    rng = np.random.default_rng(seed)
    min_margin = np.inf
    all_win = True
    for _ in range(n_perturbations):
        xi = rng.uniform(-1.0, 1.0, size=W.shape)
        Y = np.maximum(Y_bar[None, :] * (1.0 + amplitude * xi), 1e-12)
        Z = 1.0 / np.expm1(np.minimum(Y, 500.0))
        Z *= i_out_target / radiation(Z)  # rescale back onto the constraint
        margin = phi_best - entropy_flow(Z)
        min_margin = min(min_margin, margin)
        if margin <= 0.0:
            all_win = False
    if n_perturbations == 0:
        min_margin = 0.0
    return all_win, float(min_margin)
