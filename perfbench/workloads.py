"""Seeded `radbody solve` configs for the benchmark workloads.

Every workload solves on the unit ball with an 8x16 angular grid, 32
frequencies and ``t_ref = 1``.  The seed draws only physical inputs from
fixed ranges; grid sizes, tolerances and iteration caps never depend on it.
"""

from __future__ import annotations

import random

WORKLOADS = ("spectral-eq", "grey-beam-entropy", "grey-thick")

# Why each workload exists, and the layer it is chosen to load.
WHY = {
    "spectral-eq": "batched multi-channel FFT convolution and emission inversion; "
                   "almost no ray work",
    "grey-beam-entropy": "ray sweeps of the entropy report; the grey solve and "
                         "convolution barely run",
    "grey-thick": "single-channel convolution applied ~1950 times by Picard; "
                  "iteration count sets the time",
}

# Nominal inputs.  The absorption table is the acceptance suite's mild
# profile; the beam is criterion 08's anisotropic tabulated source.
MILD_TABLE = [[0.01, 1.25], [5.0, 1.0], [60.0, 0.75]]
BEAM_SPECTRUM = [[0.5, 0.5], [1.0, 1.0], [3.0, 0.7], [10.0, 0.05]]
BEAM_PROFILE = [[-1.0, 1.6], [-0.2, 0.2], [0.2, 0.2], [1.0, 1.6]]

# Seed ranges.  T_b <= t_ref keeps the spectral truncation promise.  Ranges
# that change the iteration count are kept narrow, so that the seed does not
# become the main source of spread in run time: +-10% on the absorption table
# moves the spectral solve between 31 and 34 iterations (+-2% keeps it at
# 31-32), and the thick case's Picard count grows with alpha*R.
BOUNDARY_T = (0.8, 1.0)
TABLE_JITTER = 0.02
PROFILE_JITTER = 0.10
THICK_ALPHA_R = (19.8, 20.2)

DEFAULT_SEED = 20261017


def _base(h: float, tiny: bool) -> dict:
    grids = {
        "spatial": {"h": 0.25 if tiny else h},
        "angular": {"n_polar": 4, "n_azimuth": 8} if tiny else {"n_polar": 8, "n_azimuth": 16},
        "spectral": {"n_nodes": 32, "t_ref": 1.0},
    }
    return {"domain": {"shape": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
            "grids": grids}


def make_config(name: str, seed: int, tiny: bool = False) -> dict:
    """The config a workload hands to ``radbody solve`` for one seed.

    ``tiny`` swaps in coarse grids, for smoke tests only.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    if name == "spectral-eq":
        cfg = _base(0.125, tiny)
        table = [[nu, a * rng.uniform(1 - TABLE_JITTER, 1 + TABLE_JITTER)]
                 for nu, a in MILD_TABLE]
        cfg["medium"] = {"absorption": {"table": table}}
        cfg["boundary"] = {"kind": "equilibrium", "temperature": rng.uniform(*BOUNDARY_T)}
        cfg["solver"] = {"mode": "spectral", "tol": 1e-9}
        cfg["output"] = {"entropy": False}
    elif name == "grey-beam-entropy":
        cfg = _base(0.125, tiny)
        cfg["grids"]["ray"] = {"h": 0.25 if tiny else 0.125}
        profile = [[mu, a * rng.uniform(1 - PROFILE_JITTER, 1 + PROFILE_JITTER)]
                   for mu, a in BEAM_PROFILE]
        cfg["medium"] = {"absorption": 1.0}
        cfg["boundary"] = {"kind": "tabulated", "spectrum": BEAM_SPECTRUM,
                           "axis": [0.0, 0.0, 1.0], "angular_profile": profile}
        cfg["solver"] = {"mode": "grey", "tol": 1e-10}
        cfg["output"] = {"entropy": True}
    else:
        cfg = _base(0.2, tiny)
        cfg["medium"] = {"absorption": rng.uniform(*THICK_ALPHA_R)}
        cfg["boundary"] = {"kind": "equilibrium", "temperature": rng.uniform(*BOUNDARY_T)}
        cfg["solver"] = {"mode": "grey", "tol": 1e-8, "max_iter": 5000}
        cfg["output"] = {"entropy": False}
    return cfg
