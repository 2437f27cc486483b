"""Batch interface: solve, validate, oracle, and entropy subcommands.

Configs are single YAML documents; see README for the full schema.  Runs
write a plain-CSV node table, a JSON run report embedding the fully resolved
config, and optionally a binary field dump that round-trips bit-exactly.

Exit codes: 0 success, 1 usage/config error, 2 non-convergence, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
import time

import numpy as np
import yaml

from radbody import entropy as entropy_mod
from radbody import geometry, solvers, spectral, transport
from radbody.geometry import ConvexDomain
from radbody.quadrature import (build_angular, build_spatial, build_spectral, check_spacing,
                                single_frequency_grid, spectral_cutoff)
from radbody.solvers import Grids, Solution
from radbody.spectral import AbsorptionProfile
from radbody.transport import FOUR_PI, BoundarySource, MediumSpec

DUMP_MAGIC = b"RBFLD001"

# The emission cut off above the spectral grid, bounded by
# spectral.emission_tail_bound at the hottest node, must stay below this
# fraction of f(T) there; the README promises it for temperatures up to t_ref.
SPECTRAL_TAIL_LIMIT = 1e-8
# The grid's f(T) at the hottest node may differ from the reference
# 64-node grid at that temperature by at most this fraction of the reference:
# beyond it the grid misses the Planck peak (t_ref far above the body).
SPECTRAL_HEAD_LIMIT = 0.5
# The largest kernel rate times h may not exceed this: in optically thicker
# cells the lattice kernel loses its diffusion limit and T goes wrong with
# exit 0.  Grey equilibrium at T 0.9, h 0.2: beta h 10 is 4.6e-6 off, 20 is
# 6.7e-3 and 40 is 42 % off.
BETA_H_LIMIT = 12.5


class ConfigInvalid(ValueError):
    """Configuration rejected; the message names the offending key."""


class ArtifactUnreadable(ValueError):
    """A field dump could not be parsed."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "domain": {"shape": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0, "semi_axes": None},
    "medium": {"absorption": 0.0, "scattering": 0.0, "kernel": "isotropic"},
    "boundary": {"kind": "zero"},
    "grids": {
        "spatial": {"h": 0.1},
        "angular": {"n_polar": 8, "n_azimuth": 16},
        "spectral": {"n_nodes": 32, "t_ref": 1.0},
        "ray": {"h": None},
    },
    "solver": {"mode": "grey", "tol": 1e-8, "max_iter": 500},
    "oracle": {"tolerance": 5e-3},
    "output": {"dir": "out", "dump_field": False, "entropy": True},
}


def _merge(defaults, user, path=""):
    if not isinstance(user, dict):
        raise ConfigInvalid(f"config key '{path or '<root>'}' must be a mapping")
    prefix = f"{path}." if path else ""
    out = {}
    for key, dval in defaults.items():
        if key in user:
            uval = user[key]
            if isinstance(dval, dict) and key != "boundary":
                out[key] = _merge(dval, uval, prefix + key)
            else:
                out[key] = uval
        else:
            out[key] = dval
    for key in user:
        if key not in defaults:
            raise ConfigInvalid(f"unknown config key '{prefix}{key}'")
    return out


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"config is not valid YAML: {exc}") from exc
    cfg = _merge(_DEFAULTS, raw)
    validate_config(cfg)
    return cfg


def _profile_from(value, key: str) -> AbsorptionProfile:
    if isinstance(value, (int, float)):
        what = "a finite number >= 0"
        _check_numbers(value, key, (), what)
        if value < 0:
            raise ConfigInvalid(f"'{key}' must be {what}")
        return AbsorptionProfile.constant(float(value))
    if isinstance(value, dict) and set(value) == {"table"}:
        rows = value["table"]
        _check_numbers(rows, f"{key}.table", (None, 2), "a list of finite [nu, value] rows")
        try:
            nus = [r[0] for r in rows]
            als = [r[1] for r in rows]
            return AbsorptionProfile.table(nus, als)
        except (ValueError, TypeError, IndexError) as exc:
            raise ConfigInvalid(f"'{key}.table' is invalid: {exc}") from exc
    raise ConfigInvalid(f"'{key}' must be a number or a {{table: [[nu, value], ...]}} mapping")


def _check_numbers(value, key: str, shape: tuple, what: str,
                   positive: bool = False) -> np.ndarray:
    """The config value as a float array; rejected unless it is finite and of
    ``shape``, where a ``None`` entry stands for any length."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = np.full(1, np.nan)
    if (arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape))
            or not np.all(np.isfinite(arr)) or (positive and np.any(arr <= 0.0))):
        raise ConfigInvalid(f"'{key}' must be {what}")
    return arr


def _check_int(value, key: str, least: int):
    """Reject the config value unless it is an integer in [``least``, 2^31)."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral or not least <= value < 2**31:
        raise ConfigInvalid(f"'{key}' must be an integer in [{least}, 2^31)")


# Boundary values checked where their kind reads them: (kind, key, shape, what).
# The last entry of the value (of each row, for a table) must be >= 0, and a
# table's first column, the abscissae of np.interp, must increase strictly.
_BOUNDARY_NUMBERS = (
    ("constant", "value", (), "a finite radiance >= 0"),
    ("equilibrium", "temperature", (), "a finite temperature >= 0"),
    ("tabulated", "spectrum", (None, 2), "a list of finite [nu, g] rows, nu increasing, g >= 0"),
    ("tabulated", "angular_profile", (None, 2),
     "a list of finite [mu, a] rows, mu increasing, a >= 0"),
)


def validate_config(cfg: dict):
    if not isinstance(cfg["boundary"], dict):
        raise ConfigInvalid("config key 'boundary' must be a mapping")
    dom = cfg["domain"]
    if dom.get("shape") not in ("ball", "ellipsoid"):
        raise ConfigInvalid("'domain.shape' must be 'ball' or 'ellipsoid'")
    _check_numbers(dom.get("center"), "domain.center", (3,), "three finite coordinates")
    if dom["shape"] == "ball":
        _check_numbers(dom.get("radius"), "domain.radius", (), "a finite positive length",
                       positive=True)
    else:
        _check_numbers(dom.get("semi_axes"), "domain.semi_axes", (3,),
                       "three finite positive lengths", positive=True)
    mode = cfg["solver"].get("mode")
    if mode not in ("scattering", "grey", "spectral", "combined"):
        raise ConfigInvalid("'solver.mode' must be one of scattering|grey|spectral|combined")
    _check_numbers(cfg["solver"].get("tol"), "solver.tol", (), "a finite positive tolerance",
                   positive=True)
    _check_int(cfg["solver"].get("max_iter"), "solver.max_iter", 1)
    absorption = _profile_from(cfg["medium"].get("absorption", 0.0), "medium.absorption")
    scattering = _profile_from(cfg["medium"].get("scattering", 0.0), "medium.scattering")
    kernel = cfg["medium"].get("kernel")
    if isinstance(kernel, dict) and "phase_table" in kernel:
        what = "a list of finite [cos_theta, p] rows, cos_theta increasing, p >= 0"
        rows = _check_numbers(kernel["phase_table"], "medium.kernel.phase_table", (None, 2), what)
        if np.any(np.diff(rows[:, 0]) <= 0.0) or np.any(rows[:, 1] < 0.0):
            raise ConfigInvalid(f"'medium.kernel.phase_table' must be {what}")
    bnd = cfg["boundary"]
    known = {"kind", "axis"} | {name for _, name, _, _ in _BOUNDARY_NUMBERS}
    for key in bnd:
        if key not in known:
            raise ConfigInvalid(f"unknown config key 'boundary.{key}'")
    for kind, name, shape, what in _BOUNDARY_NUMBERS:
        if bnd.get("kind") == kind and name in bnd:
            values = np.atleast_1d(_check_numbers(bnd[name], f"boundary.{name}", shape, what))
            if np.any(values[..., -1] < 0.0) or (
                    values.ndim == 2 and np.any(np.diff(values[:, 0]) <= 0.0)):
                raise ConfigInvalid(f"'boundary.{name}' must be {what}")
    if bnd.get("kind") == "tabulated" and bnd.get("axis") is not None:
        what = "three finite coordinates, not all zero"
        if not np.any(_check_numbers(bnd["axis"], "boundary.axis", (3,), what)):
            raise ConfigInvalid(f"'boundary.axis' must be {what}")
    # Mode compatibility.
    if mode == "grey":
        if not absorption.is_constant or absorption.value <= 0.0:
            raise ConfigInvalid(
                "mode-compatibility: 'solver.mode: grey' requires a constant positive "
                "'medium.absorption'"
            )
        if not scattering.is_zero():
            raise ConfigInvalid(
                "mode-compatibility: 'solver.mode: grey' requires zero 'medium.scattering'"
            )
    if mode == "scattering" and not absorption.is_zero():
        raise ConfigInvalid(
            "mode-compatibility: 'solver.mode: scattering' requires zero 'medium.absorption'"
        )
    if mode == "spectral" and not scattering.is_zero():
        raise ConfigInvalid(
            "mode-compatibility: 'solver.mode: spectral' requires zero 'medium.scattering'"
        )
    if mode in ("spectral", "combined") and absorption.is_zero():
        raise ConfigInvalid(
            f"mode-compatibility: 'solver.mode: {mode}' requires nonzero 'medium.absorption'"
        )
    gr = cfg["grids"]
    h = _check_numbers(gr["spatial"].get("h"), "grids.spatial.h", (), "a finite positive spacing",
                       positive=True)
    try:
        check_spacing(build_domain(cfg), float(h))
    except ValueError as exc:
        raise ConfigInvalid(f"'grids.spatial.h' does not fit 'domain': {exc}") from exc
    if gr["ray"].get("h") is not None:
        _check_numbers(gr["ray"]["h"], "grids.ray.h", (), "null or a finite positive step",
                       positive=True)
    _check_int(gr["angular"].get("n_polar"), "grids.angular.n_polar", 2)
    _check_int(gr["angular"].get("n_azimuth"), "grids.angular.n_azimuth", 4)
    _check_int(gr["spectral"].get("n_nodes"), "grids.spectral.n_nodes", 8)
    t_ref = _check_numbers(gr["spectral"].get("t_ref"), "grids.spectral.t_ref", (),
                           "a finite positive temperature", positive=True)
    try:
        spectral_cutoff(float(t_ref))
    except ValueError as exc:
        raise ConfigInvalid(f"'grids.spectral.t_ref' is out of range: {exc}") from exc
    _check_numbers(cfg["oracle"]["tolerance"], "oracle.tolerance", (), "a finite positive bound",
                   positive=True)
    if not isinstance(cfg["output"]["dir"], str):
        raise ConfigInvalid("'output.dir' must be a path")
    for key in ("dump_field", "entropy"):
        if not isinstance(cfg["output"][key], bool):
            raise ConfigInvalid(f"'output.{key}' must be true or false")


def build_domain(cfg: dict) -> ConvexDomain:
    dom = cfg["domain"]
    if dom["shape"] == "ball":
        return ConvexDomain.ball(dom.get("center", [0, 0, 0]), dom["radius"])
    return ConvexDomain.ellipsoid(dom.get("center", [0, 0, 0]), dom["semi_axes"])


def build_medium(cfg: dict) -> MediumSpec:
    med = cfg["medium"]
    kernel = med.get("kernel", "isotropic")
    if kernel != "isotropic":
        if not (isinstance(kernel, dict) and set(kernel) == {"phase_table"}):
            raise ConfigInvalid(
                "'medium.kernel' must be 'isotropic' or {phase_table: [[mu, p], ...]}"
            )
        rows = kernel["phase_table"]
        kernel = (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))
    return MediumSpec(
        absorption=_profile_from(med.get("absorption", 0.0), "medium.absorption"),
        scattering=_profile_from(med.get("scattering", 0.0), "medium.scattering"),
        kernel=kernel,
    )


def build_source(cfg: dict) -> BoundarySource:
    b = cfg["boundary"]
    kind = b.get("kind", "zero")
    if kind == "zero":
        return BoundarySource.zero()
    if kind == "constant":
        if "value" not in b:
            raise ConfigInvalid("'boundary.value' is required for kind 'constant'")
        return BoundarySource.constant(float(b["value"]))
    if kind == "equilibrium":
        if "temperature" not in b:
            raise ConfigInvalid("'boundary.temperature' is required for kind 'equilibrium'")
        return BoundarySource.equilibrium(float(b["temperature"]))
    if kind == "tabulated":
        if "spectrum" not in b:
            raise ConfigInvalid("'boundary.spectrum' is required for kind 'tabulated'")
        spectrum = np.asarray(b["spectrum"], dtype=float).T
        axis = b.get("axis")
        profile = None
        if axis is not None:
            if "angular_profile" not in b:
                raise ConfigInvalid("'boundary.angular_profile' is required with 'boundary.axis'")
            profile = np.asarray(b["angular_profile"], dtype=float).T
        return BoundarySource.tabulated(spectrum, axis=axis, angular_profile=profile)
    raise ConfigInvalid("'boundary.kind' must be zero|constant|equilibrium|tabulated")


def build_grids(cfg: dict, domain: ConvexDomain) -> Grids:
    gr = cfg["grids"]
    spatial = build_spatial(domain, float(gr["spatial"]["h"]))
    angular = build_angular(int(gr["angular"]["n_polar"]), int(gr["angular"]["n_azimuth"]))
    sgrid = build_spectral(float(gr["spectral"]["t_ref"]), int(gr["spectral"]["n_nodes"]))
    ray_h = gr["ray"].get("h")
    return Grids(spatial=spatial, angular=angular, spectral=sgrid,
                 ray_h=None if ray_h is None else float(ray_h))


# ---------------------------------------------------------------------------
# Solve orchestration
# ---------------------------------------------------------------------------


def run_solver(cfg: dict, quiet: bool = False) -> Solution:
    domain = build_domain(cfg)
    medium = build_medium(cfg)
    source = build_source(cfg)
    grids = build_grids(cfg, domain)
    mode = cfg["solver"]["mode"]
    tol = float(cfg["solver"]["tol"])
    max_iter = int(cfg["solver"]["max_iter"])
    if not quiet:
        print(f"[radbody] mode={mode} nodes={grids.spatial.n_nodes} "
              f"angles={grids.angular.n_nodes} frequencies={grids.spectral.n_nodes}")
    if mode == "scattering":
        I, report = solvers.solve_scattering(domain, medium, source, grids, tol, max_iter)
        sol = Solution(mode, domain, grids, medium, source, report, radiation=I)
    elif mode in ("grey", "spectral"):
        w, T, report = solvers.solve_spectral(domain, medium.absorption, source, grids,
                                              tol, max_iter)
        sol = Solution(mode, domain, grids, medium, source, report, w=w, T=T)
    else:
        w, T, I, report, J0 = solvers.solve_combined(domain, medium, source, grids, tol,
                                                     max_iter)
        sol = Solution(mode, domain, grids, medium, source, report, w=w, T=T,
                       radiation=I, J0=J0)
    if not quiet:
        print(f"[radbody] {report.status} in {report.iterations} iterations, "
              f"wall {report.wall_time:.2f}s")
    return sol


def _node_residual(sol: Solution) -> np.ndarray:
    grids = sol.grids
    if sol.radiation is None:
        return transport.conservation_residual(
            sol.T, sol.source, sol.medium, sol.domain,
            grids.spatial, grids.angular, grids.spectral, representation="kernel",
            J0_guess=sol.J0)[0]
    # One more source-iteration sweep of the stored radiance.  Scattering
    # mode reports the sup over frequencies of the angular L1 change; with a
    # tabulated kernel (combined mode) the per-node energy defect
    # 4pi f(T) - sum_i w_i sum_j q_j alpha_a,j I_new.
    sw = sol.angular_sweep
    I = sol.radiation
    if sol.mode == "scattering":
        return np.max(sw.angle_integral(np.abs(sw.sweep(I) - I)), axis=1)
    B = spectral.planck(grids.spectral.nodes, sol.T[:, None])
    qa = grids.spectral.weights * sw.alphas_a
    I_new = sw.sweep(I, (sw.alphas_a * B)[:, None, :])
    return FOUR_PI * (B @ qa) - sw.angle_integral(I_new) @ qa


def _relative_head(absorption: AbsorptionProfile, t: float, sgrid) -> float:
    """|f_grid(t) - f_ref(t)| / f_ref(t), with f_ref on ``build_spectral(t, 64)``;
    0 at t = 0, and 1 where f_ref(t) underflows."""
    if t <= 0.0:
        return 0.0
    f_ref = spectral.emission_integral(absorption, t, build_spectral(t, 64))
    f = spectral.emission_integral(absorption, t, sgrid)
    return abs(f - f_ref) / f_ref if f_ref > 0.0 else 1.0


def _spectral_tail(sol: Solution) -> dict | None:
    """How well the spectral grid resolves f(T): the truncated emission tail
    at the hottest node relative to f(T) there, and the head error
    ``_relative_head`` at the hottest and coldest positive nodes and at an
    equilibrium source's temperature (0 for other sources).  None for
    scattering runs, which determine no temperature.
    """
    if sol.T is None:
        return None
    absorption, sgrid = sol.medium.absorption, sol.grids.spectral
    t_max = float(np.max(sol.T))
    t_min = float(np.min(sol.T[sol.T > 0.0], initial=t_max))
    relative = 0.0
    if t_max > 0.0:
        tail = spectral.emission_tail_bound(absorption.max_value(), sgrid.nu_max, t_max)
        f = spectral.emission_integral(absorption, t_max, sgrid)
        # A grid far above t_max resolves none of f(t_max): all of it is lost.
        relative = tail / f if f > 0.0 else 1.0
    return {"t_max": t_max, "relative_tail": float(relative), "limit": SPECTRAL_TAIL_LIMIT,
            "t_min": t_min, "relative_head": _relative_head(absorption, t_max, sgrid),
            "relative_head_coldest": _relative_head(absorption, t_min, sgrid),
            "relative_head_source": _relative_head(absorption, sol.source.temperature, sgrid),
            "head_limit": SPECTRAL_HEAD_LIMIT}


def _max_beta_h(sol: Solution) -> float | None:
    """h times the largest rate of the lattice kernel, alpha_a + alpha_s over the
    spectral nodes; None for scattering runs, which determine no temperature."""
    if sol.T is None:
        return None
    nus = sol.grids.spectral.nodes
    rates = sol.medium.absorption(nus) + sol.medium.scattering(nus)
    return float(np.max(rates)) * sol.grids.spatial.h


def write_node_table(path: str, sol: Solution):
    grids = sol.grids
    centers = grids.spatial.centers
    if sol.mode == "scattering":
        T = np.zeros(grids.spatial.n_nodes)  # temperature is indeterminate here
        w = np.einsum("j,i,mij->m", grids.spectral.weights, grids.angular.weights,
                      sol.radiation) / FOUR_PI
    else:
        T, w = sol.T, sol.w
    table = np.column_stack([centers, T, w, _node_residual(sol)])
    # One format string for the whole table; %.17g of a float is its f"{:.17g}".
    text = ("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(table)) % tuple(table.ravel().tolist())
    with open(path, "w") as fh:
        fh.write("x,y,z,T,w,conservation_residual\n" + text)


def write_field_dump(path: str, sol: Solution, cfg: dict):
    arrays = {name: v for name, v in (("T", sol.T), ("w", sol.w), ("J0", sol.J0),
                                      ("I", sol.radiation)) if v is not None}
    header = {
        "version": 1,
        "mode": sol.mode,
        "config": cfg,
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
    }
    hbytes = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(DUMP_MAGIC)
        fh.write(struct.pack("<I", 1))
        fh.write(struct.pack("<Q", len(hbytes)))
        fh.write(hbytes)
        for v in arrays.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())
    with open(path + ".txt", "w") as fh:
        fh.write("radbody field dump descriptor\n")
        fh.write(f"magic: {DUMP_MAGIC.decode()}\nversion: 1\nmode: {sol.mode}\n")
        fh.write("layout: magic, u32 version, u64 header_len, JSON header, "
                 "row-major little-endian float64 arrays\n")
        for item in header["arrays"]:
            fh.write(f"array: {item['name']} shape={item['shape']}\n")


def _dump_header_ok(header) -> bool:
    """Whether a parsed dump header has the layout ``write_field_dump`` writes."""
    return (isinstance(header, dict) and isinstance(header.get("config"), dict)
            and header.get("mode") in ("scattering", "grey", "spectral", "combined")
            and isinstance(header.get("arrays"), list)
            and all(isinstance(item, dict) and isinstance(item.get("name"), str)
                    and isinstance(item.get("shape"), list)
                    and all(type(n) is int and n >= 0 for n in item["shape"])
                    for item in header["arrays"]))


def read_field_dump(path: str):
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            magic = fh.read(len(DUMP_MAGIC))
            if magic != DUMP_MAGIC:
                raise ArtifactUnreadable(f"bad magic in {path!r}")
            (version,) = struct.unpack("<I", fh.read(4))
            if version != 1:
                raise ArtifactUnreadable(f"unsupported dump version {version}")
            (hlen,) = struct.unpack("<Q", fh.read(8))
            if hlen > size - fh.tell():
                raise ArtifactUnreadable(f"header length {hlen} runs past the end of {path!r}")
            header = json.loads(fh.read(hlen).decode())
            if not _dump_header_ok(header):
                raise ArtifactUnreadable(
                    "dump header is not {arrays: [{name, shape}, ...], mode, config}")
            arrays = {}
            for item in header["arrays"]:
                nbytes = 8 * math.prod(item["shape"])
                if nbytes > size - fh.tell():
                    raise ArtifactUnreadable("dump truncated")
                buf = fh.read(nbytes)
                arrays[item["name"]] = np.frombuffer(buf, dtype="<f8").reshape(item["shape"]).copy()
        return header, arrays
    except (OSError, json.JSONDecodeError, struct.error) as exc:
        raise ArtifactUnreadable(f"cannot read dump {path!r}: {exc}") from exc


def solution_from_dump(header: dict, arrays: dict) -> Solution:
    # Dumps written before the no-op 'threads' and 'seed' keys were removed
    # still carry them.
    cfg = _merge(_DEFAULTS, {k: v for k, v in header["config"].items()
                             if k not in ("threads", "seed")})
    mode = header["mode"]
    needed = "I" if mode == "scattering" else "T"
    if needed not in arrays:
        raise ArtifactUnreadable(f"dump of a {mode} run has no '{needed}' array")
    validate_config(cfg)
    domain = build_domain(cfg)
    medium = build_medium(cfg)
    source = build_source(cfg)
    grids = build_grids(cfg, domain)
    M, A, J = grids.spatial.n_nodes, grids.angular.n_nodes, grids.spectral.n_nodes
    shapes = {"T": (M,), "w": (M,), "J0": (M, J), "I": (M, A, J)}
    for name, values in arrays.items():
        if values.shape != shapes.get(name, values.shape):
            raise ArtifactUnreadable(f"dump array '{name}' has shape {list(values.shape)}; "
                                     f"its config's grids give {list(shapes[name])}")
        if not np.all(np.isfinite(values)) or name == "T" and np.any(values < 0.0):
            raise ArtifactUnreadable(f"dump array '{name}' holds non-finite"
                                     + (" or negative" if name == "T" else "") + " values")
    return Solution(mode, domain, grids, medium, source, solvers.SolverReport(),
                    w=arrays.get("w"), T=arrays.get("T"), radiation=arrays.get("I"),
                    J0=arrays.get("J0"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _peak_rss_mb() -> float | None:
    """This process's own peak resident set size (VmHWM) in MiB; None without /proc."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) / 1024.0 for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return None


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if args.output is not None:
        cfg["output"]["dir"] = args.output
    outdir = cfg["output"]["dir"]
    os.makedirs(outdir, exist_ok=True)
    sol = run_solver(cfg, quiet=args.quiet)

    write_node_table(os.path.join(outdir, "nodes.csv"), sol)
    ent_report = None
    if cfg["output"].get("entropy", True):
        ent_report = entropy_mod.solution_entropy_report(sol)
    tail = _spectral_tail(sol)
    beta_h = _max_beta_h(sol)
    report = {
        "config": cfg,
        "solver_report": sol.report.as_dict(),
        "entropy_report": ent_report.as_dict() if ent_report else None,
        "spectral_truncation": tail,
        "max_beta_h": beta_h,
        "n_nodes": sol.grids.spatial.n_nodes,
        "n_angles": sol.grids.angular.n_nodes,
        "n_frequencies": sol.grids.spectral.n_nodes,
        "peak_rss_mb": _peak_rss_mb(),
    }
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    if cfg["output"].get("dump_field", False):
        write_field_dump(os.path.join(outdir, "solution.rbf"), sol, cfg)
    if not args.quiet:
        print(f"[radbody] wrote {outdir}/nodes.csv and {outdir}/report.json")
    sgrid, h = sol.grids.spectral, sol.grids.spatial.h

    def grid_fault(value, limit, what, where, t):
        # A T below the grid's first node misses the Planck peak.
        advice = ("lower it to about the body's temperatures" if t < sgrid.nodes[0]
                  else "raise it to at least the largest temperature")
        return (value, limit, f"the spectral grid on [{sgrid.nodes[0]:g}, {sgrid.nu_max:g}] "
                f"{what.format(value)} at {where} (T = {t:.6g}), above {limit:g}; "
                f"'grids.spectral.t_ref' sets the grid: {advice}")

    head = "gets f(T) wrong by {:.3g} (against 64 nodes at T)"
    faults = [] if tail is None else [
        (beta_h, BETA_H_LIMIT, f"max beta * h is {beta_h:.3g}, above {BETA_H_LIMIT:g}: in cells "
         f"this optically thick the lattice kernel loses its diffusion limit and T can be far "
         f"off; divide 'grids.spatial.h' ({h:g}) by {beta_h / BETA_H_LIMIT:.3g} or more"),
        grid_fault(tail["relative_tail"], SPECTRAL_TAIL_LIMIT, "cuts off {:.3g} of f(T)",
                   "the hottest node", tail["t_max"]),
        grid_fault(tail["relative_head"], SPECTRAL_HEAD_LIMIT, head, "the hottest node",
                   tail["t_max"]),
        grid_fault(tail["relative_head_source"], SPECTRAL_HEAD_LIMIT, head,
                   "the boundary source's temperature", sol.source.temperature)]
    fault = next((message for value, limit, message in faults if value > limit), None)
    if fault is not None:
        print(f"error: {fault}", file=sys.stderr)
        return 2
    return 0 if sol.report.status == "converged" else 2


def cmd_validate(args) -> int:
    checks = []

    def check(name, measured, target, tol, kind="abs"):
        if kind == "abs":
            ok = abs(measured - target) <= tol
            detail = f"measured={measured:.12g} target={target:.12g} tol={tol:g}"
        elif kind == "rel":
            ok = abs(measured - target) <= tol * abs(target)
            detail = f"measured={measured:.12g} target={target:.12g} rtol={tol:g}"
        else:  # "lt": measured strictly below target
            ok = measured < target
            detail = f"measured={measured:.12g} bound={target:.12g}"
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name:<28s} {detail}")

    sigma = spectral.stefan_sigma()
    worst = 0.0
    for T in (0.5, 1.0, 2.0):
        sg = build_spectral(T, 64)
        val = float(np.sum(sg.weights * spectral.planck(sg.nodes, T)))
        worst = max(worst, abs(val - sigma * T**4) / (sigma * T**4))
    check("stefan_boltzmann", 1.0 + worst, 1.0, 1e-8, "rel")

    for alpha, R in ((1.0, 5.0), (2.0, 3.0)):
        ball = ConvexDomain.ball([0, 0, 0], R)
        grid = build_spatial(ball, R / 20.0)
        op = transport.attenuation_operator(grid, alpha)
        center = transport._node_index(grid, [0.0, 0.0, 0.0])
        mass = float(op.row_mass()[center])
        check(f"kernel_normalization_a{alpha:g}_R{R:g}", mass,
              1.0 - np.exp(-alpha * R), 1e-4)

    ball = ConvexDomain.ball([0, 0, 0], 1.0)
    grid = build_spatial(ball, 0.1)
    mass = transport.attenuation_operator(grid, 1.0).row_mass()
    check("grey_row_mass_bound", float(np.max(mass)), 1.0, 0.0, "lt")

    ang = build_angular(8, 16)
    check("sphere_weight_sum", float(np.sum(ang.weights)), 4 * np.pi, 1e-12)
    check("sphere_first_moment", float(np.max(np.abs(ang.weights @ ang.nodes))), 0.0, 1e-12)
    e = np.array([0.36, 0.48, 0.8])
    check("sphere_second_moment", float(np.sum(ang.weights * (ang.nodes @ e) ** 2)),
          4 * np.pi / 3, 1e-10)

    rng = np.random.default_rng(20240811)
    pts = rng.normal(size=(1000, 3))
    pts = 0.9 * pts / np.linalg.norm(pts, axis=1, keepdims=True) * rng.random((1000, 1)) ** (1 / 3)
    dirs = rng.normal(size=(1000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    h = 1e-5
    s_p = geometry.exit_lengths(ball, pts + h * dirs, dirs)
    s_m = geometry.exit_lengths(ball, pts - h * dirs, dirs)
    fd = (s_p - s_m) / (2 * h)
    check("ray_direction_identity", float(np.max(np.abs(fd - 1.0))), 0.0, 1e-4)

    medium = MediumSpec(AbsorptionProfile.constant(1.0), AbsorptionProfile.constant(1.0))
    grids = Grids(build_spatial(ball, 0.25), build_angular(4, 8), single_frequency_grid(1.0))
    cert = solvers.compute_H(ball, medium, grids, eps_trunc=1e-8)
    bound = float(cert.theta_bound[0])
    check("h_response_bound", float(np.max(cert.angular_integral)), bound + 1e-3, 0.0, "lt")

    K, _ = medium.kernel_matrix(ang)
    col_mass = ang.weights @ K
    check("scattering_kernel_mass", float(np.max(np.abs(col_mass - 1.0))), 0.0, 1e-6)

    ok = all(checks)
    print(f"[radbody] validate: {sum(checks)}/{len(checks)} identities pass")
    return 0 if ok else 3


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    tol_equiv = float(cfg["oracle"]["tolerance"])
    t0 = time.perf_counter()
    sol = run_solver(cfg, quiet=args.quiet)
    oracle = solvers.oracle_solve(sol.domain, sol.medium, sol.source, sol.grids)
    wall = time.perf_counter() - t0
    if sol.mode == "scattering":
        dev = np.abs(sol.radiation - oracle.radiation)
        scale = float(np.max(np.abs(oracle.radiation))) or 1.0
        max_dev, mean_dev = float(np.max(dev)) / scale, float(np.mean(dev)) / scale
        what = "radiance (relative)"
    else:
        dev = np.abs(sol.T - oracle.T)
        max_dev, mean_dev = float(np.max(dev)), float(np.mean(dev))
        what = "temperature"
    print(f"[radbody] oracle comparison on {what}: max={max_dev:.6g} "
          f"mean={mean_dev:.6g} tolerance={tol_equiv:g} wall={wall:.1f}s")
    return 0 if max_dev <= tol_equiv else 3


def cmd_entropy(args) -> int:
    header, arrays = read_field_dump(args.artifact)
    sol = solution_from_dump(header, arrays)
    report = entropy_mod.solution_entropy_report(sol)
    print(f"[radbody] entropy report for {args.artifact}")
    for key, val in report.as_dict().items():
        print(f"  {key:<28s} {val:.12g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="radbody",
        description="Stationary temperature of a convex body heated by radiation",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the configured solver")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--output", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_val = sub.add_parser("validate", help="run the built-in identity suite")
    p_val.set_defaults(func=cmd_validate)

    p_or = sub.add_parser("oracle", help="compare against the brute-force oracle")
    p_or.add_argument("--config", required=True)
    p_or.set_defaults(func=cmd_oracle)

    p_ent = sub.add_parser("entropy", help="entropy report for a field dump")
    p_ent.add_argument("artifact")
    p_ent.set_defaults(func=cmd_entropy)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigInvalid, ArtifactUnreadable, solvers.TooLarge, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (solvers.MonotonicityError, solvers.CapExceeded, transport.NegativeSource,
            transport.InnerDiverged) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
