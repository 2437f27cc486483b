import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from radbody import cli, entropy, spectral, transport

SIGMA = spectral.stefan_sigma()

BASE_EQ = {
    "domain": {"shape": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
    "medium": {"absorption": 1.0, "scattering": 0.0, "kernel": "isotropic"},
    "boundary": {"kind": "equilibrium", "temperature": 1.0},
    "grids": {
        "spatial": {"h": 0.2},
        "angular": {"n_polar": 4, "n_azimuth": 8},
        "spectral": {"n_nodes": 32, "t_ref": 1.0},
        "ray": {"h": 0.1},
    },
    "solver": {"mode": "grey", "tol": 1.0e-9, "max_iter": 400},
    "output": {"dir": "out", "dump_field": True, "entropy": True},
}


def write_cfg(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def read_nodes(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    return data


def test_solve_equilibrium(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["output"]["dir"] = str(tmp_path / "out")
    code = cli.main(["solve", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    nodes = read_nodes(tmp_path / "out" / "nodes.csv")
    assert np.max(np.abs(nodes["T"] - 1.0)) <= 1e-2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["solver_report"]["status"] == "converged"
    # the full resolved config is embedded for provenance
    assert report["config"]["grids"]["angular"]["n_polar"] == 4
    assert report["config"]["solver"]["max_iter"] == 400
    # entropy production vanishes at equilibrium
    scale = 4 * np.pi * SIGMA * (4 * np.pi / 3)
    assert report["entropy_report"]["production_volume_integral"] <= 1e-8 * scale
    solver = report["solver_report"]
    assert solver["operator_applies"] == solver["iterations"] + solver["rejected_steps"]
    assert report["spectral_truncation"]["relative_tail"] <= 1e-8


def test_solve_ellipsoid(tmp_path):
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["domain"] = {"shape": "ellipsoid", "center": [0.0, 0.0, 0.0],
                     "semi_axes": [1.0, 0.8, 0.6]}
    cfg["output"] = {"dir": str(tmp_path / "out_el"), "dump_field": False, "entropy": False}
    code = cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    nodes = read_nodes(tmp_path / "out_el" / "nodes.csv")
    assert np.max(np.abs(nodes["T"] - 1.0)) <= 1e-2


def test_solve_mode_compatibility_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["medium"]["absorption"] = {"table": [[0.5, 1.0], [5.0, 0.5]]}
    code = cli.main(["solve", "--config", write_cfg(tmp_path, cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert "mode-compatibility" in err and "grey" in err


def test_solve_unknown_key_rejected(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["solvre"] = {"mode": "grey"}
    code = cli.main(["solve", "--config", write_cfg(tmp_path, cfg)])
    assert code == 1
    assert "solvre" in capsys.readouterr().err


def test_solve_scattering_constant(tmp_path):
    cfg = {
        "domain": {"shape": "ball", "radius": 1.0},
        "medium": {"absorption": 0.0, "scattering": 1.0},
        "boundary": {"kind": "constant", "value": 3.0},
        "grids": {
            "spatial": {"h": 0.25},
            "angular": {"n_polar": 4, "n_azimuth": 8},
            "spectral": {"n_nodes": 8, "t_ref": 1.0},
            "ray": {"h": 0.0625},
        },
        "solver": {"mode": "scattering", "tol": 1.0e-7, "max_iter": 300},
        "output": {"dir": str(tmp_path / "out_sc"), "dump_field": True, "entropy": False},
    }
    code = cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    header, arrays = cli.read_field_dump(str(tmp_path / "out_sc" / "solution.rbf"))
    assert np.max(np.abs(arrays["I"] - 3.0)) <= 1e-6


def test_solve_combined_phase_table(tmp_path):
    # Regression: the node-table residual of combined mode with a tabulated
    # kernel raised NotImplementedError after the solve, so no report.json.
    cfg = {
        "domain": {"shape": "ball", "radius": 1.0},
        "medium": {"absorption": 1.0, "scattering": 0.5,
                   "kernel": {"phase_table": [[-1.0, 0.5], [0.0, 1.0], [1.0, 2.0]]}},
        "boundary": {"kind": "equilibrium", "temperature": 1.0},
        "grids": {
            "spatial": {"h": 0.25},
            "angular": {"n_polar": 4, "n_azimuth": 8},
            "spectral": {"n_nodes": 8, "t_ref": 1.0},
            "ray": {"h": 0.125},
        },
        "solver": {"mode": "combined", "tol": 1.0e-7, "max_iter": 200},
        "output": {"dir": str(tmp_path / "out_pt"), "dump_field": False, "entropy": False},
    }
    code = cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    report = json.loads((tmp_path / "out_pt" / "report.json").read_text())
    assert report["solver_report"]["status"] == "converged"
    nodes = read_nodes(tmp_path / "out_pt" / "nodes.csv")
    assert np.all(np.isfinite(nodes["conservation_residual"]))
    # The energy defect of one more sweep is small against 4 pi f(T).
    assert np.max(np.abs(nodes["conservation_residual"])) <= 1e-4 * 4 * np.pi * np.max(nodes["w"])


def test_solve_combined_phase_table_beam_entropy(tmp_path, capsys):
    # Regression: the entropy report of a tabulated-kernel combined run
    # re-evaluated the radiance with the isotropic source, so the
    # conservation term of the report, in report.json and from the dump,
    # read 6.7e-2 instead of 0.  An equilibrium boundary hides this: the
    # blackbody field is the same under any kernel.
    cfg = {
        "domain": {"shape": "ball", "radius": 1.0},
        "medium": {"absorption": 1.0, "scattering": 0.5,
                   "kernel": {"phase_table": [[-1.0, 0.1], [0.0, 0.5], [1.0, 4.0]]}},
        "boundary": {"kind": "tabulated",
                     "spectrum": [[0.5, 0.5], [1.0, 1.0], [3.0, 0.7], [10.0, 0.05]],
                     "axis": [0.0, 0.0, 1.0],
                     "angular_profile": [[-1.0, 0.1], [0.0, 0.4], [1.0, 1.5]]},
        "grids": {
            "spatial": {"h": 0.25},
            "angular": {"n_polar": 4, "n_azimuth": 8},
            "spectral": {"n_nodes": 8, "t_ref": 1.0},
            "ray": {"h": 0.1},
        },
        "solver": {"mode": "combined", "tol": 1.0e-9, "max_iter": 200},
        "output": {"dir": str(tmp_path / "out_pb"), "dump_field": True, "entropy": True},
    }
    code = cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    report = json.loads((tmp_path / "out_pb" / "report.json").read_text())
    assert abs(report["entropy_report"]["conservation_entropy_term"]) <= 1e-6
    _, arrays = cli.read_field_dump(str(tmp_path / "out_pb" / "solution.rbf"))
    assert set(arrays) == {"T", "w", "J0", "I"}
    assert cli.main(["entropy", str(tmp_path / "out_pb" / "solution.rbf")]) == 0
    out = capsys.readouterr().out
    term = float([l for l in out.splitlines() if "conservation_entropy_term" in l][0].split()[-1])
    assert abs(term) <= 1e-6


@pytest.mark.parametrize("domain, key", [
    ({"shape": "ball", "radius": float("nan")}, "domain.radius"),
    ({"shape": "ball", "radius": float("inf")}, "domain.radius"),
    ({"shape": "ball", "radius": 0.0}, "domain.radius"),
    ({"shape": "ball", "radius": -1.0}, "domain.radius"),
    ({"shape": "ellipsoid", "semi_axes": [1.0, float("nan"), 1.0]}, "domain.semi_axes"),
    ({"shape": "ellipsoid", "semi_axes": [1.0, 0.0, 1.0]}, "domain.semi_axes"),
    ({"shape": "ellipsoid", "semi_axes": [1.0, 1.0]}, "domain.semi_axes"),
    ({"shape": "ball", "radius": 1.0, "center": [0.0, float("inf"), 0.0]}, "domain.center"),
    ({"shape": "ball", "radius": 1.0, "center": [0.0, "x", 0.0]}, "domain.center"),
    # Far larger than h: the bounding box would hold 2^31 cells or more.
    ({"shape": "ball", "radius": 1e308}, "grids.spatial.h"),
    ({"shape": "ball", "radius": 1e6}, "grids.spatial.h"),
    # h = 0.2 exceeds diameter/4.
    ({"shape": "ball", "radius": 0.2}, "grids.spatial.h"),
])
def test_solve_bad_domain_size_rejected(tmp_path, capsys, domain, key):
    # Regression: a NaN radius passed validation and failed inside the
    # operator build with a message that named no config key.
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["domain"] = domain
    cfg["output"]["dir"] = str(tmp_path / "out_bad")
    code = cli.main(["solve", "--config", write_cfg(tmp_path, cfg)])
    assert code == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out_bad").exists()


NAN = float("nan")
BEAM = {"kind": "tabulated", "spectrum": [[0.5, 0.5], [1.0, 1.0], [10.0, 0.05]],
        "axis": [0.0, 0.0, 1.0], "angular_profile": [[-1.0, 1.0], [1.0, 2.0]]}
MILD_TABLE = [[0.01, 1.25], [5.0, 1.0], [60.0, 0.75]]


def _edited(cfg, edits):
    """A copy of ``cfg`` with each dotted key of ``edits`` set to its value."""
    cfg = json.loads(json.dumps(cfg))
    for path, value in edits.items():
        *parents, last = path.split(".")
        node = cfg
        for name in parents:
            node = node[name]
        node[last] = value
    return cfg


@pytest.mark.parametrize("edits, key", [
    ({"boundary.temperature": NAN}, "boundary.temperature"),
    ({"boundary": {"kind": "constant", "value": NAN}}, "boundary.value"),
    ({"boundary": dict(BEAM, spectrum=[[0.5, NAN], [1.0, 1.0]])}, "boundary.spectrum"),
    ({"boundary": dict(BEAM, axis=[0.0, 0.0, 0.0])}, "boundary.axis"),
    ({"boundary": dict(BEAM, axis=[0.0, NAN, 1.0])}, "boundary.axis"),
    ({"boundary": dict(BEAM, axis=[0.0, 0.0, 1.0, 0.0])}, "boundary.axis"),
    ({"boundary": dict(BEAM, angular_profile=[[-1.0, NAN], [1.0, 2.0]])},
     "boundary.angular_profile"),
    ({"boundary": 5}, "boundary"),
    ({"grids.ray.h": -1.0}, "grids.ray.h"),
    ({"grids.ray.h": NAN}, "grids.ray.h"),
    ({"grids.spatial.h": NAN}, "grids.spatial.h"),
    ({"grids.spectral.t_ref": NAN}, "grids.spectral.t_ref"),
    ({"solver.tol": NAN}, "solver.tol"),
    ({"solver.tol": "tight"}, "solver.tol"),
    ({"medium.absorption": NAN}, "medium.absorption"),
    ({"solver.mode": "spectral",
      "medium.absorption": {"table": [[0.01, NAN], [5.0, 1.0], [60.0, 0.75]]}},
     "medium.absorption.table"),
    ({"solver.mode": "combined", "medium.scattering": 0.5,
      "medium.kernel": {"phase_table": [[-1.0, 1.0], [1.0, NAN]]}},
     "medium.kernel.phase_table"),
    ({"threads": 2}, "threads"),
    ({"solver.max_iter": 2.7}, "solver.max_iter"),
    ({"grids.spectral.n_nodes": 8.9}, "grids.spectral.n_nodes"),
    ({"grids.angular.n_polar": NAN}, "grids.angular.n_polar"),
    ({"grids.angular.n_azimuth": "x"}, "grids.angular.n_azimuth"),
    ({"seed": 3}, "seed"),
    ({"boundary": dict(BEAM, spectrum=[[3.0, 1.0], [1.0, 5.0], [2.0, 0.0]])}, "boundary.spectrum"),
    ({"boundary": dict(BEAM, angular_profile=[[1.0, 2.0], [-1.0, 1.0]])},
     "boundary.angular_profile"),
    ({"solver.mode": "combined", "medium.scattering": 0.5,
      "medium.kernel": {"phase_table": [[1.0, 2.0], [-1.0, 1.0]]}},
     "medium.kernel.phase_table"),
    ({"solver.mode": "combined", "medium.scattering": 0.5,
      "medium.kernel": {"phase_table": [[-1.0, -1.0], [1.0, 2.0]]}},
     "medium.kernel.phase_table"),
    ({"grids.spatial.h": 1.0}, "grids.spatial.h"),
    ({"grids.spectral.t_ref": 1e308}, "grids.spectral.t_ref"),
    ({"grids.ray": None}, "grids.ray"),
])
def test_solve_bad_config_value_rejected(tmp_path, capsys, edits, key):
    # Regression: each of these used to run on (to a wrong answer or to the
    # iteration cap), or fail with a numpy message or a traceback that named
    # no config key.
    cfg = _edited(BASE_EQ, edits)
    cfg["output"]["dir"] = str(tmp_path / "out_bad")
    code = cli.main(["solve", "--config", write_cfg(tmp_path, cfg)])
    assert code == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out_bad").exists()


# Valid documented configs (the README schema) that the property test mutates.
DOCUMENTED = [
    BASE_EQ,
    _edited(BASE_EQ, {"domain": {"shape": "ellipsoid", "center": [0.0, 0.0, 0.0],
                                 "semi_axes": [2.0, 1.0, 1.0]},
                      "medium": {"absorption": {"table": MILD_TABLE}, "scattering": 0.5,
                                 "kernel": {"phase_table": [[-1.0, 1.0], [1.0, 2.0]]}},
                      "boundary": BEAM, "solver.mode": "combined", "grids.ray.h": None,
                      "oracle": {"tolerance": 5e-3}}),
]
WRONG_TYPES = ["x", True, None, [], {}, {"x": 1}, [[1.0, 2.0]]]
BAD_NUMBERS = [NAN, float("inf"), float("-inf"), -1.0, 0.0, -1e-300, 1e308]


def _paths(node, prefix=()):
    """Every key path of a config, mappings included."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _reshaped(value):
    """Badly shaped variants of a vector or table."""
    out = [value[:-1], value + value[-1:], [value], []]
    if value and isinstance(value[0], list):
        out += [value[0], [row[:1] for row in value], [row + [0.0] for row in value]]
    return out


def _reordered(table):
    """Variants of a table whose first column does not increase strictly:
    reversed, first two rows swapped, first row repeated."""
    return [table[::-1], [table[1], table[0]] + table[2:], table[:1] + table]


def _mutate_config(cfg, data):
    """Apply one drawn mutation to ``cfg`` in place: a wrong type, a bad
    number, an unknown key, a bad shape or a table out of order at a drawn
    key path.  Returns (kind, dotted key, new value)."""
    path = data.draw(st.sampled_from(sorted(_paths(cfg))))
    *parents, last = path
    node = cfg
    for name in parents:
        node = node[name]
    value = node[last]
    kinds = ["type", "number", "unknown"] + (["shape"] if isinstance(value, list) else [])
    if isinstance(value, list) and len(value) > 1 and isinstance(value[0], list):
        kinds.append("order")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "unknown":
        holder, at = (value, path) if isinstance(value, dict) else (node, tuple(parents))
        holder["bogus"] = 1.0
        return kind, ".".join(at + ("bogus",)), 1.0
    choices = {"type": WRONG_TYPES, "number": BAD_NUMBERS}.get(kind) or (
        _reordered(value) if kind == "order" else _reshaped(value))
    node[last] = data.draw(st.sampled_from(choices))
    return kind, ".".join(path), node[last]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_load_config_mutations_load_or_name_the_key(tmp_path_factory, data):
    # One mutation of a documented config either loads, or raises
    # ConfigInvalid naming the mutated key (or the key whose mapping holds
    # it, as for {table: ...}), never any other exception.  An unknown key,
    # a non-finite number and a table out of order never load.
    cfg = json.loads(json.dumps(data.draw(st.sampled_from(DOCUMENTED))))
    kind, key, value = _mutate_config(cfg, data)
    cfg_path = write_cfg(tmp_path_factory.mktemp("cfg"), cfg)
    try:
        loaded = cli.load_config(cfg_path)
        for build in (cli.build_domain, cli.build_medium, cli.build_source):
            build(loaded)
    except cli.ConfigInvalid as exc:
        assert key in str(exc) or key.rsplit(".", 1)[0] in str(exc), (key, str(exc))
        return
    assert kind not in ("unknown", "order"), f"{kind} '{key}' loaded"
    assert kind != "number" or np.isfinite(value), f"'{key}' = {value} loaded"


def _run_python(code, *args):
    """stdout lines of ``code`` run in a fresh interpreter on this checkout's radbody."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


IMPORT_PROBE = """
import sys
from radbody import cli
for cfg, out in zip(sys.argv[1:3], sys.argv[4:6]):
    assert cli.main(["--quiet", "solve", "--config", cfg, "--output", out]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
print(sorted(m for m in sys.modules if m in ("hashlib", "_hashlib")))
print(cli.main(["--quiet", "solve", "--config", sys.argv[3], "--output", sys.argv[6]]))
"""


def test_ray_free_solves_import_no_scipy(tmp_path):
    # Only the ray sweeps need scipy (scipy.sparse); a grey or spectral solve
    # without the entropy report loads no scipy module at all, nor hashlib,
    # whose _hashlib maps OpenSSL's libcrypto.
    small = _edited(BASE_EQ, {"grids.spatial.h": 0.25, "output.dump_field": False,
                              "output.entropy": False})
    cfgs = [small,
            _edited(small, {"solver.mode": "spectral", "medium.absorption": {"table": MILD_TABLE}}),
            _edited(small, {"output.entropy": True})]
    paths = [write_cfg(tmp_path, c, f"run{k}.yaml") for k, c in enumerate(cfgs)]
    outs = [str(tmp_path / f"out{k}") for k in range(len(cfgs))]
    assert _run_python(IMPORT_PROBE, *paths, *outs) == ["[]", "[]", "0"]


def test_solve_reports_own_peak_rss(tmp_path):
    # report.json's peak_rss_mb is the solve's own VmHWM: positive and at most
    # the child's ru_maxrss, which also keeps the high-water mark of the
    # process it was forked from (here the test runner).
    cfg = _edited(BASE_EQ, {"grids.spatial.h": 0.25, "output.dump_field": False,
                            "output.entropy": False})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    out = tmp_path / "out"
    proc = subprocess.Popen([sys.executable, "-m", "radbody.cli", "--quiet", "solve", "--config",
                             write_cfg(tmp_path, cfg), "--output", str(out)], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    peak = json.loads((out / "report.json").read_text())["peak_rss_mb"]
    if not os.path.exists("/proc/self/status"):
        assert peak is None
        return
    assert 0.0 < peak <= usage.ru_maxrss / 1024.0


SETUP_PROBE = """
import sys
from radbody import cli
for path in sys.argv[1:]:
    cfg = cli.load_config(path)
    domain = cli.build_domain(cfg)
    cli.build_medium(cfg)
    cli.build_source(cfg)
    cli.build_grids(cfg, domain)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_setup_path_imports_no_scipy(tmp_path):
    # The benchmark's setup_s times this path, about 0.2 s: import the CLI,
    # load a config and build what a solve needs.  Importing scipy.sparse
    # would add about 0.14 s to it.  Configs: grey equilibrium, spectral
    # table, grey beam with the entropy report, combined with a phase table.
    spectral_cfg = {"solver.mode": "spectral", "medium.absorption": {"table": MILD_TABLE}}
    cfgs = [BASE_EQ, _edited(BASE_EQ, spectral_cfg), _edited(BASE_EQ, {"boundary": BEAM}),
            DOCUMENTED[1]]
    paths = [write_cfg(tmp_path, c, f"run{k}.yaml") for k, c in enumerate(cfgs)]
    assert _run_python(SETUP_PROBE, *paths) == ["[]"]


def test_solve_spectral_truncation_exit_code(tmp_path, capsys):
    # Regression: a boundary far above t_ref reported "converged" although the
    # spectral grid cut off a large share of the emission.
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["boundary"]["temperature"] = 8.0
    cfg["grids"]["spatial"]["h"] = 0.25
    cfg["output"] = {"dir": str(tmp_path / "out_tail"), "dump_field": False, "entropy": False}
    code = cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)])
    assert code == 2
    assert "grids.spectral.t_ref" in capsys.readouterr().err
    report = json.loads((tmp_path / "out_tail" / "report.json").read_text())
    assert report["solver_report"]["status"] == "converged"
    assert report["spectral_truncation"]["relative_tail"] > 1e-8


def test_solve_spectral_grid_above_body_exit_code(tmp_path, capsys):
    # Regression: with t_ref far above the body the grid resolves almost no
    # emission at the hottest node, and the tail check ended in a
    # ZeroDivisionError.  The grid's f(T) there is off by all of it.
    cfg = _edited(BASE_EQ, {"boundary.temperature": 0.9, "grids.spectral.t_ref": 1000.0})
    cfg["output"] = {"dir": str(tmp_path / "out_head"), "dump_field": False, "entropy": False}
    code = cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)])
    assert code == 2
    assert "grids.spectral.t_ref" in capsys.readouterr().err
    report = json.loads((tmp_path / "out_head" / "report.json").read_text())
    assert report["spectral_truncation"]["relative_head"] >= 0.99


def test_solve_grey_grid_misses_planck_peak_exit_code(tmp_path, capsys):
    # t_ref 100 puts the grid's first node far above the Planck peak of a body
    # at 0.9: the solve itself is consistent (T = 0.9), but the grid's f(T)
    # is off by about 99 %, which the head check reports.
    cfg = _edited(BASE_EQ, {"boundary.temperature": 0.9, "grids.spectral.t_ref": 100.0})
    cfg["output"] = {"dir": str(tmp_path / "out_peak"), "dump_field": False, "entropy": False}
    code = cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)])
    assert code == 2
    assert "grids.spectral.t_ref" in capsys.readouterr().err
    tail = json.loads((tmp_path / "out_peak" / "report.json").read_text())["spectral_truncation"]
    assert tail["relative_head"] > cli.SPECTRAL_HEAD_LIMIT
    assert tail["relative_tail"] <= cli.SPECTRAL_TAIL_LIMIT


def test_solve_grid_emission_underflow_exit_code(tmp_path, capsys):
    # Regression: at t_ref 1e7 the grid's emission at the boundary's 0.9
    # underflows, so the boundary term is 0 and T = 0 at every node; with no
    # positive node the head check read 0 and the run exited 0.  The check at
    # the source's own temperature reports it.
    cfg = _edited(BASE_EQ, {"boundary.temperature": 0.9, "grids.spectral.t_ref": 1e7})
    cfg["output"] = {"dir": str(tmp_path / "out_uf"), "dump_field": False, "entropy": False}
    assert cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)]) == 2
    assert "grids.spectral.t_ref" in capsys.readouterr().err
    tail = json.loads((tmp_path / "out_uf" / "report.json").read_text())["spectral_truncation"]
    assert tail["t_max"] == 0.0
    assert tail["relative_head_source"] > cli.SPECTRAL_HEAD_LIMIT
    # A zero boundary on the same grid: T = 0 is the answer, and the run exits 0.
    cfg["boundary"] = {"kind": "zero"}
    assert cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg, "zero.yaml")]) == 0


def test_solve_coarse_ray_step_exit_code_names_key(tmp_path, capsys):
    # At scattering 20 a ray step of 0.125 (beta * ray_h = 2.5) makes the
    # Simpson sweep expand: the invariant violation (exit 3) names the key
    # that sets the step and the optical depth of one step.
    cfg = {
        "domain": {"shape": "ball", "radius": 1.0},
        "medium": {"absorption": 0.0, "scattering": 20.0},
        "boundary": BEAM,
        "grids": {
            "spatial": {"h": 0.25},
            "angular": {"n_polar": 4, "n_azimuth": 8},
            "spectral": {"n_nodes": 8, "t_ref": 1.0},
            "ray": {"h": 0.125},
        },
        "solver": {"mode": "scattering", "tol": 1.0e-8, "max_iter": 500},
        "output": {"dir": str(tmp_path / "out_ray"), "dump_field": False, "entropy": False},
    }
    assert cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "internal invariant violation" in err
    assert "grids.ray.h" in err and "max beta * ray_h is 2.5" in err


@pytest.mark.parametrize("alpha, code", [(200.0, 2), (100.0, 2), (50.0, 0)])
def test_solve_thick_cells_exit_code(tmp_path, capsys, alpha, code):
    # Regression: at alpha 200 and h 0.2 (beta h = 40) the lattice kernel has
    # lost its diffusion limit; the solve stopped after 3 iterations with T
    # 0.526-0.821 against the exact 0.9 and exited 0.  beta h 20 was 0.67 %
    # off; beta h 10 is within 5e-6 and still runs.
    cfg = _edited(BASE_EQ, {"medium.absorption": alpha, "boundary.temperature": 0.9,
                            "grids.spectral.n_nodes": 16, "solver.tol": 1.0e-8})
    cfg["output"] = {"dir": str(tmp_path / "out"), "dump_field": False, "entropy": False}
    assert cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)]) == code
    assert ("grids.spatial.h" in capsys.readouterr().err) == (code == 2)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["max_beta_h"] == pytest.approx(alpha * 0.2, rel=1e-12)
    assert (report["max_beta_h"] > cli.BETA_H_LIMIT) == (code == 2)


def test_solve_non_convergence_exit_code(tmp_path):
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["output"]["dir"] = str(tmp_path / "out2")
    cfg["output"]["dump_field"] = False
    cfg["output"]["entropy"] = False
    cfg["solver"]["max_iter"] = 1
    code = cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)])
    assert code == 2


def test_node_table_deterministic(tmp_path):
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["output"]["dump_field"] = False
    cfg["output"]["entropy"] = False
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["--quiet", "solve", "--config", path, "--output", str(out1)]) == 0
    assert cli.main(["--quiet", "solve", "--config", path, "--output", str(out2)]) == 0
    assert (out1 / "nodes.csv").read_bytes() == (out2 / "nodes.csv").read_bytes()


def test_node_table_matches_per_field_format(tmp_path, monkeypatch):
    # The table is formatted in one pass; every field reads as the per-field
    # f"{v:.17g}" did, signed zeros and tiny values included.
    cfg = _edited(BASE_EQ, {"grids.spatial.h": 0.25, "output.entropy": False})
    sol = cli.run_solver(cli.load_config(write_cfg(tmp_path, cfg)), quiet=True)
    sol.T = sol.T.copy()
    sol.T[:4] = [-0.0, 1e-300, 5e-324, 1.0 / 3.0]
    resid = np.linspace(-1.0, 1.0, sol.grids.spatial.n_nodes) ** 3
    resid[:3] = [-0.0, 1e-300, -2.5e-310]
    monkeypatch.setattr(cli, "_node_residual", lambda s: resid)
    cli.write_node_table(str(tmp_path / "nodes.csv"), sol)
    c = sol.grids.spatial.centers
    expected = "x,y,z,T,w,conservation_residual\n" + "".join(
        f"{c[m, 0]:.17g},{c[m, 1]:.17g},{c[m, 2]:.17g},"
        f"{sol.T[m]:.17g},{sol.w[m]:.17g},{resid[m]:.17g}\n" for m in range(c.shape[0]))
    assert (tmp_path / "nodes.csv").read_text() == expected
    assert ",-0," in expected and ",1e-300," in expected


def test_spectral_solve_memory_peak(tmp_path, monkeypatch):
    # Operators hold the real even octant of their transforms: the traced
    # peak of a cold spectral solve at h = 0.125 with 32 frequencies, its
    # rate plan and operators included, was 7.6 MiB with complex half-spectra.
    cfg = _edited(BASE_EQ, {"grids.spatial.h": 0.125, "grids.angular.n_polar": 8,
                            "grids.angular.n_azimuth": 16, "boundary.temperature": 0.9,
                            "medium.absorption": {"table": MILD_TABLE},
                            "solver.mode": "spectral", "output.entropy": False})
    cfg = cli.load_config(write_cfg(tmp_path, cfg))
    for cache in ("_PLAN_CACHE", "_OPERATOR_CACHE"):
        monkeypatch.setattr(transport, cache, OrderedDict())
    tracemalloc.start()
    try:
        sol = cli.run_solver(cfg, quiet=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.report.status == "converged"
    assert peak < 6 << 20, peak / 2**20


def test_dump_round_trip(tmp_path):
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["output"]["dir"] = str(tmp_path / "out3")
    cfg["output"]["entropy"] = False
    assert cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)]) == 0
    dump = str(tmp_path / "out3" / "solution.rbf")
    h1, a1 = cli.read_field_dump(dump)
    h2, a2 = cli.read_field_dump(dump)
    assert h1 == h2
    assert all(np.array_equal(a1[k], a2[k]) for k in a1)
    assert set(a1) == {"T", "w"}
    # The solution read back holds plain arrays equal to those the solve wrote.
    sol = cli.solution_from_dump(h1, a1)
    table = np.loadtxt(tmp_path / "out3" / "nodes.csv", delimiter=",", skiprows=1)
    for got, column in ((sol.T, 3), (sol.w, 4)):
        assert type(got) is np.ndarray and np.array_equal(got, table[:, column])
    assert sol.radiation is None and sol.J0 is None
    # sidecar descriptor exists
    assert os.path.exists(dump + ".txt")


@pytest.mark.parametrize("edits, built", [
    ({"solver.mode": "combined", "medium.scattering": 0.5, "grids.spectral.n_nodes": 16,
      "medium.kernel": {"phase_table": [[-1.0, 0.1], [0.0, 0.5], [1.0, 4.0]]}}, 1),
    ({"solver.mode": "scattering", "medium.absorption": 0.0, "medium.scattering": 1.0,
      "grids.spectral.n_nodes": 8}, 1),
    ({}, 2),
])
def test_node_table_and_entropy_report_share_one_sweep(tmp_path, monkeypatch, edits, built):
    # The node table's residual and the entropy report rebuild radiance with
    # the solution's one AngularSweep; the grey run's kernel residual builds
    # the only other ray sweeper, for its anisotropic boundary term.  The
    # report's one pass builds one chord design per direction, and one node
    # design per mirror orbit where it integrates the production (not in
    # pure scattering, which has no temperature): 36 on the 4x8 grid.
    cfg = _edited(BASE_EQ, {"grids.spatial.h": 0.25, "boundary": BEAM, **edits})
    sol = cli.run_solver(cli.load_config(write_cfg(tmp_path, cfg)), quiet=True)
    init, built_now = transport.RaySweeper.__init__, []
    ray_design, designs = transport.RaySweeper._ray_design, []

    def counting_init(self, *args, **kwargs):
        built_now.append(self)
        init(self, *args, **kwargs)

    def counting_design(self, *args):
        designs.append(args[0].shape[0])
        return ray_design(self, *args)

    monkeypatch.setattr(transport.RaySweeper, "__init__", counting_init)
    monkeypatch.setattr(transport.RaySweeper, "_ray_design", counting_design)
    cli.write_node_table(str(tmp_path / "nodes.csv"), sol)
    designs.clear()
    entropy.solution_entropy_report(sol)
    assert len(built_now) == built
    orbits = np.unique(sol.angular_sweep.rays._mirror_orbits()[0]).size
    nodes = orbits if sol.T is not None else 0
    assert orbits == 4 and len(designs) == sol.grids.angular.n_nodes + nodes
    assert designs.count(sol.grids.spatial.n_nodes) == nodes


def test_validate_passes(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "stefan_boltzmann" in out and "FAIL" not in out


def test_validate_fault_injection(monkeypatch, capsys):
    # A kernel whose mass is 1 % too large must fail the normalization check.
    row_mass = transport.AttenuationOperator.row_mass
    monkeypatch.setattr(transport.AttenuationOperator, "row_mass",
                        lambda self: 1.01 * row_mass(self))
    assert cli.main(["validate"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "kernel_normalization" in out


def test_solve_negative_boundary_sink_exits_3(tmp_path, monkeypatch, capsys):
    # A kernel row mass above 1 makes the isotropic boundary term
    # g (1 - row mass) negative; the sink check must stop the run.
    row_mass = transport.AttenuationOperator.row_mass
    monkeypatch.setattr(transport.AttenuationOperator, "row_mass",
                        lambda self: 1.0 + row_mass(self))
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["output"] = {"dir": str(tmp_path / "out"), "dump_field": False, "entropy": False}
    assert cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "internal invariant violation: boundary sink term is negative" in err


@pytest.mark.parametrize("absorption", [1.0, {"table": [[0.01, 1.25], [60.0, 0.75]]}],
                         ids=["constant", "table"])
def test_solve_inner_cap_exits_3(tmp_path, monkeypatch, capsys, absorption):
    # One iteration cannot reach the tolerance of the kernel linear solve:
    # neither the J0 recovery after the grey route (constant coefficients)
    # nor the node-table residual after the joint iteration (a table).
    monkeypatch.setattr(transport, "INNER_MAX_ITER", 1)
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["medium"].update(absorption=absorption, scattering=0.5)
    cfg["solver"]["mode"] = "combined"
    cfg["output"] = {"dir": str(tmp_path / "out"), "dump_field": False, "entropy": False}
    assert cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "internal invariant violation: inner transport solve hit its iteration cap" in err


def test_solve_high_albedo_combined_residual_within_inner_cap(tmp_path):
    # Albedo 0.98: the node-table residual's J0 solve, warm-started from the
    # solver's J0, takes 8 applies (29 from a cold start), within the inner
    # cap, so the converged solve exits 0.
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["medium"].update(absorption=0.2, scattering=12.0)
    cfg["grids"]["spatial"]["h"] = 0.3
    cfg["grids"]["spectral"]["n_nodes"] = 16
    cfg["solver"].update(mode="combined", tol=1.0e-8)
    cfg["output"] = {"dir": str(tmp_path / "out"), "dump_field": False, "entropy": False}
    assert cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)]) == 0
    nodes = read_nodes(tmp_path / "out" / "nodes.csv")
    assert np.max(np.abs(nodes["conservation_residual"])) <= 1e-4 * 4 * np.pi * np.max(nodes["w"])


ORACLE_CFG = {
    "domain": {"shape": "ball", "radius": 1.0},
    "medium": {"absorption": 1.0},
    "boundary": {"kind": "constant", "value": 0.3},
    "grids": {
        "spatial": {"h": 2.0 / 7.0},
        "angular": {"n_polar": 2, "n_azimuth": 13},
        "spectral": {"n_nodes": 8, "t_ref": 1.0},
    },
    "solver": {"mode": "grey", "tol": 1.0e-10, "max_iter": 400},
    "oracle": {"tolerance": 5.0e-3},
}


def test_oracle_grey_agrees(tmp_path, capsys):
    code = cli.main(["--quiet", "oracle", "--config", write_cfg(tmp_path, ORACLE_CFG)])
    assert code == 0
    assert "max=" in capsys.readouterr().out


def test_oracle_mismatched_tolerance(tmp_path, capsys):
    cfg = json.loads(json.dumps(ORACLE_CFG))
    cfg["oracle"]["tolerance"] = 1e-12
    code = cli.main(["--quiet", "oracle", "--config", write_cfg(tmp_path, cfg)])
    assert code == 3
    out = capsys.readouterr().out
    assert "max=" in out  # measured deviation is printed


def test_entropy_command_equilibrium(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["output"]["dir"] = str(tmp_path / "out4")
    cfg["output"]["entropy"] = False
    assert cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)]) == 0
    assert cli.main(["entropy", str(tmp_path / "out4" / "solution.rbf")]) == 0
    out = capsys.readouterr().out
    prod = float([l for l in out.splitlines() if "production_volume_integral" in l][0].split()[-1])
    scale = 4 * np.pi * SIGMA * (4 * np.pi / 3)
    assert prod <= 1e-8 * scale


def test_entropy_command_isotropic_combined_dump(tmp_path, capsys):
    # An isotropic combined run stores no radiance; its dump holds T, w and
    # J0, from which the entropy report re-evaluates the radiance.
    cfg = _edited(BASE_EQ, {"solver.mode": "combined", "medium.scattering": 0.5,
                            "grids.spatial.h": 0.25, "output.entropy": False,
                            "output.dir": str(tmp_path / "out_iso")})
    assert cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)]) == 0
    dump = str(tmp_path / "out_iso" / "solution.rbf")
    assert set(cli.read_field_dump(dump)[1]) == {"T", "w", "J0"}
    assert cli.main(["entropy", dump]) == 0
    out = capsys.readouterr().out
    prod = float([l for l in out.splitlines() if "production_volume_integral" in l][0].split()[-1])
    assert prod <= 1e-8 * 4 * np.pi * SIGMA * (4 * np.pi / 3)


def test_entropy_command_reads_dump_with_removed_keys(tmp_path, capsys):
    # Dumps written before the no-op 'seed' and 'threads' keys were removed
    # carry them in the header config.
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["output"]["dir"] = str(tmp_path / "out_old")
    cfg["output"]["entropy"] = False
    assert cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)]) == 0
    header, arrays = cli.read_field_dump(str(tmp_path / "out_old" / "solution.rbf"))
    old = str(tmp_path / "old.rbf")
    cli.write_field_dump(old, cli.solution_from_dump(header, arrays),
                         dict(header["config"], seed=3, threads=2))
    assert cli.read_field_dump(old)[0]["config"]["seed"] == 3
    assert cli.main(["entropy", old]) == 0
    assert "production_volume_integral" in capsys.readouterr().out


def test_entropy_command_zero_field(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["boundary"] = {"kind": "zero"}
    cfg["output"]["dir"] = str(tmp_path / "out5")
    cfg["output"]["entropy"] = False
    assert cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)]) == 0
    assert cli.main(["entropy", str(tmp_path / "out5" / "solution.rbf")]) == 0
    out = capsys.readouterr().out
    for key in ("phi_out", "phi_in", "i_out", "i_in", "production_volume_integral"):
        val = float([l for l in out.splitlines() if key in l][0].split()[-1])
        assert val == 0.0


def test_entropy_command_two_sided_beam(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_EQ))
    cfg["boundary"] = {
        "kind": "tabulated",
        "spectrum": [[0.5, 0.5], [1.0, 1.0], [3.0, 0.7], [10.0, 0.05]],
        "axis": [0.0, 0.0, 1.0],
        "angular_profile": [[-1.0, 1.6], [-0.2, 0.2], [0.2, 0.2], [1.0, 1.6]],
    }
    cfg["output"]["dir"] = str(tmp_path / "out6")
    cfg["output"]["entropy"] = False
    assert cli.main(["--quiet", "solve", "--config", write_cfg(tmp_path, cfg)]) == 0
    assert cli.main(["entropy", str(tmp_path / "out6" / "solution.rbf")]) == 0
    out = capsys.readouterr().out
    phi_out = float([l for l in out.splitlines() if "phi_out" in l][0].split()[-1])
    phi_in = float([l for l in out.splitlines() if "phi_in" in l][0].split()[-1])
    assert phi_out + phi_in > 0.0


def _dump_bytes(header: bytes, header_len: int | None = None) -> bytes:
    """A field dump with the given JSON header and no array data."""
    length = len(header) if header_len is None else header_len
    return cli.DUMP_MAGIC + struct.pack("<I", 1) + struct.pack("<Q", length) + header


GOOD_HEADER = json.dumps({"arrays": [], "mode": "grey", "config": {}}).encode()


def _config_header(config: dict) -> bytes:
    """A grey dump header with an empty temperature array and ``config``."""
    return json.dumps({"arrays": [{"name": "T", "shape": [0]}], "mode": "grey",
                       "config": {"medium": {"absorption": 1.0}, **config}}).encode()


@pytest.fixture(scope="module")
def combined_dump(tmp_path_factory):
    """(header, arrays) of the field dump of a small isotropic combined run."""
    out = tmp_path_factory.mktemp("combined_dump")
    cfg = _edited(BASE_EQ, {"solver.mode": "combined", "medium.scattering": 0.5,
                            "grids.spatial.h": 0.3, "grids.angular.n_polar": 2,
                            "grids.angular.n_azimuth": 4, "grids.spectral.n_nodes": 8,
                            "output.entropy": False, "output.dir": str(out)})
    assert cli.main(["--quiet", "solve", "--config", write_cfg(out, cfg)]) == 0
    return cli.read_field_dump(str(out / "solution.rbf"))


def _dump_of(header: dict, arrays: dict) -> bytes:
    """A field dump of ``arrays`` under ``header``, whose array list is rebuilt."""
    header = dict(header, arrays=[{"name": k, "shape": list(v.shape)} for k, v in arrays.items()])
    return _dump_bytes(json.dumps(header).encode()) + b"".join(
        np.ascontiguousarray(v, dtype="<f8").tobytes() for v in arrays.values())


def _changed(name, change):
    """A case: the combined run's dump with array ``name`` replaced by change(array)."""
    return lambda header, arrays: _dump_of(header, dict(arrays, **{name: change(arrays[name])}))


@pytest.mark.parametrize("content, key", [
    (b"not a dump", ""),
    (_dump_bytes(b"{}", header_len=2**64 - 1), ""),
    (_dump_bytes(GOOD_HEADER, header_len=len(GOOD_HEADER) + 1000), ""),
    (_dump_bytes(b"[]"), ""),
    (_dump_bytes(b'{"arrays": 1}'), ""),
    (_dump_bytes(b'{"arrays": [{"name": "T"}], "mode": "grey", "config": {}}'), ""),
    (_dump_bytes(b'{"arrays": [{"name": "T", "shape": [1000]}], "mode": "grey", "config": {}}'),
     ""),
    (_dump_bytes(GOOD_HEADER), ""),
    (_dump_bytes(json.dumps({"arrays": [], "mode": "scattering", "config": {}}).encode()),
     "'I'"),
    (_dump_bytes(_config_header({"domain": {"shape": "cube"}})), "domain.shape"),
    (_dump_bytes(_config_header({"grids": {"spatial": {"h": "x"}}})), "grids.spatial.h"),
    (_changed("T", lambda T: np.concatenate([[NAN], T[1:]])), "'T'"),
    (_changed("T", np.negative), "'T'"),
    (_changed("T", lambda T: T[:-1]), "'T'"),
    (_changed("w", lambda w: w[:-1]), "'w'"),
    (_changed("J0", lambda J0: J0[:, :-1]), "'J0'"),
], ids=["junk", "header_len_max", "header_past_end", "header_list", "arrays_int",
        "array_without_shape", "array_past_end", "no_temperature", "no_radiance",
        "config_domain_cube", "config_spatial_h_text", "temperature_nan",
        "temperature_negated", "temperature_short", "w_short", "J0_short"])
def test_entropy_command_unreadable(tmp_path, capsys, combined_dump, content, key):
    # Regression: a huge or overlong header length, a header of the wrong
    # structure and a grey dump without its temperature ended in a traceback
    # (OverflowError, TypeError, KeyError, AttributeError); a bad config in
    # a well-formed header exited 1 with a message that named no key.  A NaN
    # or negated temperature exited 0 with a meaningless report, a short
    # temperature exited 1 with numpy's broadcast message, and a short w
    # loaded silently.
    if callable(content):
        content = content(*combined_dump)
    bad = tmp_path / "junk.rbf"
    bad.write_bytes(content)
    assert cli.main(["entropy", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and key in err


DUMP_MODES = ["scattering", "grey", "spectral", "combined", "bogus", None, 3]
DUMP_NAMES = ["T", "w", "J0", "I", "X", ""]
HEADER_LEN_AT = len(cli.DUMP_MAGIC) + 4  # offset of the u64 header length


def _mutated_dump(header, arrays, raw, data):
    """One drawn mutation of a dump: (bytes, whether an array holds a value that is
    not finite, or a negative temperature)."""
    kind = data.draw(st.sampled_from(
        ["truncate", "header_len", "mode", "name", "shape", "config", "value"]))
    header = json.loads(json.dumps(header))
    (hlen,) = struct.unpack_from("<Q", raw, HEADER_LEN_AT)
    body = raw[HEADER_LEN_AT + 8 + hlen:]
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))], False
    if kind == "header_len":
        new = data.draw(st.one_of(st.integers(0, hlen - 1), st.integers(hlen + 1, 2**64 - 1)))
        return raw[:HEADER_LEN_AT] + struct.pack("<Q", new) + raw[HEADER_LEN_AT + 8:], False
    if kind == "value":
        name = data.draw(st.sampled_from(sorted(arrays)))
        values = arrays[name].copy()
        values.flat[data.draw(st.integers(0, values.size - 1))] = data.draw(
            st.sampled_from([NAN, np.inf, -np.inf, -1.0]))
        invalid = not np.all(np.isfinite(values)) or name == "T" and np.min(values) < 0.0
        return _dump_of(header, dict(arrays, **{name: values})), invalid
    if kind == "mode":
        header["mode"] = data.draw(st.sampled_from(DUMP_MODES))
    elif kind == "config":
        _mutate_config(header["config"], data)
    else:
        item = data.draw(st.sampled_from(header["arrays"]))
        if kind == "name":
            item["name"] = data.draw(st.sampled_from(DUMP_NAMES))
        else:
            item["shape"] = data.draw(st.sampled_from(_reshaped(item["shape"]) + [
                [n + 1 for n in item["shape"]], item["shape"] + [1], [0]]))
    return _dump_bytes(json.dumps(header).encode()) + body, False


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_entropy_command_dump_mutations(tmp_path_factory, combined_dump, data):
    # One mutation of a valid dump exits 0 with a report, or 1-3 with a
    # message, never with a traceback; an array holding NaN or inf, or a
    # negative temperature, never exits 0.
    path = tmp_path_factory.mktemp("dump") / "mutated.rbf"
    content, invalid = _mutated_dump(*combined_dump, _dump_of(*combined_dump), data)
    path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["entropy", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert not invalid
        assert "entropy report" in out.getvalue()
    else:
        assert err.getvalue().strip()
