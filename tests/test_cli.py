import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
import yaml

from radbody import cli, spectral, transport

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
    "seed": 3,
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


IMPORT_PROBE = """
import sys
from radbody import cli
for cfg, out in zip(sys.argv[1:3], sys.argv[4:6]):
    assert cli.main(["--quiet", "solve", "--config", cfg, "--output", out]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
print(cli.main(["--quiet", "solve", "--config", sys.argv[3], "--output", sys.argv[6]]))
"""


def test_ray_free_solves_import_no_scipy(tmp_path):
    # Only the ray sweeps need scipy (scipy.sparse); a grey or spectral solve
    # without the entropy report loads no scipy module at all.
    small = _edited(BASE_EQ, {"grids.spatial.h": 0.25, "output.dump_field": False,
                              "output.entropy": False})
    cfgs = [small,
            _edited(small, {"solver.mode": "spectral", "medium.absorption": {"table": MILD_TABLE}}),
            _edited(small, {"output.entropy": True})]
    paths = [write_cfg(tmp_path, c, f"run{k}.yaml") for k, c in enumerate(cfgs)]
    outs = [str(tmp_path / f"out{k}") for k in range(len(cfgs))]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *paths, *outs], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0"]


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
    # sidecar descriptor exists
    assert os.path.exists(dump + ".txt")


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


@pytest.mark.parametrize("content", [
    b"not a dump",
    _dump_bytes(b"{}", header_len=2**64 - 1),
    _dump_bytes(GOOD_HEADER, header_len=len(GOOD_HEADER) + 1000),
    _dump_bytes(b"[]"),
    _dump_bytes(b'{"arrays": 1}'),
    _dump_bytes(b'{"arrays": [{"name": "T"}], "mode": "grey", "config": {}}'),
    _dump_bytes(b'{"arrays": [{"name": "T", "shape": [1000]}], "mode": "grey", "config": {}}'),
    _dump_bytes(GOOD_HEADER),
], ids=["junk", "header_len_max", "header_past_end", "header_list", "arrays_int",
        "array_without_shape", "array_past_end", "no_temperature"])
def test_entropy_command_unreadable(tmp_path, capsys, content):
    # Regression: a huge or overlong header length, a header of the wrong
    # structure and a grey dump without its temperature ended in a traceback
    # (OverflowError, TypeError, KeyError, AttributeError).
    bad = tmp_path / "junk.rbf"
    bad.write_bytes(content)
    assert cli.main(["entropy", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
