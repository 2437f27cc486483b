"""Tests of the benchmark itself: seeds, checks, tracer bindings, contract.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import inspect
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from checks import check_run
from workloads import WORKLOADS, make_config


def test_seed_changes_only_physical_inputs():
    for name in WORKLOADS:
        a, b = make_config(name, 1), make_config(name, 2)
        assert a == make_config(name, 1)
        assert a != b
        assert a["grids"] == b["grids"] and a["solver"] == b["solver"]


def test_seed_ranges():
    for seed in range(50):
        spec = make_config("spectral-eq", seed)
        assert 0.8 <= spec["boundary"]["temperature"] <= 1.0
        for (_, a), nominal in zip(spec["medium"]["absorption"]["table"], (1.25, 1.0, 0.75)):
            assert abs(a / nominal - 1.0) <= 0.02
        beam = make_config("grey-beam-entropy", seed)
        for (_, a), nominal in zip(beam["boundary"]["angular_profile"], (1.6, 0.2, 0.2, 1.6)):
            assert abs(a / nominal - 1.0) <= 0.1
        thick = make_config("grey-thick", seed)
        assert 19.8 <= thick["medium"]["absorption"] <= 20.2


def _snapshot():
    mods = [importlib.import_module(f"radbody.{layer}") for layer in tracing.LAYERS]
    classes = [getattr(importlib.import_module(f"radbody.{m}"), c) for m, c, _ in tracing.CLASSES]
    return {(id(owner), attr): obj
            for owner in mods + classes for attr, obj in vars(owner).items()
            if inspect.isfunction(obj)}


def test_tracer_wraps_name_bindings_and_restores_them():
    from radbody import cli, quadrature, solvers, transport

    before = _snapshot()
    tracer = tracing.Tracer().install()
    try:
        for name in ("attenuation_operator", "boundary_attenuation_nodes",
                     "scattered_mean_intensity"):
            assert getattr(solvers, name).__wrapped__ is getattr(transport, name).__wrapped__
        assert cli.build_spatial.__wrapped__ is quadrature.build_spatial.__wrapped__
        assert solvers.RaySweeper is transport.RaySweeper
        assert hasattr(transport.RaySweeper.line_integrals, "__wrapped__")
        assert hasattr(quadrature.SpatialGrid.embed, "__wrapped__")
    finally:
        tracer.uninstall()
    assert _snapshot() == before


def test_check_run_catches_bad_outputs(tmp_path):
    cfg = make_config("grey-thick", 1)
    t_b = cfg["boundary"]["temperature"]
    report = {"solver_report": {"status": "converged", "iterations": 3},
              "n_nodes": 2, "entropy_report": None}
    (tmp_path / "report.json").write_text(json.dumps(report))
    good = f"x,y,z,T,w,conservation_residual\n0,0,0,{t_b},1,0\n1,0,0,{t_b},1,0\n"
    (tmp_path / "nodes.csv").write_text(good)
    assert check_run(str(tmp_path), cfg, 0)[0] == []
    assert check_run(str(tmp_path), cfg, 2)[0] == ["exit code 2"]

    (tmp_path / "nodes.csv").write_text(good.replace(f"{t_b},1,0\n1", f"{t_b},nan,0\n1"))
    assert "non-finite" in check_run(str(tmp_path), cfg, 0)[0][0]
    (tmp_path / "nodes.csv").write_text(good.replace(f"1,0,0,{t_b}", f"1,0,0,{1.1 * t_b}"))
    assert "T_b" in check_run(str(tmp_path), cfg, 0)[0][0]
    (tmp_path / "nodes.csv").write_text(good.rsplit("1,0,0", 1)[0])
    assert "rows" in check_run(str(tmp_path), cfg, 0)[0][0]
    report["solver_report"]["status"] = "max_iter"
    (tmp_path / "report.json").write_text(json.dumps(report))
    (tmp_path / "nodes.csv").write_text(good)
    assert check_run(str(tmp_path), cfg, 0)[0] == ["status 'max_iter'"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_traced_matches_untraced(workload):
    """One untraced and one traced solve on the coarsest grids.

    Both pass every check, their nodes.csv are byte-identical, and every
    per-layer metric meant to move on this workload records a call.
    """
    sess = run.Session(workload, seed=7, tiny=True)
    try:
        metrics = run.measure_layers(sess, seconds=0.0)
    finally:
        sess.close()
    assert sess.notes == [] and sess.failed == 0 and sess.attempted == 2
    assert set(metrics) == {name for name, *_ in run.LAYER_METRICS}


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *_ in run.LAYER_METRICS]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grey-thick",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
