"""Correctness checks on the outputs of one `radbody solve` run."""

from __future__ import annotations

import csv
import json
import math
import os

# Criterion 05's budget for max |T - T_b| / T_b at h = 0.1.
EQUILIBRIUM_BUDGET = 1e-2
# Criterion 08: phi_out + phi_in >= -1e-6 |phi_out|.
ENTROPY_FLOW_RTOL = 1e-6
# Pointwise production must be >= 0 up to rounding, taken relative to the
# production volume integral.
PRODUCTION_RTOL = 1e-12


def check_run(outdir: str, cfg: dict, exit_code: int) -> tuple[list[str], dict]:
    """(failures, measured values) for one run; no failures means it passed."""
    failures: list[str] = []
    measured: dict = {"exit_code": exit_code}
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    try:
        with open(os.path.join(outdir, "report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(outdir, "nodes.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError) as exc:
        failures.append(f"unreadable output: {exc}")
        return failures, measured

    status = report["solver_report"]["status"]
    measured["status"] = status
    measured["iterations"] = report["solver_report"]["iterations"]
    if status != "converged":
        failures.append(f"status {status!r}")

    header, body = rows[0], rows[1:]
    measured["rows"] = len(body)
    if len(body) != report["n_nodes"]:
        failures.append(f"nodes.csv has {len(body)} rows, report says {report['n_nodes']}")
    if any(len(r) != len(header) for r in body):
        failures.append("nodes.csv has ragged rows")
        return failures, measured
    values = [float(v) for r in body for v in r]
    if not all(math.isfinite(v) for v in values):
        failures.append("nodes.csv holds non-finite values")
        return failures, measured

    boundary = cfg["boundary"]
    if boundary["kind"] == "equilibrium":
        t_b = float(boundary["temperature"])
        col = header.index("T")
        dev = max(abs(float(r[col]) - t_b) for r in body) / t_b
        measured["max_rel_T_dev"] = dev
        if not dev <= EQUILIBRIUM_BUDGET:
            failures.append(f"max |T - T_b|/T_b = {dev:.3g} > {EQUILIBRIUM_BUDGET:g}")
    ent = report.get("entropy_report")
    if cfg["output"].get("entropy", True):
        if ent is None:
            failures.append("entropy report missing")
        else:
            min_prod = ent["min_pointwise_production"]
            floor = -PRODUCTION_RTOL * abs(ent["production_volume_integral"])
            net = ent["phi_out"] + ent["phi_in"]
            measured["min_pointwise_production"] = min_prod
            measured["phi_out_plus_phi_in"] = net
            if not min_prod >= floor:
                failures.append(f"min pointwise production {min_prod:.3g} < {floor:.3g}")
            if not net >= -ENTROPY_FLOW_RTOL * abs(ent["phi_out"]):
                failures.append(f"phi_out + phi_in = {net:.3g} below criterion 08's bound")
    return failures, measured
