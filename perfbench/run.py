"""Benchmark of `radbody solve`, one fresh interpreter per sample.

    python3 perfbench/run.py --workload spectral-eq --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --write perfbench/baseline.json

Run from a checkout of the repository: the package is imported from
``src/`` (``PYTHONPATH=src``), as the test suite does.  Closed loop, one
client: one child at a time.  ``--trace 0`` times untraced solves and
set-up probes and reports the end-to-end metrics; ``--trace 1`` pairs an
untraced solve with a traced one (see ``tracing.py``) and reports the
per-layer metrics.  Every solve is checked (``checks.py``); the last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import yaml

from checks import check_run
from workloads import DEFAULT_SEED, WHY, WORKLOADS, make_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# A run must end within 180 s; a child still running at this point of its
# session is killed and counts as failed.
SESSION_LIMIT_S = 170.0
SETUP_PROBES = 5
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# A fresh interpreter imports radbody and builds everything a solve needs
# before the solver is entered, through the public cli functions.
SETUP_CODE = (
    "import sys\n"
    "from radbody import cli\n"
    "cfg = cli.load_config(sys.argv[1])\n"
    "domain = cli.build_domain(cfg)\n"
    "cli.build_medium(cfg)\n"
    "cli.build_source(cfg)\n"
    "cli.build_grids(cfg, domain)\n"
)

ALL = WORKLOADS
SPEC, BEAM, THICK = WORKLOADS

# Per-layer metrics: (name, unit, source, workloads it should move).
# A source is (kind, key): kind "time"/"calls" reads a traced function group,
# "count" a counter, "derived" is computed in layer_metrics().  On each listed
# workload a "time"/"calls"/"count" metric must record at least one call.
LAYER_METRICS = (
    ("transport.conv_batch_s", "s", ("time", "transport.apply_attenuation_batch"), (SPEC,)),
    ("transport.conv_batch_calls", "count", ("calls", "transport.apply_attenuation_batch"), (SPEC,)),
    ("transport.conv_batch_channels", "count", ("count", "conv_batch_channels"), (SPEC,)),
    ("transport.fft_points", "count", ("count", "fft_points"), (SPEC, THICK)),
    ("transport.fft_bytes_computed", "B", ("derived", None), ()),
    ("transport.stencil_builds", "count", ("calls", "transport.AttenuationOperator.__init__"), (SPEC,)),
    ("transport.stencil_build_s", "s", ("time", "transport.AttenuationOperator.__init__"), (SPEC,)),
    ("transport.operator_lookups", "count", ("calls", "transport.attenuation_operator"), (SPEC,)),
    ("transport.operator_cache_hit_ratio", "ratio", ("derived", None), ()),
    ("transport.conv_apply_s", "s", ("time", "transport.conv_apply"), (THICK,)),
    ("transport.conv_apply_calls", "count", ("calls", "transport.conv_apply"), (THICK,)),
    ("solvers.outer_iterations", "count", ("derived", None), ()),
    ("solvers.solve_s", "s", ("time", "solvers.solve"), (THICK, SPEC)),
    ("spectral.invert_s", "s", ("time", "spectral.invert"), (SPEC,)),
    ("spectral.invert_calls", "count", ("calls", "spectral.invert"), (SPEC,)),
    ("spectral.planck_s", "s", ("time", "spectral.planck"), (SPEC,)),
    ("spectral.planck_calls", "count", ("calls", "spectral.planck"), (SPEC,)),
    ("transport.ray_sweep_s", "s", ("time", "transport.RaySweeper.line_integrals"), (BEAM,)),
    ("transport.ray_sweep_calls", "count", ("calls", "transport.RaySweeper.line_integrals"), (BEAM,)),
    ("transport.ray_sweep_channels", "count", ("count", "ray_sweep_channels"), (BEAM,)),
    ("transport.ray_sweepers_built", "count", ("calls", "transport.RaySweeper.__init__"), (BEAM,)),
    ("solvers.interior_radiance_s", "s", ("time", "solvers.Solution.interior_radiance"), (BEAM,)),
    ("solvers.boundary_radiance_s", "s", ("time", "solvers.Solution.boundary_radiance"), (BEAM,)),
    ("entropy.report_s", "s", ("time", "entropy.solution_entropy_report"), (BEAM,)),
    ("entropy.production_density_s", "s", ("time", "entropy.production_density"), (BEAM,)),
    ("transport.boundary_term_s", "s", ("time", "transport.boundary_attenuation_nodes"), ALL),
    ("transport.residual_s", "s", ("time", "transport.conservation_residual"), ALL),
    ("cli.write_node_table_s", "s", ("time", "cli.write_node_table"), ALL),
    ("cli.load_config_s", "s", ("time", "cli.load_config"), ALL),
    ("geometry.exit_lengths_s", "s", ("time", "geometry.exit_lengths"), (BEAM,)),
    ("geometry.exit_lengths_calls", "count", ("calls", "geometry.exit_lengths"), (BEAM,)),
    ("quadrature.build_spatial_s", "s", ("time", "quadrature.build_spatial"), ALL),
    ("quadrature.embed_s", "s", ("time", "quadrature.SpatialGrid.embed"), (BEAM,)),
    ("quadrature.embed_calls", "count", ("calls", "quadrature.SpatialGrid.embed"), (BEAM,)),
    ("quadrature.sample_s", "s", ("time", "quadrature.SpatialGrid.sample"), (BEAM,)),
    ("cli.self_s", "s", ("self", "cli"), ()),
    ("solvers.self_s", "s", ("self", "solvers"), ()),
    ("transport.self_s", "s", ("self", "transport"), ()),
    ("spectral.self_s", "s", ("self", "spectral"), ()),
    ("entropy.self_s", "s", ("self", "entropy"), ()),
    ("geometry.self_s", "s", ("self", "geometry"), ()),
    ("quadrature.self_s", "s", ("self", "quadrature"), ()),
    ("traced_run_s", "s", ("derived", None), ()),
    ("trace_overhead_s", "s", ("derived", None), ()),
)


# What each workload was chosen to load, checked on the traced run.
def layer_claims(name: str, m: dict) -> list[tuple[str, bool]]:
    run_s = m["traced_run_s"]
    if name == SPEC:
        return [("conv_batch_s >= run_s/2", m["transport.conv_batch_s"] >= run_s / 2)]
    if name == BEAM:
        return [("ray_sweep_s >= run_s/2", m["transport.ray_sweep_s"] >= run_s / 2),
                ("conv_batch_calls == 0", m["transport.conv_batch_calls"] == 0)]
    return [("conv_apply_s >= run_s/2", m["transport.conv_apply_s"] >= run_s / 2),
            ("outer_iterations >= 1000", m["solvers.outer_iterations"] >= 1000),
            ("invert_calls == 0", m["spectral.invert_calls"] == 0)]


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log_path: Path, timeout: float) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MiB) of one child process."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.send_signal, (signal.SIGKILL,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def solve_argv(cfg_path: Path, outdir: Path, profile: Path | None = None) -> list[str]:
    args = ["--quiet", "solve", "--config", str(cfg_path), "--output", str(outdir)]
    if profile is None:
        return [sys.executable, "-m", "radbody.cli", *args]
    return [sys.executable, str(BENCH_DIR / "tracing.py"), "--profile", str(profile), "--", *args]


class Session:
    """One workload and seed: its config, scratch directory and outcomes."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.workload = workload
        self.cfg = make_config(workload, seed, tiny=tiny)
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg_path = self.dir / "run.yaml"
        self.cfg_path.write_text(yaml.safe_dump(self.cfg, sort_keys=True))
        self.deadline = time.perf_counter() + SESSION_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._n = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another session still uses it
            pass

    def _next(self, tag: str) -> Path:
        self._n += 1
        return self.dir / f"{tag}{self._n}"

    def _run(self, argv: list[str], log_path: Path):
        return run_child(argv, log_path, self.deadline - time.perf_counter())

    def _record(self, label: str, failures: list[str], measured: dict):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.notes.append(f"{label}: FAIL {'; '.join(failures)}")
        print(f"  {label}: {json.dumps(measured, sort_keys=True)}"
              f"{' FAIL ' + '; '.join(failures) if failures else ''}")

    def setup_probe(self) -> float:
        log = self._next("setup")
        code, wall, _ = self._run([sys.executable, "-c", SETUP_CODE, str(self.cfg_path)],
                                  log.with_suffix(".log"))
        self._record("setup", [f"exit code {code}"] if code else [],
                     {"setup_s": wall, "exit_code": code})
        return wall

    def solve(self, reference: Path | None = None):
        """(wall, rss, output dir, profile or None, measured) of one checked solve.

        With ``reference``, the untraced run's output directory, the solve is
        traced and its nodes.csv must equal the reference byte for byte.
        """
        traced = reference is not None
        out = self._next("traced" if traced else "solve")
        profile = out / "profile.json" if traced else None
        out.mkdir()
        code, wall, rss = self._run(solve_argv(self.cfg_path, out, profile), out / "log.txt")
        failures, measured = check_run(str(out), self.cfg, code)
        prof = None
        if traced:
            try:
                prof = json.loads(profile.read_text())
                same = (out / "nodes.csv").read_bytes() == (reference / "nodes.csv").read_bytes()
            except (OSError, ValueError) as exc:
                failures.append(f"no trace profile or nodes.csv: {exc}")
            else:
                if not same:
                    failures.append("nodes.csv differs from the untraced run")
        measured.update(run_s=wall, peak_rss_mb=rss)
        self._record("traced" if traced else "solve", failures, measured)
        return wall, rss, out, prof, measured


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def keep_going(start: float, durations: list[float], seconds: float) -> bool:
    """Start another sample only if a typical one still fits in the budget."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(durations) <= seconds


def measure_end_to_end(sess: Session, seconds: float) -> dict:
    start = time.perf_counter()
    setups = [sess.setup_probe() for _ in range(SETUP_PROBES)]
    runs, rss = [], []
    while True:
        wall, peak, out, _, _ = sess.solve()
        shutil.rmtree(out, ignore_errors=True)
        runs.append(wall)
        rss.append(peak)
        if not keep_going(start, runs, seconds):
            break
    return {"run_s": summary(runs), "setup_s": summary(setups), "peak_rss_mb": summary(rss)}


def layer_metrics(prof: dict, iterations: int, traced_s: float, untraced_s: float) -> dict:
    times, calls = prof["time_s"], prof["calls"]
    selfs, counters = prof["self_s"], prof["counters"]
    lookups = calls.get("transport.attenuation_operator", 0)
    builds = calls.get("transport.AttenuationOperator.__init__", 0)
    derived = {
        "transport.fft_bytes_computed":
            counters.get("fft_transforms", 0) * counters.get("fft_points", 0) * 16,
        "transport.operator_cache_hit_ratio": (lookups - builds) / lookups if lookups else 0.0,
        "solvers.outer_iterations": iterations,
        "traced_run_s": traced_s,
        "trace_overhead_s": traced_s - untraced_s,
    }
    table = {"time": times, "calls": calls, "count": counters, "self": selfs}
    out = {}
    for name, _, (kind, key), _ in LAYER_METRICS:
        out[name] = derived[name] if kind == "derived" else table[kind].get(key, 0)
    return out


def missed_bindings(workload: str, prof: dict) -> list[str]:
    """Metrics that should move on this workload but recorded no call."""
    missed = []
    for name, _, (kind, key), moves in LAYER_METRICS:
        if workload not in moves:
            continue
        seen = prof["counters"].get(key, 0) if kind == "count" else prof["calls"].get(key, 0)
        if seen < 1:
            missed.append(name)
    return missed


def measure_layers(sess: Session, seconds: float) -> dict:
    start = time.perf_counter()
    per_pair, durations = [], []
    while True:
        plain_s, _, plain_out, _, _ = sess.solve()
        traced_s, _, traced_out, prof, measured = sess.solve(reference=plain_out)
        if prof is not None:
            per_pair.append(layer_metrics(prof, measured.get("iterations", 0), traced_s, plain_s))
            missed = missed_bindings(sess.workload, prof)
            if missed:
                sess.notes.append(f"no calls recorded for {', '.join(missed)}")
        shutil.rmtree(plain_out, ignore_errors=True)
        shutil.rmtree(traced_out, ignore_errors=True)
        durations.append(plain_s + traced_s)
        if not keep_going(start, durations, seconds):
            break
    if not per_pair:
        return {}
    return {name: statistics.median(p[name] for p in per_pair) for name, *_ in LAYER_METRICS}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "PyYAML"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "versions": versions,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "commit": commit,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(the result line, details: quartiles or layer claims, and notes)."""
    print(f"[perfbench] {workload} seed={seed} trace={int(trace)}: {WHY[workload]}")
    print(f"[perfbench] environment {json.dumps(environment(seed), sort_keys=True)}")
    sess = Session(workload, seed)
    try:
        if trace:
            metrics = measure_layers(sess, seconds)
            units = {name: unit for name, unit, *_ in LAYER_METRICS}
            for name, value in metrics.items():
                print(f"  {name:<36s} {value:.6g} {units[name]}")
            claims = dict(layer_claims(workload, metrics)) if metrics else {}
            for claim, ok in claims.items():
                print(f"  claim {claim}: {'holds' if ok else 'DOES NOT HOLD'}")
            details = {"claims": claims}
            result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        else:
            stats = measure_end_to_end(sess, seconds)
            units = dict(END_TO_END)
            for name, s in stats.items():
                print(f"  {name:<12s} median={s['median']:.6g} q1={s['q1']:.6g} "
                      f"q3={s['q3']:.6g} n={s['n']} {units[name]}")
            result_metrics = {k: {"value": s["median"], "unit": units[k]}
                              for k, s in stats.items()}
            details = {"quartiles": stats}
    finally:
        sess.close()
    for note in sess.notes:
        print(f"  note: {note}")
    print(f"  failed {sess.failed} of {sess.attempted} runs")
    correct = sess.failed == 0 and bool(result_metrics)
    details["notes"] = sess.notes
    return {"correct": correct, "attempted": max(sess.attempted, 1),
            "failed": sess.failed, "metrics": result_metrics}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None,
                        help="with --workload all: write every result to this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "radbody" / "cli.py").is_file():
        print(f"error: no radbody sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
        return 0
    results = {}
    for name in WORKLOADS:
        e2e, e2e_details = run_workload(name, args.seed, args.seconds, False)
        layers, layer_details = run_workload(name, args.seed, args.seconds, True)
        results[name] = {"end_to_end": {**e2e, **e2e_details},
                         "per_layer": {**layers, **layer_details}}
    print(f"[perfbench] summary, seed {args.seed}")
    for name, res in results.items():
        e2e = res["end_to_end"]
        cells = "  ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in e2e["metrics"].items())
        print(f"  {name:<18s} {cells}  failed={e2e['failed']}/{e2e['attempted']}")
    if args.write:
        doc = {"environment": environment(args.seed), "seconds": args.seconds,
               "workloads": {n: {"why": WHY[n], **r} for n, r in results.items()}}
        Path(args.write).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    ok = all(r["end_to_end"]["correct"] and r["per_layer"]["correct"] for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
