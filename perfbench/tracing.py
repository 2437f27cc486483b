"""Spans and counters around radbody's public functions, from outside the program.

``Tracer.install()`` wraps every public module-level function of the traced
modules, rebinding it wherever one of those modules holds it by name (so
``solvers.attenuation_operator`` is wrapped as well as
``transport.attenuation_operator``), and wraps the methods of a few classes
at the class.  ``Tracer.uninstall()`` puts every original back.

Each wrapped call is a span.  Per function the tracer keeps inclusive time
and call count of outermost calls (a call nested in a call of the same group
is not counted twice), and per layer (module) the self time: span time
minus the time of child spans.

Run as a script, it performs one traced ``radbody solve`` and writes the
totals as JSON:

    PYTHONPATH=src python perfbench/tracing.py --profile OUT.json -- \\
        --quiet solve --config run.yaml --output DIR
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "solvers", "transport", "spectral", "entropy", "geometry", "quadrature")

# (module, class, layer): methods wrapped at the class, so every instance and
# every binding of the class sees them.
CLASSES = (
    ("transport", "AttenuationOperator", "transport"),
    ("transport", "RaySweeper", "transport"),
    ("solvers", "Solution", "solvers"),
    ("quadrature", "SpatialGrid", "quadrature"),
)

# Groups whose calls are merged: inclusive time counts only the outermost
# call, so row_mass -> apply -> apply_box is one convolution apply.
MERGED = {
    "transport.AttenuationOperator.apply": "transport.conv_apply",
    "transport.AttenuationOperator.apply_box": "transport.conv_apply",
    "transport.AttenuationOperator.row_mass": "transport.conv_apply",
    "solvers.solve_scattering": "solvers.solve",
    "solvers.solve_grey": "solvers.solve",
    "solvers.solve_spectral": "solvers.solve",
    "solvers.solve_combined": "solvers.solve",
    "solvers.solve_combined_full": "solvers.solve",
    "spectral.invert_emission_many": "spectral.invert",
    "spectral.invert_emission": "spectral.invert",
}


class Tracer:
    def __init__(self):
        self.time = defaultdict(float)     # group -> inclusive seconds
        self.calls = defaultdict(int)      # group -> outermost calls
        self.self_time = defaultdict(float)  # layer -> self seconds
        self.count = defaultdict(int)      # named counters
        self._depth = defaultdict(int)
        self._stack: list[list] = []       # [child seconds] per open span
        self._restore: list[tuple] = []

    # -- span bookkeeping --------------------------------------------------

    def _wrap(self, func, layer: str, name: str, after=None):
        group = MERGED.get(name, name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._depth[group] += 1
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._depth[group] -= 1
                if tracer._depth[group] == 0:
                    tracer.time[group] += dt
                    tracer.calls[group] += 1
                tracer.self_time[layer] += dt - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters read from arguments -------------------------------------

    def _after_apply_box(self, args, kwargs, result):
        box = args[1] if len(args) > 1 else kwargs["box"]
        channels = math.prod(box.shape[:-3])
        self.count["fft_transforms"] += 2 * channels

    def _after_batch(self, args, kwargs, result):
        betas = args[1] if len(args) > 1 else kwargs["betas"]
        live = int(sum(1 for b in betas if b > 0.0))
        self.count["conv_batch_channels"] += live
        self.count["fft_transforms"] += 2 * live

    def _after_operator_init(self, args, kwargs, result):
        op = args[0]
        if hasattr(op, "fshape"):
            self.count["fft_transforms"] += 1  # the stencil's own transform
            self.count["fft_points"] = max(self.count["fft_points"], math.prod(op.fshape))

    def _after_line_integrals(self, args, kwargs, result):
        box = args[2] if len(args) > 2 else kwargs["box"]
        self.count["ray_sweep_channels"] += box.shape[3] if box.ndim == 4 else 1

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        mods = {layer: importlib.import_module(f"radbody.{layer}") for layer in LAYERS}
        hooks = {
            "transport.apply_attenuation_batch": self._after_batch,
            "transport.AttenuationOperator.apply_box": self._after_apply_box,
            "transport.AttenuationOperator.__init__": self._after_operator_init,
            "transport.RaySweeper.line_integrals": self._after_line_integrals,
        }
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(obj, layer, name, hooks.get(name))
        # Rebind every name under which a traced module holds a wrapped function.
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        for modname, clsname, layer in CLASSES:
            cls = getattr(mods[modname], clsname)
            for attr, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                    name = f"{modname}.{clsname}.{attr}"
                    self._set(cls, attr, self._wrap(obj, layer, name, hooks.get(name)))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        return {
            "time_s": dict(self.time),
            "calls": dict(self.calls),
            "self_s": dict(self.self_time),
            "counters": dict(self.count),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one traced radbody CLI run")
    parser.add_argument("--profile", required=True, help="where to write the totals (JSON)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for radbody.cli.main, after '--'")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer().install()
    try:
        from radbody import cli

        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(args.profile, "w") as fh:
        json.dump(tracer.totals(), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
