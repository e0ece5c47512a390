"""Per-layer timing and counting by wrapping the program's public functions.

The wrappers are installed from the benchmark's side only: every module of
the package that holds a binding of a traced function gets the wrapper in
that binding (`from .eigen import principal_eigenvalue` makes its own), and
AssemblyPlan methods are replaced on the class.  `Tracer.restore` puts every
original back.  Self time is a call's time minus the time of the wrapped
calls made inside it.  Calls and time are also kept per (caller, callee) pair
of traced labels, where the caller is the innermost traced call open at the
time; a call from the benchmark itself has caller None.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# label -> (module, function names); several names may share one label
FUNCTIONS = {
    "cli.main": ("plap1d.cli", ("main",)),
    "solver.solve_between": ("plap1d.solver", ("solve_between",)),
    "eigen.principal_eigenvalue": ("plap1d.eigen", ("principal_eigenvalue",)),
    "bvp.solve_g": ("plap1d.bvp", ("solve_g",)),
    "subsuper.build_subsolution": ("plap1d.subsuper", ("build_subsolution",)),
    "subsuper.build_supersolution": ("plap1d.subsuper", ("build_supersolution",)),
    "subsuper.enforce_ordering": ("plap1d.subsuper", ("enforce_ordering",)),
    "subsuper.glue": ("plap1d.subsuper", ("glue",)),
    "subsuper.profile": (
        "plap1d.subsuper",
        tuple(
            f"build_{side}_{shape}"
            for side in ("u1", "u3")
            for shape in ("power", "sinh", "exp", "linear")
        ),
    ),
    "conditions.tau_interval": ("plap1d.conditions", ("tau_interval",)),
    "conditions.check_all": ("plap1d.conditions", ("check_all",)),
    "verify.weak_form_values": ("plap1d.verify", ("weak_form_values",)),
}

# label -> method name on core_types.AssemblyPlan
METHODS = {
    "core_types.AssemblyPlan.build": "__init__",
    "core_types.AssemblyPlan.load_vector": "load_vector",
    "core_types.AssemblyPlan.mass_tridiag": "mass_tridiag",
}

# per-layer metric -> (label, field, unit); the names BENCHMARK.json lists
METRICS = {
    "solver.solve_between.s": ("solver.solve_between", "s", "s"),
    "solver.solve_between.self_s": ("solver.solve_between", "self_s", "s"),
    # load_vector calls whose innermost traced caller is solve_between; no
    # traced function sits between the two
    "solver.solve_between.load_vector_calls": (
        "solver.solve_between",
        "core_types.AssemblyPlan.load_vector",
        "count",
    ),
    "core_types.AssemblyPlan.builds": ("core_types.AssemblyPlan.build", "calls", "count"),
    "core_types.AssemblyPlan.build_s": ("core_types.AssemblyPlan.build", "s", "s"),
    "core_types.AssemblyPlan.load_vector.s": ("core_types.AssemblyPlan.load_vector", "s", "s"),
    "core_types.AssemblyPlan.load_vector.calls": (
        "core_types.AssemblyPlan.load_vector",
        "calls",
        "count",
    ),
    "core_types.AssemblyPlan.mass_tridiag.s": ("core_types.AssemblyPlan.mass_tridiag", "s", "s"),
    "core_types.AssemblyPlan.mass_tridiag.calls": (
        "core_types.AssemblyPlan.mass_tridiag",
        "calls",
        "count",
    ),
    "eigen.principal_eigenvalue.s": ("eigen.principal_eigenvalue", "s", "s"),
    "eigen.principal_eigenvalue.calls": ("eigen.principal_eigenvalue", "calls", "count"),
    "bvp.solve_g.s": ("bvp.solve_g", "s", "s"),
    "bvp.solve_g.calls": ("bvp.solve_g", "calls", "count"),
    "bvp.solve_g.failed": ("bvp.solve_g", "failed", "count"),
    "subsuper.build_subsolution.self_s": ("subsuper.build_subsolution", "self_s", "s"),
    "subsuper.glue.calls": ("subsuper.glue", "calls", "count"),
    "subsuper.glue.failed": ("subsuper.glue", "failed", "count"),
    "subsuper.profile.calls": ("subsuper.profile", "calls", "count"),
    "subsuper.profile.failed": ("subsuper.profile", "failed", "count"),
    "conditions.tau_interval.calls": ("conditions.tau_interval", "calls", "count"),
    "conditions.tau_interval.failed": ("conditions.tau_interval", "failed", "count"),
    "subsuper.build_supersolution.self_s": ("subsuper.build_supersolution", "self_s", "s"),
    "subsuper.enforce_ordering.s": ("subsuper.enforce_ordering", "s", "s"),
    "conditions.check_all.s": ("conditions.check_all", "s", "s"),
    "verify.weak_form_values.s": ("verify.weak_form_values", "s", "s"),
    "verify.weak_form_values.calls": ("verify.weak_form_values", "calls", "count"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}


class Tracer:
    """Installs the wrappers, accumulates per-label totals, restores."""

    def __init__(self):
        self.stats = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "failed": 0})
        self.edges = defaultdict(lambda: {"s": 0.0, "calls": 0})
        self._stack = []  # [label, time spent in wrapped callees]
        self._saved = []  # (owner, attribute, original)

    def _wrap(self, label, fn):
        stats = self.stats[label]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = self._stack[-1][0] if self._stack else None
            frame = [label, 0.0]
            self._stack.append(frame)
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                stats["s"] += dt
                stats["self_s"] += dt - frame[1]
                stats["calls"] += 1
                stats["failed"] += failed
                edge = self.edges[(caller, label)]
                edge["s"] += dt
                edge["calls"] += 1
                if self._stack:
                    self._stack[-1][1] += dt

        return traced

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every binding of the traced functions, in every plap1d module."""
        from plap1d.core_types import AssemblyPlan

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "plap1d"]
        for label, (home, names) in FUNCTIONS.items():
            for name in names:
                original = getattr(sys.modules[home], name)
                wrapper = self._wrap(label, original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._replace(mod, name, wrapper)
        for label, name in METHODS.items():
            self._replace(AssemblyPlan, name, self._wrap(label, AssemblyPlan.__dict__[name]))
        return self

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def metrics(self) -> dict:
        """{metric name: value} for every name in METRICS."""
        out = {}
        for name, (label, what, _unit) in METRICS.items():
            if what in ("s", "self_s", "calls", "failed"):
                out[name] = self.stats[label][what]
            else:
                out[name] = self.edges[(label, what)]["calls"]
        return out
