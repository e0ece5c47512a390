"""Layer timings and counts of the window eigensolve and the full solve.

Four cases, each at n = 512, 2048 and 8192 cells:

  manufactured  p = 2, q = 1/2, c = 0, m = pi^2 sin(pi x)^(1/2) (128 pieces),
                window = domain; tol 1e-7 at n = 8192, where 1e-8 stagnates
  step          p = 2, q = 1/2, c = 0, m = 1 on (1/4, 3/4) and -0.1 outside,
                window (1/4, 3/4)
  step-p1.5     the step weight at p = 1.5, q = 1/4, where the solve takes
                Newton's weight on settled cells only (ROADMAP item 1)
  two-bump      p = 5, q = 2, c = 0, m = 1 on (0, 0.05) and (0.95, 1) and 0
                between, window = domain

For each case and n the script times `principal_eigenvalue` on the window,
through `window_eigenpair` as `solve_full` calls it (the window gets its
share of the n cells), the companion solve `bvp.solve_g` of m^+ on the n
cells, as `build_supersolution` calls it, and `solve_full`, at tol 1e-8
unless stated, with the seconds of its `solve_between` call and of its
`verify.weak_form_values` calls (the independent check of both
certificates and of the solution) recorded separately.  All run in this
process: one warm-up call, then the median of --repeats timed calls, each
on a freshly built problem so that every call computes its own weight
facts, as one CLI call does.  A separate run
with counting wrappers records the counts next to the seconds, since they
do not depend on the machine:

  shots          marches of the eigenvalue recursion (`eigen._march`
                 calls), coarse seeding levels included
  shot_work      their work in full-window marches: the cells of all
                 marches over the window's cells on the full-resolution
                 grid, so a half-window march counts 0.5
  fine_shots     marches with the full-resolution step length
  closure_evals  closure-sum evaluations of the companion solve (`phi_p`
                 calls in `bvp`; solve_g only)
  energy_evals   `solver._energy_and_grad` evaluations (solve_full, and
                 those inside its `solve_between` call)
  newton_steps   linear systems `solve_between` solved with the consistent
                 reaction Jacobian (`scipy.linalg.solveh_banded` calls)
  fallback_steps of those, the ones that were indefinite, after which the
                 lumped, clipped model solved again
  plan_builds    `AssemblyPlan` constructions (every layer, and those
                 inside `solve_between`)
  calls          `verify.weak_form_values` calls inside `solve_full`

A solve that raises is timed up to the raise and recorded with its error.
The output also records the Python, numpy and scipy versions, the core
count and the CPU model.

Usage (from the repository root)::

    PYTHONPATH=src python3 scripts/bench_layers.py
    PYTHONPATH=src python3 scripts/bench_layers.py --n 512 --repeats 1 --out /tmp/layers.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np
import scipy
import scipy.linalg

from plap1d import bvp, eigen, solver, verify
from plap1d.core_types import AssemblyPlan, Interval, Problem, Weight, sin_power_weight, step_weight

UNIT = Interval(0.0, 1.0)
WINDOW = Interval(0.25, 0.75)
NS = (512, 2048, 8192)


def manufactured() -> Problem:
    m = sin_power_weight(UNIT, 0.5).affine(np.pi**2, 0.0)
    return Problem(p=2.0, q=0.5, domain=UNIT, m=m, c=Weight.constant(0.0, UNIT), window=UNIT)


def step(p: float = 2.0) -> Problem:
    m = step_weight(UNIT, WINDOW, 1.0, -0.1)
    return Problem(p=p, q=0.5 * (p - 1.0), domain=UNIT, m=m, c=Weight.constant(0.0, UNIT),
                   window=WINDOW)


def two_bump() -> Problem:
    m = Weight([0.0, 0.05, 0.95, 1.0], [[1.0], [0.0], [1.0]])
    return Problem(p=5.0, q=2.0, domain=UNIT, m=m, c=Weight.constant(0.0, UNIT), window=UNIT)


CASES = {"manufactured": manufactured, "step": step, "step-p1.5": lambda: step(1.5),
         "two-bump": two_bump}


def solve_tol(name: str, n: int) -> float:
    return 1e-7 if (name, n) == ("manufactured", 8192) else 1e-8


def layers(name: str, n: int):
    """(layer name, call) pairs; each call takes a fresh problem."""
    tol = solve_tol(name, n)

    def eigensolve(prob):
        eigen.window_eigenpair(prob, prob.default_grid(n))

    def companion(prob):
        bvp.solve_g(prob.p, prob.m.pos_part(), prob.default_grid(n))

    def solve(prob):
        solver.solve_full(prob, grid=prob.default_grid(n), tol=tol)

    return (("principal_eigenvalue", eigensolve), ("solve_g", companion), ("solve_full", solve))


def run(call, prob) -> str | None:
    try:
        call(prob)
    except RuntimeError as exc:  # the program's typed failures are recorded
        return f"{type(exc).__name__}: {exc}"
    return None


# functions whose seconds inside one call are recorded next to the call's
INNER = ((solver, "solve_between"), (verify, "weak_form_values"))


def seconds(name: str, call, repeats: int) -> tuple[float, list[float]]:
    """Median seconds of one call, and for each INNER function the median
    seconds spent inside it during one call."""
    originals = [getattr(module, attr) for module, attr in INNER]
    inner = [[0.0] * len(INNER)]

    def timed(fn, j):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                inner[-1][j] += time.perf_counter() - t0

        return wrapper

    for j, (module, attr) in enumerate(INNER):
        setattr(module, attr, timed(originals[j], j))
    try:
        run(call, CASES[name]())
        times, inner = [], []
        for prob in [CASES[name]() for _ in range(repeats)]:
            inner.append([0.0] * len(INNER))
            t0 = time.perf_counter()
            run(call, prob)
            times.append(time.perf_counter() - t0)
    finally:
        for (module, attr), fn in zip(INNER, originals):
            setattr(module, attr, fn)
    return statistics.median(times), [statistics.median(col) for col in zip(*inner)]


def counts(name: str, n: int) -> dict:
    """Counts of each layer of one case at n cells, from one counted call."""
    out = {}
    for layer, call in layers(name, n):
        cells, steps, closures, evals, builds, inside, checks = [], [], [], [], [], [], []
        # one entry per linear solve: True for the lumped model's, which
        # follows an indefinite Newton system in the same step
        solves, indefinite = [], [False]
        march, phi_p, energy, between = eigen._march, bvp.phi_p, solver._energy_and_grad, solver.solve_between
        build, weak, banded = AssemblyPlan.__init__, verify.weak_form_values, scipy.linalg.solveh_banded

        def counted_march(K, h, *rest):
            cells.append(len(K) + 1)
            steps.append(h)
            return march(K, h, *rest)

        def counted_phi_p(*args):
            closures.append(1)
            return phi_p(*args)

        def counted_energy(*args):
            evals.append(1)
            return energy(*args)

        def counted_build(*args):
            builds.append(1)
            return build(*args)

        def counted_weak(*args):
            checks.append(1)
            return weak(*args)

        def counted_banded(*args, **kwargs):
            fallback, indefinite[0] = indefinite[0], False
            solves.append(fallback)
            try:
                return banded(*args, **kwargs)
            except scipy.linalg.LinAlgError:
                indefinite[0] = not fallback
                raise

        def counted_between(*args, **kwargs):
            indefinite[0] = False
            start = len(evals), len(builds)
            try:
                return between(*args, **kwargs)
            finally:
                inside.append((len(evals) - start[0], len(builds) - start[1]))

        wrapped = (counted_march, counted_phi_p, counted_energy, counted_between, counted_build,
                   counted_weak, counted_banded)
        (eigen._march, bvp.phi_p, solver._energy_and_grad, solver.solve_between,
         AssemblyPlan.__init__, verify.weak_form_values, scipy.linalg.solveh_banded) = wrapped
        prob = CASES[name]()
        try:
            error = run(call, prob)
        finally:
            (eigen._march, bvp.phi_p, solver._energy_and_grad, solver.solve_between,
             AssemblyPlan.__init__, verify.weak_form_values, scipy.linalg.solveh_banded) = (
                march, phi_p, energy, between, build, weak, banded)
        if layer == "solve_g":
            out[layer] = {"closure_evals": len(closures), "plan_builds": len(builds)}
            continue
        fine = min(steps)
        out[layer] = {
            "shots": len(cells),
            "shot_work": round(sum(cells) / round(prob.window.length() / fine), 4),
            "fine_shots": steps.count(fine),
            "plan_builds": len(builds),
        }
        if layer == "solve_full":
            out[layer]["energy_evals"] = len(evals)
            out[layer]["error"] = error
            out["solve_between"] = {
                "energy_evals": sum(e for e, _ in inside),
                "plan_builds": sum(b for _, b in inside),
                "newton_steps": solves.count(False),
                "fallback_steps": solves.count(True),
            }
            out["weak_form_values"] = {"calls": len(checks)}
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cores": os.cpu_count(),
        "cpu": cpu_model(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, nargs="+", default=list(NS))
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH_layers.json")
    args = ap.parse_args(argv)
    rows = []
    for name in CASES:
        for n in args.n:
            row = {"case": name, "n": n, "tol": solve_tol(name, n)}
            row.update(counts(name, n))
            for layer, call in layers(name, n):
                row[layer]["s"], inner_s = seconds(name, call, args.repeats)
                if layer == "solve_full":
                    row["solve_between"]["s"], row["weak_form_values"]["s"] = inner_s
            rows.append(row)
            eig, comp, full = row["principal_eigenvalue"], row["solve_g"], row["solve_full"]
            between_s, weak = row["solve_between"]["s"], row["weak_form_values"]
            print(
                f"{name:12s} n={n:5d}  eigen {eig['s'] * 1e3:8.2f} ms  shots {eig['shots']:3d}"
                f"  work {eig['shot_work']:6.3f}  solve_g {comp['s'] * 1e3:6.2f} ms"
                f"  closures {comp['closure_evals']:3d}  solve_full {full['s'] * 1e3:8.2f} ms"
                f"  energy {full['energy_evals']:4d}  solve_between {between_s * 1e3:8.2f} ms"
                f"  weak_form_values {weak['calls']} x {weak['s'] * 1e3 / max(weak['calls'], 1):6.2f} ms"
                + (f"  [{full['error']}]" if full["error"] else ""),
                flush=True,
            )
    report = {"environment": environment(), "repeats": args.repeats, "cases": rows}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
