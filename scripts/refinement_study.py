"""Grid refinement study against a manufactured solution.

At p = 2 the weight m = pi^2 sin(pi x)^(1/2) on the unit interval makes
sin(pi x) an exact positive solution of the full problem with q = 1/2 and
c = 0, which turns the whole pipeline (certificates, ordered interval,
constrained minimization) into a measurable convergence experiment.  For
each grid size the script records

  sup_err   sup-norm distance from the computed nodes to sin(pi x),
  residual  worst normalized weak-form value of the computed solution,
  sub/sup   worst weak-form values of the two certificates,

and prints the ratio between consecutive levels together with the implied
rate log2(ratio).  Piecewise-linear interpolation caps sup_err at second
order, the certificate margins decay at the rates the builders advertise,
and the residual hovers at the requested solver tolerance independent of n
(it measures how well the discrete equations were solved, not the grid).

Usage (from the repository root)::

    PYTHONPATH=src python3 scripts/refinement_study.py
    PYTHONPATH=src python3 scripts/refinement_study.py --levels 256 512 1024 2048 4096 --tol 1e-8
    PYTHONPATH=src python3 scripts/refinement_study.py --out refinement.csv
"""

import argparse
import csv
import math
import time

import numpy as np

from plap1d import Interval, Problem, Weight, sin_power_weight, solve_full
from plap1d.verify import check_weak_subsolution, check_weak_supersolution

UNIT = Interval(0.0, 1.0)


def manufactured_problem():
    m = sin_power_weight(UNIT, 0.5).affine(np.pi**2, 0.0)
    return Problem(
        p=2.0, q=0.5, domain=UNIT, m=m, c=Weight.constant(0.0, UNIT), window=UNIT
    )


def run_level(prob, n, tol):
    t0 = time.perf_counter()
    rep = solve_full(prob, grid=prob.default_grid(n), tol=tol)
    elapsed = time.perf_counter() - t0
    nodes = rep.u.grid.nodes
    sup_err = float(np.max(np.abs(rep.u.values - np.sin(np.pi * nodes))))
    sub = abs(check_weak_subsolution(rep.certificates["sub"].u, prob).worst_value)
    sup = abs(check_weak_supersolution(rep.certificates["super"].u, prob).worst_value)
    return {
        "n": n,
        "sup_err": sup_err,
        "residual": rep.residual,
        "sub_worst": sub,
        "super_worst": sup,
        "seconds": elapsed,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--levels", type=int, nargs="+", default=[256, 512, 1024, 2048],
        help="grid sizes, each ideally double the last",
    )
    ap.add_argument("--tol", type=float, default=1e-9, help="solver tolerance")
    ap.add_argument("--out", help="write the table to this CSV")
    args = ap.parse_args(argv)

    prob = manufactured_problem()
    rows = [run_level(prob, n, args.tol) for n in args.levels]

    cols = ("sup_err", "residual", "sub_worst", "super_worst")
    print(f"{'n':>6s}", end="")
    for c in cols:
        print(f"  {c:>11s} {'ratio':>6s} {'rate':>5s}", end="")
    print(f"  {'seconds':>8s}")
    for i, row in enumerate(rows):
        print(f"{row['n']:6d}", end="")
        for c in cols:
            if i == 0:
                print(f"  {row[c]:11.4e} {'':>6s} {'':>5s}", end="")
            else:
                ratio = rows[i - 1][c] / row[c] if row[c] > 0 else math.inf
                rate = math.log2(ratio) if math.isfinite(ratio) and ratio > 0 else math.nan
                print(f"  {row[c]:11.4e} {ratio:6.1f} {rate:5.2f}", end="")
        print(f"  {row['seconds']:8.2f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
