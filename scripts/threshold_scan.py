"""Threshold scan in mu for the step-weight family.

The family keeps m = inside on the window and m = -mu outside, with a
constant c.  The principal eigenvalue of the window problem only sees m
restricted to the window, so it does not move with mu and a single
eigensolve prices the whole scan.  Each sufficient condition's margin is
then a cheap scalar function of mu whose sign change locates the largest
negative part the condition tolerates.

The script prints a margin table over the scan grid and refines every
bracketed sign change by bisection, which pins the threshold far below the
scan resolution.  A condition that still holds at the right end of the scan
is reported as "> mu_max"; one that already fails at the left end as
"< mu_min".

Usage (from the repository root)::

    PYTHONPATH=src python3 scripts/threshold_scan.py
    PYTHONPATH=src python3 scripts/threshold_scan.py --p 2.5 --q 1.0 --csup 0.2
    PYTHONPATH=src python3 scripts/threshold_scan.py --num 33 --out thresholds.csv
"""

import argparse
import csv
import math

import numpy as np

from plap1d import Interval, Problem, Weight, check_all, step_weight, window_eigenpair

NAMES = ("cor", "thm1_i", "thm1_ii", "thm2_i", "thm2_ii")


def make_problem(mu, args):
    domain = Interval(args.domain[0], args.domain[1])
    window = Interval(args.window[0], args.window[1])
    return Problem(
        p=args.p,
        q=args.q,
        domain=domain,
        m=step_weight(domain, window, args.inside, -mu),
        c=Weight.constant(args.csup, domain),
        window=window,
    )


def margins_at(mu, args, eig):
    prob = make_problem(mu, args)
    return {r.name: r for r in check_all(prob, eig)}


def bisect_threshold(lo, hi, name, args, eig, iters=60):
    # invariant: margin(lo) >= 0 > margin(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if margins_at(mid, args, eig)[name].margin >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= args.tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--csup", type=float, default=0.0, help="constant c")
    ap.add_argument("--inside", type=float, default=1.0, help="m on the window")
    ap.add_argument("--domain", type=float, nargs=2, default=(0.0, 1.0))
    ap.add_argument("--window", type=float, nargs=2, default=(0.25, 0.75))
    ap.add_argument("--mu-min", type=float, default=0.01)
    ap.add_argument("--mu-max", type=float, default=2.0)
    ap.add_argument("--num", type=int, default=21, help="scan points")
    ap.add_argument("--n", type=int, default=2048, help="eigensolve resolution")
    ap.add_argument("--tol", type=float, default=1e-10, help="relative bisection width")
    ap.add_argument("--out", help="write the margin table to this CSV")
    args = ap.parse_args(argv)

    probe = make_problem(args.mu_min, args)
    eig = window_eigenpair(probe, probe.default_grid(args.n))
    print(f"lambda1 = {eig.lambda1:.10g}  (independent of mu for this family)")
    print()

    mus = np.linspace(args.mu_min, args.mu_max, args.num)
    rows = []
    reasons = {}
    header = ["mu"] + [f"{name}_margin" for name in NAMES]
    print("  ".join(f"{h:>14s}" for h in header))
    for mu in mus:
        reports = margins_at(float(mu), args, eig)
        row = [float(mu)]
        cells = [f"{mu:14.6g}"]
        for name in NAMES:
            r = reports[name]
            row.append(r.margin)
            cells.append("           n/a" if not r.applicable else f"{r.margin:14.4e}")
            if not r.applicable:
                reasons[name] = r.reason
        rows.append(row)
        print("  ".join(cells))
    print()

    print("thresholds (margin sign change, bisected):")
    for name in NAMES:
        col = [row[1 + NAMES.index(name)] for row in rows]
        if all(math.isnan(v) for v in col):
            print(f"  {name:8s}  not applicable: {reasons.get(name, 'see report')}")
            continue
        signs = [v >= 0.0 for v in col]
        if all(signs):
            print(f"  {name:8s}  holds on the whole scan (threshold > {args.mu_max:g})")
        elif not signs[0]:
            print(f"  {name:8s}  already fails at mu = {args.mu_min:g}")
        else:
            k = signs.index(False)
            mu_star = bisect_threshold(float(mus[k - 1]), float(mus[k]), name, args, eig)
            print(f"  {name:8s}  mu* = {mu_star:.10g}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
