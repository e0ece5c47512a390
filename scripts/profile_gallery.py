"""Gallery of certificate profiles for the four construction families.

One representative problem per subsolution family, each on the canonical
step weight (m = 1 on (1/4, 3/4), m = -mu outside, constant c):

  power-A   two-sided power profile, p >= 2 branch
  power-B   two-sided power profile, p < 2 branch
  sinh      hyperbolic-sine boundary layer, p >= 2
  exp       exponential boundary layer, any p > 1

For each family the script builds the subsolution the named condition
proves, pairs it with the scaled companion supersolution, enforces the
ordering, verifies both certificates in weak form, solves between them,
and writes one CSV per family with columns x, sub, super, u.  The summary
table prints the construction parameters (tau, eps, junction points,
rescale factor, supersolution k) so a profile can be rebuilt by hand.

Usage (from the repository root)::

    PYTHONPATH=src python3 scripts/profile_gallery.py
    PYTHONPATH=src python3 scripts/profile_gallery.py --n 2048 --out-dir gallery
    PYTHONPATH=src python3 scripts/profile_gallery.py --no-solve
"""

import argparse
import csv
import os

from plap1d import (
    Interval,
    Problem,
    Weight,
    certify,
    solution_residual,
    solve_between,
    step_weight,
    window_eigenpair,
)

UNIT = Interval(0.0, 1.0)
WIN = Interval(0.25, 0.75)

# family -> (theorem, p, q, c_sup, mu)
FAMILIES = {
    "power-A": ("thm1_i", 2.5, 1.0, 0.2, 0.1),
    "power-B": ("thm1_ii", 1.75, 0.5, 0.1, 0.1),
    "sinh": ("thm2_i", 2.5, 1.0, 0.5, 0.5),
    "exp": ("thm2_ii", 1.6, 0.3, 0.5, 0.2),
}


def build_family(name, n, solve, tol):
    theorem, p, q, csup, mu = FAMILIES[name]
    prob = Problem(
        p=p, q=q, domain=UNIT, m=step_weight(UNIT, WIN, 1.0, -mu),
        c=Weight.constant(csup, UNIT), window=WIN,
    )
    grid = prob.default_grid(n)
    sub, sup = certify(prob, theorem, grid, window_eigenpair(prob, grid))
    u = solve_between(prob, sub, sup, grid, tol=tol) if solve else None
    return prob, grid, sub, sup, u


def write_profile(path, grid, sub, sup, u):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["x", "sub", "super"] + (["u"] if u is not None else [])
        w.writerow(header)
        lo = sub.u(grid.nodes)
        hi = sup.u(grid.nodes)
        for i, x in enumerate(grid.nodes):
            row = [f"{x:.17g}", f"{lo[i]:.17g}", f"{hi[i]:.17g}"]
            if u is not None:
                row.append(f"{u.values[i]:.17g}")
            w.writerow(row)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1024, help="grid size")
    ap.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")
    ap.add_argument("--out-dir", default=".", help="where the CSVs go")
    ap.add_argument(
        "--no-solve", dest="solve", action="store_false",
        help="skip the solve and write certificates only",
    )
    args = ap.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    for name in FAMILIES:
        prob, grid, sub, sup, u = build_family(name, args.n, args.solve, args.tol)
        path = os.path.join(args.out_dir, f"profile_{name}.csv")
        write_profile(path, grid, sub, sup, u)

        con = sub.construction
        print(f"{name} ({con['theorem']}), p={prob.p} q={prob.q}")
        print(
            f"  sub:   tau={con['tau']:.6g} eps={con['eps']:.6g}"
            f" junctions=({con['junction_lo']:.6g}, {con['junction_hi']:.6g})"
            f" rescale={con['rescale']:.6g}"
        )
        print(
            f"  super: k={sup.construction['k']:.6g}"
            f" v_sup={sup.construction['v_sup']:.6g}"
        )
        print(
            f"  verified: sub {'pass' if sub.verified.passed else 'FAIL'}"
            f" (worst {sub.verified.worst_value:.2e}),"
            f" super {'pass' if sup.verified.passed else 'FAIL'}"
            f" (worst {sup.verified.worst_value:.2e})"
        )
        if u is not None:
            print(
                f"  solve: residual {solution_residual(u, prob):.2e},"
                f" min interior {u.interior_min():.3e}"
            )
        print(f"  wrote {path}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
