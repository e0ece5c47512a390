"""Dirichlet solver for the companion problem -(phi_p(v'))' = g with g >= 0.

This is the workhorse behind supersolution construction, where g = m^+.  The
problem's zero-order term c is left out on purpose: for c >= 0 the term
c w^{p-1} only adds to the supersolution inequality, so the c-free companion
serves every such c (and the paper's results are new even for c = 0).

The solve is closed-form up to one scalar root.  In one dimension
the discrete weak equations have a first integral: with P1 elements, the hat
at interior node i tests the equation to flux_{i-1} - flux_i = load_i, where
flux_j = phi_p(v') on cell j and load_i is the exact integral of g against
that hat.  So flux_j = f0 - (load_1 + ... + load_j), every cell slope is
phi_p^{-1} of its flux, and the one unknown f0 is fixed by the boundary
condition: the slopes times the cell widths must sum to zero.  That sum is
strictly increasing in f0, so plain bisection finds f0 to the last bit, and
v is the running sum of slope times width (del Pino, Elgueta & Manasevich,
JDE 80, 1989, for the first-integral treatment of the 1D p-Laplacian).  For
p = 2 this is the standard second-difference scheme, whose nodal values are
exact for piecewise-quadratic solutions.  Every p > 1 is solved; the range of
p in which k(v+1) then verifies is stated at `subsuper.build_supersolution`.
"""

from __future__ import annotations

import numpy as np

from .core_types import AssemblyPlan, Grid, GridFunction, Weight, phi_p


def solve_g(p: float, g: Weight, grid: Grid) -> GridFunction:
    """Solve -(phi_p(v'))' = g, v = 0 at both ends, by flux integration.

    There is no zero-order term: the supersolution needs none for c >= 0
    (see the module docstring), and without it the discrete equations
    integrate in closed form up to the scalar f0.

    Parameters
    ----------
    p : float
        Gradient exponent, p > 1.
    g : Weight
        Right-hand side, g >= 0, covering the grid's interval.
    grid : Grid
        The grid v lives on.

    Returns
    -------
    GridFunction
        The nonnegative solution with zero boundary values.  Its weak
        residual is at the roundoff level of the nodal values; no iteration
        tolerance is involved.
    """
    if p <= 1.0:
        raise ValueError(f"invalid exponent: p must be > 1, got {p}")
    if g.min_value() < 0:
        raise ValueError("right-hand side g must be nonnegative")
    h = grid.h
    load = AssemblyPlan(grid, {"g": g}).load_vector("g", np.ones(grid.n + 1), 0.0)
    running = np.concatenate(([0.0], np.cumsum(load[1:-1])))

    def slopes(f0: float) -> np.ndarray:
        # phi_p^{-1} is phi_{p'} with the conjugate exponent p' = p/(p-1)
        return phi_p(f0 - running, p / (p - 1.0))

    # the closure sum is <= 0 at f0 = 0 and >= 0 at f0 = total load
    lo, hi = 0.0, float(running[-1])
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if float(slopes(mid) @ h) < 0.0:
            lo = mid
        else:
            hi = mid
    v = np.concatenate(([0.0], np.cumsum(slopes(mid) * h)))
    v[-1] = 0.0  # the running sum closes there only up to roundoff
    return GridFunction(grid, v)
