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
strictly increasing in f0, with derivative sum_j (p'-1)|f0 - R_j|^{p'-2} h_j
(R_j the running load), so safeguarded Newton brackets f0 within a few
doubles, bisection pins it to the last bit, and v is the running sum of
slope times width (del Pino, Elgueta & Manasevich, JDE 80, 1989, for the
first-integral treatment of the 1D p-Laplacian).  The loads are exact hat
moments of g's pieces (`hat_loads`), with no quadrature.  For
p = 2 this is the standard second-difference scheme, whose nodal values are
exact for piecewise-quadratic solutions.  Every p > 1 is solved; the range of
p in which k(v+1) then verifies is stated at `subsuper.build_supersolution`.
"""

from __future__ import annotations

import math

import numpy as np

from .core_types import Grid, GridFunction, Weight, _compose_affine, phi_p


def hat_loads(g: Weight, grid: Grid) -> np.ndarray:
    """The integral of g against every nodal hat of the grid, boundary hats
    included, exact up to rounding.

    On a subcell [lo, lo + w] of cell [x_j, x_j + h], g's piece composed onto
    xi in [0, 1] has coefficients c_k; I0 = w sum c_k/(k+1) is its integral
    and I1 = w sum c_k/(k+2) its moment in xi, so the right hat, affine in
    xi, gets ((lo - x_j) I0 + w I1)/h and the left hat I0 minus that.
    """
    nodes = grid.nodes
    span = nodes[-1] - nodes[0]
    if not (g.domain.contains(nodes[0], 1e-12 * span) and g.domain.contains(nodes[-1], 1e-12 * span)):
        raise ValueError("load weight must cover the grid interval")
    pts = grid.with_points(g.breaks).nodes
    lo, w = pts[:-1], np.diff(pts)
    parent = np.clip(np.searchsorted(nodes, lo, side="right") - 1, 0, grid.n - 1)
    piece = g.piece_index(lo + 0.5 * w)
    C = _compose_affine(g.coefs[piece], lo - g.breaks[piece], w)
    k = np.arange(C.shape[1])
    I0 = w * np.sum(C / (k + 1.0), axis=1)
    I1 = w * np.sum(C / (k + 2.0), axis=1)
    right = ((lo - nodes[parent]) * I0 + w * I1) / grid.h[parent]
    return np.bincount(parent, I0 - right, nodes.size) + np.bincount(parent + 1, right, nodes.size)


def solve_g(p: float, g: Weight, grid: Grid) -> GridFunction:
    """Solve -(phi_p(v'))' = g, v = 0 at both ends, by flux integration.

    There is no zero-order term: the supersolution needs none for c >= 0
    (see the module docstring), and without it the discrete equations
    integrate in closed form up to the scalar f0.  f0 and v are the doubles
    that plain bisection on [0, total load] gives, in a few evaluations.

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
    load = hat_loads(g, grid)
    running = np.concatenate(([0.0], np.cumsum(load[1:-1])))

    pp = p / (p - 1.0)

    def slopes(f0: float) -> np.ndarray:
        # phi_p^{-1} is phi_{p'} with the conjugate exponent p'
        return phi_p(f0 - running, pp)

    # the closure sum is <= 0 at f0 = 0 and >= 0 at f0 = total load.  Newton
    # from the root for p = 2 takes a bisection step wherever it leaves the
    # bracket or its derivative is not finite (|0|^(p'-2) for p > 2); once it
    # converges, probes just past its point, an ulp apart, close the bracket
    # at the first sign change
    lo, hi = 0.0, float(running[-1])
    f0, below = float(running @ h) / float(np.sum(h)), None
    while lo < f0 < hi:
        closure = float(slopes(f0) @ h)
        lo, hi = (f0, hi) if closure < 0.0 else (lo, f0)
        if below is not None:
            if (closure < 0.0) != below:
                break
            f0 = math.nextafter(f0, math.inf if below else -math.inf)
            continue
        with np.errstate(divide="ignore"):
            deriv = (pp - 1.0) * float(np.abs(f0 - running) ** (pp - 2.0) @ h)
        step = closure / deriv if math.isfinite(deriv) else math.nan
        if abs(step) <= math.ulp(f0):
            below = closure < 0.0
            f0 = math.nextafter(f0 - step, math.inf if below else -math.inf)
        else:
            f0 = f0 - step if lo < f0 - step < hi else 0.5 * (lo + hi)
    # bisection to adjacent doubles, which pins f0 to the bit
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
