"""Principal eigenvalue of the weighted problem on the window, by shooting
the P1 flux recursion.

The eigenvalue problem -(phi_p(F'))' + c phi_p(F) = lambda m phi_p(F) on
I = (x0, x1), F = 0 on the endpoints, is discretized with P1 elements on n
uniform cells of width h, whose flux side is that of `bvp.solve_g`: the hat
at interior node i tests the equation to
f_{i-1} - f_i = (lambda mhat_i - chat_i) phi_p(u_i), where f_j = phi_p(u') on
cell j and mhat_i, chat_i split each cell's exact mass of m and c evenly
between its two nodes, so that a break of m between nodes counts where it
is.  That load is a nodal rule, where `solve_g` integrates its load g
against hat_i exactly: the half masses are the hat's exact moments of
lambda m - c only where m and c are constant on each cell, and elsewhere
they differ from them by at most h/4 times the oscillation of lambda m - c
on each of the two cells.  From u_0 = 0 and f_0 = 1 the recursion

    u_{i+1} = u_i + h phi_p^{-1}(f_i),
    f_{i+1} = f_i - (lambda mhat_{i+1} - chat_{i+1}) phi_p(u_{i+1})

marches to u_n, and the grid's eigenvalue is the lambda whose march has its
first zero at x1.  With m >= 0 on I the first zero moves monotonically with
lambda, so marches that stay positive and marches that cross zero bracket
it.  For c >= 0 on I, f stays >= 1 at lambda = 0, so the bracket's low end
starts there without a march; a c that is negative somewhere on I is
rejected before any march.

Each march also gives its Newton step.  With (v, z) = d(u, f)/dlambda, the
discrete Wronskian W_i = u_i z_i - (p-1) v_i f_i satisfies
W_i - W_{i-1} = -mhat_i |u_i|^p for every p, because (p-1)(p'-1) = 1 for
the conjugate exponent p', and W_0 = 0.  So g = u_n / phi_p^{-1}(f_{n-1})
has dg/dlambda = sum_i mhat_i |u_i|^p / ((p-1) |f_{n-1}|^{p'}), summed over
the interior nodes, and (p-1) u_n f_{n-1} / sum_i mhat_i |u_i|^p is the
exact Newton step for the zero of g.  A probe is that Newton step while it
stays inside the bracket, else doubling while no march has crossed zero
and bisection once one has.  Crossings are read at the nodes: a march has
crossed when u <= 0 at a node past x0.

Where c and m are constant on the window, lambda1 is the closed form
((p-1)(pi_p/L)^p + c)/m on every grid, and the eigenfunction is even about
the middle of the window (del Pino, Elgueta & Manasevich, JDE 80, 1989), so
one march at that lambda over the left n // 2 cells, mirrored, gives phi;
no probe runs.  On any other window the first probe is the grid eigenvalue
of the same probe loop on 1/_COARSEN of the cells, seeded the same way,
down to the coarsest level with at least _MIN_COARSE cells (nested
iteration): a march there costs 1/_COARSEN of one on the next finer grid,
and its eigenvalue is within the discretization error of the finer one, so
the full-resolution loop stops after a step or two.  Every level starts
from its own bracket (0, inf), so the result and its stopping rule depend
on the coarse levels only through the first probe.  phi is the last
march's nodal u, and lambda1 is its Rayleigh quotient
(int |phi'|^p + int c |phi|^p) / int m |phi|^p, every integral exact for
the P1 phi.  lambda1 of the continuous problem is the infimum of that
quotient over W_0^{1,p}(I), so this lambda1 is an upper bound on it, as
the conditions' L <= 1/lambda1 needs; the march's own eigenvalue is no
bound and can sit on either side of it.

The march is a plain Python loop on floats, with no JIT.  Its coefficients
lambda mhat - chat come from numpy as a list, because numpy scalars cost
about three times as much per step; both round alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_types import (
    DEFAULT_N,
    AssemblyPlan,
    BracketError,
    EigenError,
    Grid,
    GridFunction,
    Interval,
    NoEigenvalueError,
    Problem,
    Weight,
)

# relative width of the final eigenvalue bracket
_TOL = 1e-8
# nested-iteration seed: each coarser level has 1/_COARSEN of the cells, and
# the coarsest keeps at least _MIN_COARSE
_COARSEN = 8
_MIN_COARSE = 64


@dataclass
class EigenPair:
    """Principal eigenvalue with its sup-normalized eigenfunction on I.

    lambda1 is the exact closed form on a window where c and m are
    constant, whatever the grid, and otherwise `rayleigh_quotient` of phi,
    an upper bound on the continuous problem's lambda1.
    """

    lambda1: float
    phi: GridFunction


def _exponents(p: float) -> tuple[float, float]:
    """(p - 1, 1 / (p - 1)), the powers of phi_p and its inverse."""
    if p <= 1.0:
        raise ValueError(f"invalid exponent: p must be > 1, got {p}")
    return p - 1.0, 1.0 / (p - 1.0)


def _march(K, h, pm1, ipm1):
    """(u at every node, f on the last cell) of the P1 flux recursion from
    (u, f) = (0, 1), where K[i - 1] = lam mhat_i - chat_i at the interior
    nodes i = 1 .. len(K), over len(K) + 1 cells of width h.

    Signed powers take the branch on the sign instead of multiplying by it,
    which gives the same doubles because no argument is ever -0.0: u and f
    start at +0.0 and 1.0, and a sum is -0.0 only if both terms are.
    """
    u = 0.0
    f = 1.0
    us = [0.0]
    append = us.append
    for k in K:
        u += h * (f**ipm1 if f >= 0.0 else -((-f) ** ipm1))
        append(u)
        f -= k * (u**pm1 if u >= 0.0 else -((-u) ** pm1))
    append(u + h * (f**ipm1 if f >= 0.0 else -((-f) ** ipm1)))
    return us, f


def _node_masses(w: Weight, I: Interval, nodes) -> np.ndarray:
    """Each cell's exact mass of w, split evenly between its two nodes, at
    the interior nodes."""
    cell = np.diff(w.restrict(I.a, I.b).antiderivative()(nodes))
    return 0.5 * (cell[:-1] + cell[1:])


def _shooter(p: float, c: Weight, m: Weight, I: Interval, n: int):
    """shot(lam) -> (u, f, mass) of one _march on (p, c, m, I, n): u at the
    n + 1 nodes as an array, f on the last cell, and the sum of
    mhat_i |u_i|^p over the interior nodes."""
    pm1, ipm1 = _exponents(p)
    nodes = np.linspace(I.a, I.b, n + 1)
    h = (I.b - I.a) / n
    if h <= 0.0:
        raise EigenError("integration step underflow")
    mhat, chat = _node_masses(m, I, nodes), _node_masses(c, I, nodes)

    def shot(lam: float):
        us, f = _march((lam * mhat - chat).tolist(), h, pm1, ipm1)
        u = np.array(us)
        return u, f, float(mhat @ np.abs(u[1:-1]) ** p)

    return shot


def _first_zero(out) -> int:
    """Index of the first node past x0 where u <= 0; len(out) if there is none."""
    return int(np.argmax(np.append(out[1:], -1.0) <= 0.0)) + 1


def shoot(
    lam: float,
    p: float,
    c: Weight,
    m: Weight,
    I: Interval,
    n: int = DEFAULT_N,
) -> tuple[GridFunction, float | None]:
    """March of the eigenvalue recursion at lam and its first interior zero.

    Steps the P1 flux recursion of the module docstring from (u, f) = (0, 1)
    at the left endpoint of I over n cells, in plain Python on floats.
    Returns the nodal u and the location of the first zero of u past the
    start, None if u stays positive.  The zero is the secant root of u over
    the cell whose right node is the first with u <= 0.  A march that
    reaches the right endpoint still positive but below 1e-7 of its peak is
    counted as hitting zero there; without this, a zero sitting exactly on
    the endpoint would be reported or dropped depending on rounding.
    """
    out, _, _ = _shooter(p, c, m, I, n)(lam)
    grid = Grid(np.linspace(I.a, I.b, n + 1))
    traj = GridFunction(grid, out)
    i = _first_zero(out)
    if i > n:
        top = float(np.max(out))
        if top > 0.0 and out[-1] <= 1e-7 * top:
            return traj, float(I.b)
        return traj, None
    return traj, float(grid.nodes[i - 1] + grid.h[i - 1] * out[i - 1] / (out[i - 1] - out[i]))


def _newton(shot, p, n, lam):
    """(the grid's eigenvalue, u of the march it rests on) by the probe rule
    of principal_eigenvalue on n cells, from the bracket (0, inf) and the
    first probe lam; shot is _shooter's on those n cells."""
    seed = lam
    lo, hi = 0.0, np.inf
    while hi - lo > _TOL * lo:
        u, f1, mass = shot(lam)
        u1 = float(u[-1])
        step = (p - 1.0) * u1 * f1 / mass if mass > 0.0 else np.inf
        first = _first_zero(u)
        small = abs(step) <= _TOL * lam and abs(u1) <= np.sqrt(_TOL) * float(np.max(u))
        if small and first >= n:
            return lam - step, u
        if first <= n:
            hi = lam
        else:
            lo, u_lo = lam, u
        if hi == np.inf and lo >= seed * 2.0**79:
            raise BracketError("bracket expansion exceeded its cap")
        lam -= step
        if not lo < lam < hi:
            lam = 2.0 * lo if hi == np.inf else 0.5 * (lo + hi)
        gap = 0.25 * _TOL * (lo if hi == np.inf else hi)
        lam = min(max(lam, lo + gap), hi - gap)
    return 0.5 * (lo + hi), u_lo


def _coarse_seed(p, c, m, I, n, lam):
    """lam improved by _newton on n // _COARSEN cells, itself seeded the same
    way, while a level keeps at least _MIN_COARSE cells."""
    nc = n // _COARSEN
    if nc < _MIN_COARSE:
        return lam
    lam = _coarse_seed(p, c, m, I, nc, lam)
    return _newton(_shooter(p, c, m, I, nc), p, nc, lam)[0]


def principal_eigenvalue(
    p: float,
    c: Weight,
    m: Weight,
    I: Interval,
    n: int = DEFAULT_N,
) -> EigenPair:
    """Positive principal eigenvalue and eigenfunction on the window I.

    Where c and m are constant on I, lambda1 is the closed form and phi is
    one march at it over the left n // 2 cells, mirrored; no probe runs.
    Elsewhere the probe loop of the module docstring starts from a coarser
    grid's eigenvalue or, on the coarsest, from the closed form of the
    means of c and m on I.  Probes stay _TOL/4 * lo inside the bracket
    (_TOL/4 * hi once hi is finite); every scale is relative, so m -> s m
    maps the probes to lambda / s.  The loop stops at the first march whose
    step is at most _TOL * lambda, whose first node with u <= 0, if any, is
    x1, and whose u(x1) is below sqrt(_TOL) of its peak, so that a small f
    on the last cell alone cannot pass; failing that, once the bracket is
    at most _TOL * lo wide, at the march of its low end.  phi is that
    march's nodal u with u(x1) set to 0, and lambda1 is `rayleigh_quotient`
    of phi, an upper bound on the continuous lambda1.

    Raises NoEigenvalueError when m has no positive mass on I, BracketError
    when the bracket cap is exceeded, and EigenError, before any march, when
    c is negative somewhere on I (beyond rounding of 1e-12 of its sup norm),
    where no positive principal eigenvalue need exist.  It also raises
    EigenError when the closed form, of the window's constants or of the
    means of c and m, overflows the double range, as on a tiny window, and
    when the eigenfunction is not finite and positive inside I.
    """
    pm1, ipm1 = _exponents(p)
    m_win = m.restrict(I.a, I.b)
    if m_win.max_value() <= 0.0:
        raise NoEigenvalueError("m has no positive part on the window")
    c_win = c.restrict(I.a, I.b)
    if c_win.min_value() < -1e-12 * max(1.0, c_win.sup_norm()):
        raise EigenError(
            "c is negative on the window; "
            "no positive principal eigenvalue for this c"
        )
    pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
    # the closed form of the window's constants, or of the means of c and m
    constant = m_win.min_value() == m_win.max_value() and c_win.min_value() == c_win.max_value()
    m0 = m_win.max_value() if constant else max(m_win.integral() / I.length(), 1e-12)
    c0 = c_win.max_value() if constant else max(c_win.integral() / I.length(), 0.0)
    with np.errstate(over="ignore"):  # an overflow to inf raises below
        lam = float(((p - 1.0) * (pi_p / I.length()) ** p + c0) / m0)
    if not np.isfinite(lam):
        raise EigenError(f"closed-form lambda1 overflows a double (window length {I.length():g})")
    if constant:
        # the left half, mirrored; the middle cell of an odd n is flat
        h = (I.b - I.a) / n
        us, _ = _march([(lam * m0 - c0) * h] * (n // 2 - 1), h, pm1, ipm1)
        vals = np.array(us + us[::-1][1 - n % 2:])
    else:
        lam = _coarse_seed(p, c, m, I, n, lam)
        _, vals = _newton(_shooter(p, c, m, I, n), p, n, lam)
        vals[-1] = 0.0
    if not np.min(vals[1:-1]) > 0.0:  # NaN fails too
        raise EigenError("eigenfunction lost interior positivity; refine the grid")
    phi = GridFunction(Grid(np.linspace(I.a, I.b, n + 1)), vals / np.max(vals))
    return EigenPair(lambda1=lam if constant else rayleigh_quotient(p, c, m, I, phi), phi=phi)


def rayleigh_quotient(p: float, c: Weight, m: Weight, I: Interval, phi: GridFunction) -> float:
    """(int |phi'|^p + int c |phi|^p) / int m |phi|^p of the P1 function phi
    on the window I, every integral exact; with phi = 0 at both ends of I,
    an upper bound on the continuous problem's lambda1.  The c integral is
    skipped where c vanishes on I."""
    grid, v = phi.grid, phi.values
    num = float(np.sum(np.abs(phi.slopes()) ** p * grid.h))
    c_win = c.restrict(I.a, I.b)
    if not c_win.is_zero():
        num += float(v @ AssemblyPlan(grid, c_win).load_vector(v, p - 1.0))
    den = float(v @ AssemblyPlan(grid, m.restrict(I.a, I.b)).load_vector(v, p - 1.0))
    return num / den


def window_eigenpair(prob: Problem, grid: Grid) -> EigenPair:
    """Principal eigenpair of prob on its window, resolved to match grid.

    The window gets the share of grid's cells that its length is of the
    domain's, and at least 64.  Every stage of one problem reads this single
    eigenpair.
    """
    n_win = max(64, round(grid.n * prob.window.length() / prob.domain.length()))
    return principal_eigenvalue(prob.p, prob.c_plus, prob.m, prob.window, n=n_win)
