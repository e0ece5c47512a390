"""Principal eigenvalue of the weighted problem on the window, by shooting.

The eigenvalue problem -(phi_p(F'))' + c phi_p(F) = lambda m phi_p(F) on
I = (x0, x1), F = 0 on the endpoints, is solved by integrating the first-order
system u' = phi_p^{-1}(w), w' = (c - lambda m) phi_p(u) from (u, w) = (0, 1)
for the lambda whose shot has its first interior zero on the right endpoint.
With m >= 0 on I the first-zero position moves monotonically with lambda (the
Pruefer angle at x1 grows with lambda), so shots that stay positive and shots
that cross zero bracket lambda1, and u(x1; lambda) changes sign continuously
where the crossing flips.  For c >= 0 on I, w' = c phi_p(u) >= 0 keeps w >= 1
at lambda = 0, so the bracket's low end starts there without a shot; a c that
is negative somewhere on I is rejected before any shot.

Each shot also gives its Newton step.  With (v, z) = d(u, w)/dlambda along a
shot, d/dx [u z - (p-1) w v] = -m |u|^p, and u, v and z vanish at x0, so
(p-1) w(x1) v(x1) - u(x1) z(x1) = int_I m |u|^p.  Hence
(p-1) u(x1) w(x1) / int_I m |u|^p is the exact Newton step for the zero of
u(x1) / phi_p^{-1}(w(x1)), whose lambda-derivative is positive.  The integral
comes from the shot's nodal u and w(x1) from its last midpoint w, so a probe
costs no extra integration.

A probe is that Newton step while it stays inside the bracket, else doubling
while no shot has crossed zero and bisection once one has.  Crossings are
read at the nodes: a shot has crossed when u <= 0 at a node past x0.

The RK4 shots are plain Python loops on Python floats; there is no JIT.  Each
shot computes its stage coefficients c - lambda*m with numpy and hands them to
the loop as lists, because numpy scalars cost about three times as much per
step.  Elementwise and scalar arithmetic round alike, so the values are the
same doubles either way.
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


@dataclass
class EigenPair:
    """Principal eigenvalue with its sup-normalized eigenfunction on I.

    rayleigh is an independently assembled Rayleigh quotient of phi, kept as a
    cross-check against the bracketed lambda1.
    """

    lambda1: float
    phi: GridFunction
    rayleigh: float


def _rk4_full(K, KH, hsub, pm1, ipm1, nsub, out, wmid):
    """Integrate to the right endpoint, storing u at every nsub-th substep
    and w at the substep sitting at each ambient cell's midpoint.

    The loops run over half cells and their substeps, so no step tests its
    index.  Signed powers take the branch on the sign instead of multiplying
    by it, which gives the same doubles because no argument is ever -0.0: u
    and w start at +0.0 and 1.0, and a sum is -0.0 only if both terms are.
    """
    u = 0.0
    w = 1.0
    half = nsub // 2
    h2 = 0.5 * hsub
    h6 = hsub / 6.0
    out[0] = 0.0
    for k in range(2 * len(wmid)):
        for j in range(k * half, (k + 1) * half):
            k1u = w**ipm1 if w >= 0 else -((-w) ** ipm1)
            k1w = K[j] * (u**pm1 if u >= 0 else -((-u) ** pm1))
            au = u + h2 * k1u
            aw = w + h2 * k1w
            k2u = aw**ipm1 if aw >= 0 else -((-aw) ** ipm1)
            k2w = KH[j] * (au**pm1 if au >= 0 else -((-au) ** pm1))
            au = u + h2 * k2u
            aw = w + h2 * k2w
            k3u = aw**ipm1 if aw >= 0 else -((-aw) ** ipm1)
            k3w = KH[j] * (au**pm1 if au >= 0 else -((-au) ** pm1))
            au = u + hsub * k3u
            aw = w + hsub * k3w
            k4u = aw**ipm1 if aw >= 0 else -((-aw) ** ipm1)
            k4w = K[j + 1] * (au**pm1 if au >= 0 else -((-au) ** pm1))
            u += h6 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            w += h6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        if k & 1:
            out[(k + 1) >> 1] = u
        else:
            wmid[k >> 1] = w


def _shooter(p: float, c: Weight, m: Weight, I: Interval, n: int):
    """shot(lam) -> (out, wmid) of one _rk4_full on (p, c, m, I, n): u at the
    n + 1 nodes and w at the n cell midpoints, from the stage coefficient
    c - lam*m at the substep nodes and their midpoints, as float lists."""
    if p <= 1.0:
        raise ValueError(f"invalid exponent: p must be > 1, got {p}")
    nsub = 8 if (p < 1.2 or p > 6.0) else 4
    xs = np.linspace(I.a, I.b, n * nsub + 1)
    half = 0.5 * (xs[:-1] + xs[1:])
    cn, ch, mn, mh = c(xs), c(half), m(xs), m(half)
    hsub = (I.b - I.a) / (n * nsub)
    if hsub <= 0.0:
        raise EigenError("integration step underflow")
    pm1 = p - 1.0
    ipm1 = 1.0 / pm1

    def shot(lam: float):
        out = np.empty(n + 1)
        wmid = np.empty(n)
        K, KH = (cn - lam * mn).tolist(), (ch - lam * mh).tolist()
        _rk4_full(K, KH, hsub, pm1, ipm1, nsub, out, wmid)
        return out, wmid

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
    """Shot trajectory of the eigenvalue system and its first interior zero.

    Integrates with a classical fixed-step 4th-order scheme, 4 substeps per
    ambient cell (8 for p < 1.2 or p > 6), from (u, w) = (0, 1) at the left
    endpoint of I, in plain Python on floats (no JIT; see the module
    docstring).  Returns the trajectory sampled on the ambient grid and the
    location of the first zero of u past the start, None if u stays positive.
    The zero is read at the nodes: it is the secant root of u over the cell
    whose right node is the first with u <= 0, so it is within O(h^2) of the
    computed trajectory's zero.  A trajectory that reaches the right endpoint
    still positive but below truncation-error size relative to its peak is
    counted as hitting zero there; without this, a zero sitting exactly on
    the endpoint would be reported or dropped depending on the sign of the
    discretization error.
    """
    out, _ = _shooter(p, c, m, I, n)(lam)
    grid = Grid(np.linspace(I.a, I.b, n + 1))
    traj = GridFunction(grid, out)
    i = _first_zero(out)
    if i > n:
        top = float(np.max(out))
        if top > 0.0 and out[-1] <= 1e-7 * top:
            return traj, float(I.b)
        return traj, None
    return traj, float(grid.nodes[i - 1] + grid.h[i - 1] * out[i - 1] / (out[i - 1] - out[i]))


def principal_eigenvalue(
    p: float,
    c: Weight,
    m: Weight,
    I: Interval,
    n: int = DEFAULT_N,
) -> EigenPair:
    """Positive principal eigenvalue and eigenfunction on the window I.

    Probes follow three rules.  The first is the constant-coefficient closed
    form, exact when c and m are constant on I; each later one is the last
    shot's Newton step (module docstring) or, if that falls outside the
    bracket, doubling while no shot has crossed zero and bisection once one
    has.  Crossings are read at the nodes: a shot crosses when u <= 0 at a
    node past x0, which puts it at the high end of the bracket.  Probes stay
    _TOL/4 * lo inside the bracket (_TOL/4 * hi once hi is finite); every
    scale is relative, so m -> s m maps the probes to lambda / s.  It returns
    lambda minus the step of the first shot whose step is at most
    _TOL * lambda, whose first node with u <= 0, if any, is x1, and whose
    u(x1) is below sqrt(_TOL) of its peak, so that a small w(x1) alone
    cannot pass; failing that, the midpoint of a bracket at most _TOL * lo
    wide.

    The eigenfunction is rebuilt from the returned shot (the low end's in the
    fallback): each cell slope is the inverse p-flux of the shot's midpoint
    w, not a difference of its nodal u.  For p > 2 the nodal interpolant of
    the |x - x*|^{p/(p-1)} cusp at the apex carries an O(1) weak-form defect
    at the hats beside it, which no refinement shrinks; w = phi_p(u') stays
    smooth there, so the rebuilt profile's defect is O(h^2) everywhere.  A
    linear ramp removes the shot's small endpoint value.

    Raises NoEigenvalueError when m has no positive mass on I, BracketError
    when the bracket cap is exceeded, and EigenError, before any shot, when
    c is negative somewhere on I (beyond rounding of 1e-12 of its sup norm),
    where no positive principal eigenvalue need exist.
    """
    shot = _shooter(p, c, m, I, n)
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
    mbar = max(m_win.integral() / I.length(), 1e-12)
    cbar = max(c_win.integral() / I.length(), 0.0)
    lam = seed = ((p - 1.0) * (pi_p / I.length()) ** p + cbar) / mbar
    grid = Grid(np.linspace(I.a, I.b, n + 1))
    hcell = (I.b - I.a) / n
    # int_I m|u|^p is mhat @ |u|^p, each cell's exact m mass split between
    # its nodes, so that a break of m between nodes counts where it is
    cell_m = np.diff(m_win.antiderivative()(grid.nodes))
    mhat = 0.5 * (np.append(cell_m, 0.0) + np.append(0.0, cell_m))
    # w(x1) from w at the last midpoint: on that half cell u ~ |u'| (x1 - x),
    # so w gains (c - lambda m) |w| (h/2)^p / p on its way to x1
    m1, c1, tail = float(m_win(I.b)), float(c_win(I.b)), (0.5 * hcell) ** p / p
    lo, hi = 0.0, np.inf
    while hi - lo > _TOL * lo:
        out, wmid = shot(lam)
        u1 = float(out[-1])
        mass = float(mhat @ np.abs(out) ** p)
        w1 = float(wmid[-1]) * (1.0 + (lam * m1 - c1) * tail)
        step = (p - 1.0) * u1 * w1 / mass if mass > 0.0 else np.inf
        first = _first_zero(out)
        small = abs(step) <= _TOL * lam and abs(u1) <= np.sqrt(_TOL) * float(np.max(out))
        if small and first >= n:
            lam, w = lam - step, wmid
            break
        if first <= n:
            hi = lam
        else:
            lo, w_lo = lam, wmid
        if hi == np.inf and lo >= seed * 2.0**79:
            raise BracketError("bracket expansion exceeded its cap")
        lam -= step
        if not lo < lam < hi:
            lam = 2.0 * lo if hi == np.inf else 0.5 * (lo + hi)
        gap = 0.25 * _TOL * (lo if hi == np.inf else hi)
        lam = min(max(lam, lo + gap), hi - gap)
    else:
        lam, w = 0.5 * (lo + hi), w_lo
    slopes = np.abs(w) ** (1.0 / (p - 1.0)) * np.sign(w)
    vals = np.concatenate(([0.0], np.cumsum(slopes * hcell)))
    vals -= vals[-1] * np.linspace(0.0, 1.0, n + 1)
    vals = np.maximum(vals, 0.0)
    vals[-1] = 0.0
    if np.min(vals[1:-1]) <= 0.0:
        raise EigenError("eigenfunction lost interior positivity; refine the grid")
    phi = GridFunction(grid, vals / np.max(vals))
    plan = AssemblyPlan(grid, {"c": c_win, "m": m_win})
    s = phi.slopes()
    v = phi.values
    num = float(np.sum(np.abs(s) ** p * grid.h)) + float(v @ plan.load_vector("c", v, p - 1.0))
    den = float(v @ plan.load_vector("m", v, p - 1.0))
    rayleigh = num / den
    return EigenPair(lambda1=lam, phi=phi, rayleigh=rayleigh)


def window_eigenpair(prob: Problem, grid: Grid) -> EigenPair:
    """Principal eigenpair of prob on its window, resolved to match grid.

    The window gets the share of grid's cells that its length is of the
    domain's, and at least 64.  Every stage of one problem reads this single
    eigenpair.
    """
    n_win = max(64, round(grid.n * prob.window.length() / prob.domain.length()))
    return principal_eigenvalue(prob.p, prob.c_plus, prob.m, prob.window, n=n_win)
