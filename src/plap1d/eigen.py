"""Principal eigenvalue of the weighted problem on the window, by shooting.

The eigenvalue problem -(phi_p(F'))' + c phi_p(F) = lambda m phi_p(F) on
I = (x0, x1), F = 0 on the endpoints, is solved by integrating the first-order
system u' = phi_p^{-1}(w), w' = (c - lambda m) phi_p(u) from (u, w) = (0, 1)
and bracketing lambda until the first interior zero of u lands on the right
endpoint.  Only whether a shot crosses zero moves the bracket; its end value
u(x1; lambda) picks the next probe by regula falsi.  With m >= 0 on I the
first-zero position moves monotonically with lambda (the Pruefer angle at x1
grows with lambda), so the bracket is correct and u(x1; lambda) changes sign
continuously where the crossing flips.  The bracket orientation is asserted at
lambda = 0.

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

    Returns (jcross, u_pre, w_pre) of the substep whose step crossed zero
    first, or jcross = -1 when u stays positive.
    """
    u = 0.0
    w = 1.0
    half = nsub // 2
    out[0] = 0.0
    jcross = -1
    u_pre = 0.0
    w_pre = 1.0
    for j in range(len(KH)):
        up = u
        wp = w
        k1u = abs(w) ** ipm1 * (1.0 if w >= 0 else -1.0)
        k1w = K[j] * abs(u) ** pm1 * (1.0 if u >= 0 else -1.0)
        au = u + 0.5 * hsub * k1u
        aw = w + 0.5 * hsub * k1w
        k2u = abs(aw) ** ipm1 * (1.0 if aw >= 0 else -1.0)
        k2w = KH[j] * abs(au) ** pm1 * (1.0 if au >= 0 else -1.0)
        au = u + 0.5 * hsub * k2u
        aw = w + 0.5 * hsub * k2w
        k3u = abs(aw) ** ipm1 * (1.0 if aw >= 0 else -1.0)
        k3w = KH[j] * abs(au) ** pm1 * (1.0 if au >= 0 else -1.0)
        au = u + hsub * k3u
        aw = w + hsub * k3w
        k4u = abs(aw) ** ipm1 * (1.0 if aw >= 0 else -1.0)
        k4w = K[j + 1] * abs(au) ** pm1 * (1.0 if au >= 0 else -1.0)
        u += hsub / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        w += hsub / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        if (j + 1) % nsub == 0:
            out[(j + 1) // nsub] = u
        elif (j + 1) % nsub == half:
            wmid[(j + 1) // nsub] = w
        if jcross < 0 and u <= 0.0:
            jcross = j
            u_pre = up
            w_pre = wp
    return jcross, u_pre, w_pre


def _stage_tables(c: Weight, m: Weight, I: Interval, n: int, nsub: int):
    """Substep nodes xs and lam -> (K, KH), the RK4 stage coefficient
    c - lam*m at the substep nodes and at their midpoints, as float lists."""
    xs = np.linspace(I.a, I.b, n * nsub + 1)
    half = 0.5 * (xs[:-1] + xs[1:])
    cn, ch, mn, mh = c(xs), c(half), m(xs), m(half)
    return xs, lambda lam: ((cn - lam * mn).tolist(), (ch - lam * mh).tolist())


def _shooter(p: float, c: Weight, m: Weight, I: Interval, n: int):
    """(xs, hsub, pm1, ipm1, shot) for shots on (p, c, m, I, n); shot(lam)
    returns (out, wmid, (jcross, u_pre, w_pre), K, KH) of one _rk4_full."""
    if p <= 1.0:
        raise ValueError(f"invalid exponent: p must be > 1, got {p}")
    nsub = 8 if (p < 1.2 or p > 6.0) else 4
    xs, stages = _stage_tables(c, m, I, n, nsub)
    hsub = (I.b - I.a) / (n * nsub)
    if hsub <= 0.0:
        raise EigenError("integration step underflow")
    pm1 = p - 1.0
    ipm1 = 1.0 / pm1

    def shot(lam: float):
        K, KH = stages(lam)
        out = np.empty(n + 1)
        wmid = np.empty(n)
        cross = _rk4_full(K, KH, hsub, pm1, ipm1, nsub, out, wmid)
        return out, wmid, cross, K, KH

    return xs, hsub, pm1, ipm1, shot


def _partial_step(u0, w0, K0, Kh, K1, hsub, t, pm1, ipm1):
    # one RK4 step of size t*hsub with the stage coefficient interpolated
    # linearly on the half-grid; only used to localize a zero inside a substep
    def phi(v, e):
        return abs(v) ** e * (1.0 if v >= 0 else -1.0)

    def K(s):
        if s <= 0.5:
            return K0 + 2.0 * s * (Kh - K0)
        return Kh + (2.0 * s - 1.0) * (K1 - Kh)

    h = t * hsub
    k1u = phi(w0, ipm1)
    k1w = K(0.0) * phi(u0, pm1)
    k2u = phi(w0 + 0.5 * h * k1w, ipm1)
    k2w = K(0.5 * t) * phi(u0 + 0.5 * h * k1u, pm1)
    k3u = phi(w0 + 0.5 * h * k2w, ipm1)
    k3w = K(0.5 * t) * phi(u0 + 0.5 * h * k2u, pm1)
    k4u = phi(w0 + h * k3w, ipm1)
    k4w = K(t) * phi(u0 + h * k3u, pm1)
    return u0 + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)


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
    A trajectory that reaches the right endpoint still positive but below
    truncation-error size relative to its peak is counted as hitting zero
    there; without this, a zero sitting exactly on the endpoint would be
    reported or dropped depending on the sign of the discretization error.
    """
    xs, hsub, pm1, ipm1, shot = _shooter(p, c, m, I, n)
    out, _, (jcross, u_pre, w_pre), K, KH = shot(lam)
    grid = Grid(np.linspace(I.a, I.b, n + 1))
    traj = GridFunction(grid, out)
    if jcross < 0:
        top = float(np.max(out))
        if top > 0.0 and out[-1] <= 1e-7 * top:
            return traj, float(I.b)
        return traj, None
    j = jcross
    lo_t, hi_t = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo_t + hi_t)
        if _partial_step(u_pre, w_pre, K[j], KH[j], K[j + 1], hsub, mid, pm1, ipm1) > 0.0:
            lo_t = mid
        else:
            hi_t = mid
    x0 = xs[j] + 0.5 * (lo_t + hi_t) * hsub
    return traj, float(x0)


def normalize_sup(phi: GridFunction) -> GridFunction:
    """Divide by the max value; the attaining node becomes exactly 1."""
    top = float(np.max(phi.values))
    if top <= 0.0:
        raise ValueError("invalid certificate: function has nonpositive maximum")
    return GridFunction(phi.grid, phi.values / top)


def principal_eigenvalue(
    p: float,
    c: Weight,
    m: Weight,
    I: Interval,
    tol: float = 1e-8,
    n: int = DEFAULT_N,
) -> EigenPair:
    """Positive principal eigenvalue and eigenfunction on the window I.

    Keeps a bracket whose low end's shot stays positive and whose high end's
    shot crosses zero, grown geometrically from the constant-coefficient
    closed form, and returns its midpoint once its width is below
    tol * max(1, lambda).  Each probe is Illinois regula falsi on the ends'
    u(x1), a midpoint when the high end crossed twice (u(x1) >= 0), and at
    least tol/4 * max(1, lambda) inside the bracket.

    The eigenfunction is rebuilt from the shot at the no-zero end of the final
    bracket with each cell slope set to the inverse p-flux of w at the cell
    midpoint, rather than by sampling u at the nodes.  For p > 2 the
    eigenfunction peaks in a |x - x*|^{p/(p-1)} cusp and the nodal interpolant
    then carries an O(1) weak-form defect at the hats beside the apex, which
    no grid refinement shrinks; w = phi_p(u') stays smooth through the apex,
    so a profile whose hat flux differences telescope w has the defect
    everywhere at O(h^2).  The small endpoint excess of the shot (the bracket
    has finite width) is removed by subtracting a linear ramp.

    Raises NoEigenvalueError when m has no positive mass on I, BracketError
    when the bracket cap is exceeded, and EigenError when the lambda = 0
    trajectory already crosses zero (possible only for c negative somewhere,
    where no positive principal eigenvalue need exist).
    """
    _, _, _, ipm1, shot = _shooter(p, c, m, I, n)
    m_win = m.restrict(I.a, I.b)
    if m_win.pos_part().sup_norm() == 0.0:
        raise NoEigenvalueError("m has no positive part on the window")
    c_win = c.restrict(I.a, I.b)
    out, w_lo, (jcross, _, _), _, _ = shot(0.0)
    if jcross >= 0:
        raise EigenError(
            "trajectory at lambda = 0 already crosses zero; "
            "no positive principal eigenvalue for this c"
        )
    # the first probe is the constant-coefficient closed form, exact when c
    # and m are constant on the window; probes double until one crosses
    pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
    mbar = max(m_win.integral() / I.length(), 1e-12)
    cbar = max(c_win.integral() / I.length(), 0.0)
    seed = max(1.0, ((p - 1.0) * (pi_p / I.length()) ** p + cbar) / mbar)
    # f_lo > 0 always; f_hi < 0 unless hi crossed zero twice.  side is the
    # end the last probe moved, for the Illinois halving.
    lo, f_lo, hi, f_hi, side = 0.0, out[-1], np.inf, 0.0, 0
    while hi - lo > tol * max(1.0, lo):
        gap = 0.25 * tol * max(1.0, lo)
        if hi == np.inf:
            if lo >= seed * 2.0**79:
                raise BracketError("bracket expansion exceeded its cap")
            lam = 2.0 * lo if lo > 0.0 else seed
        elif f_hi < 0.0:
            lam = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        else:
            lam = 0.5 * (lo + hi)
        lam = min(max(lam, lo + gap), hi - gap)
        if lam <= lo or lam >= hi:
            break
        out, wmid, (jcross, _, _), _, _ = shot(lam)
        if jcross >= 0:
            hi, f_hi = lam, out[-1]
            if side > 0:
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo, w_lo = lam, out[-1], wmid
            if side < 0:
                f_hi *= 0.5
            side = -1
    hcell = (I.b - I.a) / n
    slopes = np.abs(w_lo) ** ipm1 * np.sign(w_lo)
    vals = np.concatenate(([0.0], np.cumsum(slopes * hcell)))
    vals -= vals[-1] * np.linspace(0.0, 1.0, n + 1)
    vals = np.maximum(vals, 0.0)
    vals[-1] = 0.0
    if np.min(vals[1:-1]) <= 0.0:
        raise EigenError("eigenfunction lost interior positivity; refine the grid")
    grid = Grid(np.linspace(I.a, I.b, n + 1))
    phi = normalize_sup(GridFunction(grid, vals))
    lam1 = 0.5 * (lo + hi)
    plan = AssemblyPlan(grid, {"c": c_win, "m": m_win})
    s = phi.slopes()
    v = phi.values
    num = float(np.sum(np.abs(s) ** p * grid.h)) + float(v @ plan.load_vector("c", v, p - 1.0))
    den = float(v @ plan.load_vector("m", v, p - 1.0))
    rayleigh = num / den
    return EigenPair(lambda1=lam1, phi=phi, rayleigh=rayleigh)


def window_eigenpair(prob: Problem, grid: Grid) -> EigenPair:
    """Principal eigenpair of prob on its window, resolved to match grid.

    The window gets the share of grid's cells that its length is of the
    domain's, and at least 64.  Every stage of one problem reads this single
    eigenpair.
    """
    n_win = max(64, round(grid.n * prob.window.length() / prob.domain.length()))
    return principal_eigenvalue(prob.p, prob.c_plus, prob.m, prob.window, n=n_win)
