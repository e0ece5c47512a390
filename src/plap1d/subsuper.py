"""Certificate construction: explicit profile pieces, gluing, rescaling.

A subsolution certificate is assembled from up to three pieces: a rising
profile on the left reach [a, x1], the normalized principal eigenfunction on
the window, and a falling profile on the right reach [x0, b].  The pieces are
glued at sign changes of their difference, where the one-sided derivative
ordering makes the kink admissible for the weak inequality, and the glued
function is rescaled so it certifies the original weight rather than the
inflated one the profiles are built against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bvp import solve_g
from .conditions import _mass_integrals, _side_masses, c_pq, default_eps, gamma, tau_interval
from .core_types import (
    EpsTooLargeError,
    GlueError,
    Grid,
    GridFunction,
    Interval,
    NoSupersolutionError,
    Problem,
    TauTooLargeError,
    Weight,
)
from .eigen import EigenPair

SUBSOLUTION_THEOREMS = ("thm1_i", "thm1_ii", "thm2_i", "thm2_ii", "cor")

_EDGE_TOL = 1e-12


@dataclass
class Certificate:
    """A sub- or supersolution with the data needed to reproduce it.

    construction records the recipe (theorem, tau, eps, exponents, junction
    points, rescale factor); verified stays None until a verification report
    is attached by the caller.
    """

    kind: str
    u: GridFunction
    construction: dict
    verified: object | None = None

    def __post_init__(self):
        if self.kind not in ("subsolution", "supersolution"):
            raise ValueError(f"unknown certificate kind: {self.kind!r}")


# ---------------------------------------------------------------------------
# profile pieces


def _reach_grid(lo: float, hi: float, m: Weight, n: int) -> Grid:
    """Uniform n-cell grid on [lo, hi] with the weight's kinks as extra nodes."""
    g = Grid.uniform(Interval(lo, hi), max(int(n), 16))
    inner = [b for b in m.breaks[1:-1] if lo < b < hi]
    return g.with_points(inner) if inner else g


def _profile_params(theorem: str, prob: Problem, tau: float):
    """(k, sigma) of the theorem's outer profile at tau.

    The profile is f^k; sigma scales f: the running mass integral for the
    power profiles (thm1_*), the amplitude of sinh/expm1 (thm2_*), the slope
    of the linear profile (cor).
    """
    p, q = prob.p, prob.q
    d = p - 1.0 - q
    if theorem == "thm1_i":
        if p < 2.0 or q <= p - 2.0:
            raise ValueError("variant A needs p >= 2 and q in (p-2, p-1)")
        k = 1.0 / d
        gam = gamma(prob.domain, prob.window)
        return k, tau * gam ** (p - 2.0) / ((p - 1.0) * k ** (p - 1.0))
    if theorem == "thm1_ii":
        if p > 2.0:
            raise ValueError("variant B needs p in (1, 2]")
        k = (p - 1.0) / d
        return k, (1.0 / k) * (tau / (p - 1.0)) ** (1.0 / (p - 1.0))
    scale = c_pq(p, q) if theorem == "cor" else prob.c_plus.sup_norm()
    return p / d, (tau * prob.m.neg_part().sup_norm() / scale) ** (1.0 / p)


def _power_params(prob: Problem, tau: float, variant: str):
    """_profile_params of the power variant: A is thm1_i, B is thm1_ii."""
    if variant not in ("A", "B"):
        raise ValueError(f"unknown power variant: {variant!r}")
    return _profile_params("thm1_i" if variant == "A" else "thm1_ii", prob, tau)


def build_u1_power(
    prob: Problem, tau: float, eps: float, variant: str, n: int = 256
) -> GridFunction:
    """Left power profile (sigma * int_a^x M^-_eps)^k on [a, x1].

    Nodal values are exact: the running integral of the inflated negative
    mass is evaluated through its polynomial antiderivative.
    """
    k, sigma = _power_params(prob, tau, variant)
    a = prob.domain.a
    grid = _reach_grid(a, prob.window.b, prob.m, n)
    _, G = _mass_integrals(prob.m, eps)
    inner = sigma * (G(grid.nodes) - G(a))
    vals = np.maximum(inner, 0.0) ** k
    vals[0] = 0.0
    if vals.max() > 1.0 + _EDGE_TOL:
        raise TauTooLargeError(
            f"left power profile exceeds 1 (max {vals.max():.6g}) at tau={tau:g}"
        )
    return GridFunction(grid, vals)


def build_u3_power(
    prob: Problem, tau: float, eps: float, variant: str, n: int = 256
) -> GridFunction:
    """Right power profile (sigma * int_x^b M^-_eps)^k on [x0, b]."""
    k, sigma = _power_params(prob, tau, variant)
    b = prob.domain.b
    grid = _reach_grid(prob.window.a, b, prob.m, n)
    F, G = _mass_integrals(prob.m, eps)
    total = float(F(b))
    tail = total * (b - grid.nodes) - (float(G(b)) - G(grid.nodes))
    vals = np.maximum(sigma * tail, 0.0) ** k
    vals[-1] = 0.0
    if vals.max() > 1.0 + _EDGE_TOL:
        raise TauTooLargeError(
            f"right power profile exceeds 1 (max {vals.max():.6g}) at tau={tau:g}"
        )
    return GridFunction(grid, vals)


def _hyperbolic_setup(prob: Problem, theorem: str, tau: float):
    cn = prob.c_plus.sup_norm()
    if cn == 0.0:
        raise ValueError("hyperbolic profiles need c not identically zero")
    C = c_pq(prob.p, prob.q)
    rate = (cn / C) ** (1.0 / prob.p)
    k, amp = _profile_params(theorem, prob, tau)
    return cn, C, rate, amp, k


def _profile_piece(grid, f, k, tau, label):
    if f.max() > 1.0 + _EDGE_TOL:
        raise TauTooLargeError(
            f"{label} profile exceeds 1 (max {f.max():.6g}) at tau={tau:g}"
        )
    return GridFunction(grid, np.maximum(f, 0.0) ** k)


def _check_sinh_identity(f, fprime, cn, C, tau, mminus, p):
    # cosh^2 - sinh^2 = 1 in disguise; a failure here is an arithmetic bug
    target = (tau * mminus) ** (2.0 / p)
    resid = (C ** (1.0 / p) * fprime) ** 2 - (cn ** (1.0 / p) * f) ** 2 - target
    scale = max(1.0, target)
    assert np.max(np.abs(resid)) <= 1e-10 * scale, "sinh profile identity failed"


def build_u1_sinh(prob: Problem, tau: float, n: int = 256) -> GridFunction:
    """Left sinh profile f^k on [a, x1], for p >= 2 with nontrivial c."""
    if prob.p < 2.0:
        raise ValueError("sinh profile needs p >= 2")
    cn, C, rate, amp, k = _hyperbolic_setup(prob, "thm2_i", tau)
    a = prob.domain.a
    grid = _reach_grid(a, prob.window.b, prob.m, n)
    f = amp * np.sinh(rate * (grid.nodes - a))
    fprime = amp * rate * np.cosh(rate * (grid.nodes - a))
    mminus = prob.m.neg_part().sup_norm()
    _check_sinh_identity(f, fprime, cn, C, tau, mminus, prob.p)
    return _profile_piece(grid, f, k, tau, "left sinh")


def build_u3_sinh(prob: Problem, tau: float, n: int = 256) -> GridFunction:
    """Right sinh profile, reflected: f(b - x)^k on [x0, b]."""
    if prob.p < 2.0:
        raise ValueError("sinh profile needs p >= 2")
    cn, C, rate, amp, k = _hyperbolic_setup(prob, "thm2_i", tau)
    b = prob.domain.b
    grid = _reach_grid(prob.window.a, b, prob.m, n)
    f = amp * np.sinh(rate * (b - grid.nodes))
    fprime = amp * rate * np.cosh(rate * (b - grid.nodes))
    mminus = prob.m.neg_part().sup_norm()
    _check_sinh_identity(f, fprime, cn, C, tau, mminus, prob.p)
    return _profile_piece(grid, f, k, tau, "right sinh")


def build_u1_exp(prob: Problem, tau: float, n: int = 256) -> GridFunction:
    """Left exp profile sigma(e^{rate (x-a)} - 1)^... raised to k; any p > 1."""
    cn, C, rate, amp, k = _hyperbolic_setup(prob, "thm2_ii", tau)
    a = prob.domain.a
    grid = _reach_grid(a, prob.window.b, prob.m, n)
    f = amp * np.expm1(rate * (grid.nodes - a))
    return _profile_piece(grid, f, k, tau, "left exp")


def build_u3_exp(prob: Problem, tau: float, n: int = 256) -> GridFunction:
    """Right exp profile, reflected."""
    cn, C, rate, amp, k = _hyperbolic_setup(prob, "thm2_ii", tau)
    b = prob.domain.b
    grid = _reach_grid(prob.window.a, b, prob.m, n)
    f = amp * np.expm1(rate * (b - grid.nodes))
    return _profile_piece(grid, f, k, tau, "right exp")


def build_u1_linear(prob: Problem, tau: float, n: int = 256) -> GridFunction:
    """Left linear profile for the c-free case: the vanishing-c limit of sinh."""
    if prob.c_plus.sup_norm() > 0.0:
        raise ValueError("linear profile is for c identically zero")
    k, slope = _profile_params("cor", prob, tau)
    a = prob.domain.a
    grid = _reach_grid(a, prob.window.b, prob.m, n)
    f = slope * (grid.nodes - a)
    return _profile_piece(grid, f, k, tau, "left linear")


def build_u3_linear(prob: Problem, tau: float, n: int = 256) -> GridFunction:
    """Right linear profile, reflected."""
    if prob.c_plus.sup_norm() > 0.0:
        raise ValueError("linear profile is for c identically zero")
    k, slope = _profile_params("cor", prob, tau)
    b = prob.domain.b
    grid = _reach_grid(prob.window.a, b, prob.m, n)
    f = slope * (b - grid.nodes)
    return _profile_piece(grid, f, k, tau, "right linear")


# ---------------------------------------------------------------------------
# gluing


def _union_nodes(g1: Grid, g2: Grid, lo: float, hi: float) -> np.ndarray:
    X = np.union1d(g1.nodes, g2.nodes)
    return X[(X >= lo) & (X <= hi)]


def _local_cell(grid: Grid, x: float) -> float:
    j = int(np.clip(np.searchsorted(grid.nodes, x) - 1, 0, grid.n - 1))
    return float(grid.h[j])


def _bisect_crossing(f, lo, hi, pos_at_lo, iters=80):
    # f is continuous with sign change across [lo, hi]
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (f(mid) >= 0.0) == pos_at_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _junction(side, u_out, u2, xm):
    """Crossing of u_out - u2 nearest the peak with an admissible kink.

    side "left": scan [x0, xm] right-to-left, need u_out' <= u2' there.
    side "right": scan [xm, x1] left-to-right, need u_out' >= u2' there.
    """
    I = u2.grid.interval
    lo, hi = (I.a, xm) if side == "left" else (xm, I.b)
    X = _union_nodes(u_out.grid, u2.grid, lo, hi)
    D = u_out(X) - u2(X)
    scale = max(u_out.sup_norm(), u2.sup_norm(), 1e-300)
    if np.max(np.abs(D)) <= 1e-12 * scale:
        # profiles coincide on the whole overlap; derivative ordering is an
        # equality, so the junction closest to the boundary works
        return float(X[0]) if side == "left" else float(X[-1])

    diff = lambda x: float(u_out(x) - u2(x))
    if side == "left":
        cand = [i for i in range(len(X) - 1) if D[i] >= 0.0 > D[i + 1]]
        order = reversed(cand)
    else:
        cand = [i for i in range(len(X) - 1) if D[i] < 0.0 <= D[i + 1]]
        order = iter(cand)

    for i in order:
        x = _bisect_crossing(diff, float(X[i]), float(X[i + 1]), side == "left")
        delta = 0.25 * min(_local_cell(u_out.grid, x), _local_cell(u2.grid, x))
        if side == "left":
            s_out = (u_out(x) - u_out(x - delta)) / delta
            s_in = (u2(x + delta) - u2(x)) / delta
            admissible = s_out <= s_in + 1e-6 * max(1.0, abs(s_out), abs(s_in))
        else:
            s_in = (u2(x) - u2(x - delta)) / delta
            s_out = (u_out(x + delta) - u_out(x)) / delta
            admissible = s_out >= s_in - 1e-6 * max(1.0, abs(s_out), abs(s_in))
        if admissible:
            return float(np.clip(x, I.a, I.b))
    raise GlueError(
        f"no {side} junction with admissible derivative ordering; "
        "a different tau or a smaller eps may help"
    )


def glue(
    u1: GridFunction | None, u2: GridFunction, u3: GridFunction | None
) -> tuple[GridFunction, float, float]:
    """Join the pieces at admissible crossings around the window peak.

    u1 and u3 may be None when the window touches the matching domain
    endpoint; the eigenfunction then runs all the way to that endpoint.
    Returns the glued function together with both junction points.
    """
    I = u2.grid.interval
    peak = int(np.argmax(u2.values))
    xm = float(u2.grid.nodes[peak])
    x_lo = I.a if u1 is None else _junction("left", u1, u2, xm)
    x_hi = I.b if u3 is None else _junction("right", u3, u2, xm)
    if not x_lo < x_hi:
        raise GlueError(f"junctions out of order: {x_lo} >= {x_hi}")

    left_end = u1.grid.nodes[0] if u1 is not None else I.a
    right_end = u3.grid.nodes[-1] if u3 is not None else I.b
    span = right_end - left_end
    pad = 1e-13 * span

    parts_x = []
    parts_v = []
    if u1 is not None:
        xs = u1.grid.nodes[u1.grid.nodes < x_lo - pad]
        parts_x.append(xs)
        parts_v.append(u1(xs))
    mid = u2.grid.nodes[(u2.grid.nodes > x_lo + pad) & (u2.grid.nodes < x_hi - pad)]
    parts_x.extend([[x_lo], mid])
    parts_v.extend([[float(u2(x_lo))], u2(mid)])
    parts_x.append([x_hi])
    parts_v.append([float(u2(x_hi))])
    if u3 is not None:
        xs = u3.grid.nodes[u3.grid.nodes > x_hi + pad]
        parts_x.append(xs)
        parts_v.append(u3(xs))

    nodes = np.concatenate([np.atleast_1d(np.asarray(x, float)) for x in parts_x])
    vals = np.concatenate([np.atleast_1d(np.asarray(v, float)) for v in parts_v])
    glued = GridFunction(Grid(nodes), vals)
    return glued, float(x_lo), float(x_hi)


# ---------------------------------------------------------------------------
# rescaling and orchestration


def rescale_certificate(
    u: GridFunction, tau_effective: float, prob: Problem
) -> GridFunction:
    """Scale a subsolution for weight tau_effective*m down to one for m.

    The factor tau_effective^{-1/(p-1-q)} balances the degree-(p-1) left side
    against the degree-q right side exactly, so no inequality slack is spent.
    """
    if tau_effective <= 0.0:
        raise ValueError("tau_effective must be positive")
    s = tau_effective ** (-1.0 / (prob.p - 1.0 - prob.q))
    return u.scaled(s)


_LEFT_BUILDERS = {
    "thm1_i": lambda prob, tau, eps, n: build_u1_power(prob, tau, eps, "A", n),
    "thm1_ii": lambda prob, tau, eps, n: build_u1_power(prob, tau, eps, "B", n),
    "thm2_i": lambda prob, tau, eps, n: build_u1_sinh(prob, tau, n),
    "thm2_ii": lambda prob, tau, eps, n: build_u1_exp(prob, tau, n),
    "cor": lambda prob, tau, eps, n: build_u1_linear(prob, tau, n),
}

_RIGHT_BUILDERS = {
    "thm1_i": lambda prob, tau, eps, n: build_u3_power(prob, tau, eps, "A", n),
    "thm1_ii": lambda prob, tau, eps, n: build_u3_power(prob, tau, eps, "B", n),
    "thm2_i": lambda prob, tau, eps, n: build_u3_sinh(prob, tau, n),
    "thm2_ii": lambda prob, tau, eps, n: build_u3_exp(prob, tau, n),
    "cor": lambda prob, tau, eps, n: build_u3_linear(prob, tau, n),
}


def _tau_effective(theorem, prob, tau, eps):
    if theorem != "thm1_ii":
        return tau
    Ma, _, Mb, _ = _side_masses(prob.m, eps, prob.window.a, prob.window.b)
    return tau * max(Ma, Mb) ** (prob.p - 2.0)


def build_subsolution(
    prob: Problem, theorem: str, grid: Grid, eig: EigenPair
) -> Certificate:
    """Assemble, glue, and rescale the subsolution the chosen theorem proves.

    eig is the principal eigenpair on the window, as `window_eigenpair`
    computes it for grid; its eigenfunction is the middle piece.  Walks the
    eps halving schedule; within each feasible tau range tries the geometric
    mean first and then both near-endpoints, since the endpoints maximize
    one-sided slack when the mid choice fails to glue.
    """
    if theorem not in SUBSOLUTION_THEOREMS:
        raise ValueError(f"unknown theorem name: {theorem!r}")
    span = prob.domain.length()
    x0, x1 = prob.window.a, prob.window.b
    has_left = x0 - prob.domain.a > _EDGE_TOL * span
    has_right = prob.domain.b - x1 > _EDGE_TOL * span

    n_total = grid.n
    u2 = eig.phi

    n_left = max(32, round(n_total * (x1 - prob.domain.a) / span))
    n_right = max(32, round(n_total * (prob.domain.b - x0) / span))

    eps = default_eps(prob.m)
    last_error: Exception | None = None
    for _ in range(21):
        try:
            ti = tau_interval(theorem, prob, eig, eps)
        except EpsTooLargeError as exc:
            last_error = exc
            eps *= 0.5
            continue
        taus = [math.sqrt(ti.lo * ti.hi), ti.lo * 1.0001, ti.hi * 0.9999]
        for tau in taus:
            tau = min(max(tau, ti.lo), ti.hi)
            try:
                u1 = _LEFT_BUILDERS[theorem](prob, tau, eps, n_left) if has_left else None
                u3 = (
                    _RIGHT_BUILDERS[theorem](prob, tau, eps, n_right)
                    if has_right
                    else None
                )
                raw, x_lo, x_hi = glue(u1, u2, u3)
            except (TauTooLargeError, GlueError) as exc:
                last_error = exc
                continue
            tau_eff = _tau_effective(theorem, prob, tau, eps)
            k, sigma = _profile_params(theorem, prob, tau)
            s = tau_eff ** (-1.0 / (prob.p - 1.0 - prob.q))
            return Certificate(
                kind="subsolution",
                u=rescale_certificate(raw, tau_eff, prob),
                construction={
                    "theorem": theorem,
                    "tau": tau,
                    "tau_effective": tau_eff,
                    "eps": eps,
                    "k": k,
                    "sigma": sigma,
                    "junction_lo": x_lo,
                    "junction_hi": x_hi,
                    "rescale": s,
                    "lambda1": float(eig.lambda1),
                },
            )
        eps *= 0.5
    if last_error is None:
        last_error = GlueError("subsolution construction failed before any attempt")
    raise last_error


def build_supersolution(prob: Problem, grid: Grid | None = None) -> Certificate:
    """k(v+1) with v the companion solution of -(phi_p(v'))' = m^+.

    The smallest admissible k is (1+||v||)^{q/(p-1-q)}; the resulting w stays
    at or above k everywhere, so it is strictly positive up to the boundary.
    The companion problem leaves c out: for c >= 0 the term c w^{p-1} only
    adds to the left side of the supersolution inequality, so w certifies
    every such c.  With the sign-changing-c flag set that argument does not
    hold, and only the independent weak-form check can tell whether w is a
    supersolution.

    Supported range: v is exact for every p > 1, but near its apex the cell
    increments of v shrink like h^{p/(p-1)}, and w = k(v+1) stores them next
    to k and loses their low digits.  On the step weight w verifies for
    p >= 1.4 up to n = 4096 cells; at p = 1.3 it fails the check from
    n = 2048 on.
    """
    if prob.c.min_value() < 0.0 and not prob.allow_sign_changing_c:
        raise NoSupersolutionError(
            "supersolution construction needs c >= 0 pointwise"
        )
    mplus = prob.m.pos_part()
    if mplus.sup_norm() == 0.0:
        raise NoSupersolutionError(
            "m has no positive part, so no positive solution exists"
        )
    if grid is None:
        grid = prob.default_grid()
    v = solve_g(prob.p, mplus, prob.domain, grid=grid)
    if float(np.min(v.values)) < -1e-10 * max(1.0, v.sup_norm()):
        raise NoSupersolutionError(
            "companion solution is not nonnegative"
        )
    k = (1.0 + v.sup_norm()) ** (prob.q / (prob.p - 1.0 - prob.q))
    w = GridFunction(grid, k * (v.values + 1.0))
    return Certificate(
        kind="supersolution",
        u=w,
        construction={"k": k, "v_sup": v.sup_norm()},
    )


def enforce_ordering(sub: Certificate, sup: Certificate) -> Certificate:
    """Scale the subsolution down by powers of 1/2 until it sits under sup.

    Subsolutions tolerate any down-scaling (the two sides of the weak
    inequality have homogeneity degrees p-1 > q), so this preserves the
    certificate exactly; the halving factor is recorded in construction.
    """
    X = np.union1d(sub.u.grid.nodes, sup.u.grid.nodes)
    s_vals = sub.u(X)
    w_vals = sup.u(X)
    factor = 1.0
    for _ in range(200):
        if np.all(factor * s_vals <= w_vals):
            break
        factor *= 0.5
    else:
        raise GlueError("could not order subsolution below supersolution")
    if factor == 1.0:
        return sub
    construction = dict(sub.construction)
    construction["ordering_factor"] = factor
    return Certificate(
        kind="subsolution",
        u=sub.u.scaled(factor),
        construction=construction,
        verified=None,
    )
