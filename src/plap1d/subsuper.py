"""Certificate construction: explicit profile pieces, gluing, rescaling.

A subsolution certificate is assembled from up to three pieces: a rising
profile on the left reach [a, x1], the normalized principal eigenfunction on
the window, and a falling profile on the right reach [x0, b].  Each outer
profile is f^k, with f one formula per theorem (`_profile`).  The pieces
are glued where their difference changes sign strictly on a segment where
both are linear, which makes every kink convex, as the weak inequality
needs.  The glued function is rescaled so it certifies the original weight
rather than the inflated one the profiles are built against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bvp import solve_g
from .conditions import (
    _mass_integrals,
    default_eps,
    outer_profile,
    tau_interval,
)
from .core_types import (
    EpsTooLargeError,
    GlueError,
    Grid,
    GridFunction,
    Interval,
    NoSupersolutionError,
    Problem,
    TauTooLargeError,
)
from .eigen import EigenPair

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


def _profile(theorem: str, side: str, prob: Problem, tau: float, eps: float, n: int):
    """The theorem's outer profile f^k on the left reach [a, x1] or the right
    reach [x0, b], side "left" or "right".

    f = sigma g(d) at the distance d from the reach's outer end, with k,
    sigma and g from `conditions.outer_profile`; for thm1_* g is the exact
    eps-inflated negative mass from that end to x (`_mass_integrals`).  A
    tau above `tau_interval`'s upper end lifts f^k above 1 and raises
    TauTooLargeError.
    """
    prof = outer_profile(theorem, prob)
    sigma = prof.sigma(tau)
    a, b = prob.domain.a, prob.domain.b
    left = side == "left"
    # a uniform grid on the reach with the weight's kinks as extra nodes
    reach = Interval(a, prob.window.b) if left else Interval(prob.window.a, b)
    grid = Grid.uniform(reach, max(int(n), 16)).with_points(prob.m.breaks[1:-1])
    d = grid.nodes - a if left else b - grid.nodes
    if prof.shape == "power":
        F, G = _mass_integrals(prob.m, eps)
        if left:
            f = sigma * (G(grid.nodes) - G(a))
        else:
            f = sigma * (float(F(b)) * d - (float(G(b)) - G(grid.nodes)))
    else:
        f = sigma * prof.g(d)
    vals = np.maximum(f, 0.0) ** prof.k
    vals[0 if left else -1] = 0.0
    if vals.max() > 1.0 + _EDGE_TOL:
        raise TauTooLargeError(
            f"{side} {prof.shape} profile exceeds 1 (max {vals.max():.6g}) at tau={tau:g}"
        )
    return GridFunction(grid, vals)


def build_u1_power(
    prob: Problem, tau: float, eps: float, variant: str, n: int = 256
) -> GridFunction:
    """Left power profile (sigma * int_a^x M^-_eps)^k on [a, x1]; variant is
    the theorem's name, "thm1_i" or "thm1_ii"."""
    return _profile(variant, "left", prob, tau, eps, n)


def build_u3_power(
    prob: Problem, tau: float, eps: float, variant: str, n: int = 256
) -> GridFunction:
    """Right power profile (sigma * int_x^b M^-_eps)^k on [x0, b]."""
    return _profile(variant, "right", prob, tau, eps, n)


def build_u1_sinh(prob: Problem, tau: float, n: int = 256) -> GridFunction:
    """Left sinh profile f^k on [a, x1], for p >= 2 with nontrivial c."""
    return _profile("thm2_i", "left", prob, tau, 0.0, n)


def build_u3_sinh(prob: Problem, tau: float, n: int = 256) -> GridFunction:
    """Right sinh profile, reflected: f(b - x)^k on [x0, b]."""
    return _profile("thm2_i", "right", prob, tau, 0.0, n)


def build_u1_exp(prob: Problem, tau: float, n: int = 256) -> GridFunction:
    """Left exp profile (sigma expm1(rate (x - a)))^k on [a, x1]; any p > 1."""
    return _profile("thm2_ii", "left", prob, tau, 0.0, n)


def build_u3_exp(prob: Problem, tau: float, n: int = 256) -> GridFunction:
    """Right exp profile, reflected."""
    return _profile("thm2_ii", "right", prob, tau, 0.0, n)


def build_u1_linear(prob: Problem, tau: float, n: int = 256) -> GridFunction:
    """Left linear profile for the c-free case: the vanishing-c limit of sinh."""
    return _profile("cor", "left", prob, tau, 0.0, n)


def build_u3_linear(prob: Problem, tau: float, n: int = 256) -> GridFunction:
    """Right linear profile, reflected."""
    return _profile("cor", "right", prob, tau, 0.0, n)


def _outer_piece(piece: str, theorem: str, prob: Problem, tau: float, eps: float, n: int):
    # through the module-level builder name, so a wrapper installed on this
    # module sees the call; a power builder takes the theorem as its variant
    shape = outer_profile(theorem, prob).shape
    build = globals()[f"build_{piece}_{shape}"]
    return build(prob, tau, eps, theorem, n) if shape == "power" else build(prob, tau, n)


# ---------------------------------------------------------------------------
# gluing


def _junction(side, u_out, u2, xm):
    """Where the glued function leaves u_out for u2, between a window edge and xm.

    Both pieces are linear on every segment of their union grid.  The
    junction is the root of D = u_out - u2 on the segment nearest the peak
    xm where D changes sign strictly: from > 0 to < 0 on the left, from < 0
    to > 0 on the right.  D is monotone on that segment, so u_out' < u2' at
    a left junction and u_out' > u2' at a right one, and the kink is convex,
    as the weak subsolution inequality needs.
    """
    I = u2.grid.interval
    left = side == "left"
    lo, hi = (I.a, xm) if left else (xm, I.b)
    X = np.union1d(u_out.grid.nodes, u2.grid.nodes)
    X = X[(X >= lo) & (X <= hi)]
    U = u_out(X)
    D = U - u2(X)
    scale = max(u_out.sup_norm(), u2.sup_norm(), 1e-300)
    if np.max(np.abs(D)) <= 1e-12 * scale:
        # the pieces coincide on the whole overlap; derivative ordering is an
        # equality, so the junction closest to the boundary works
        return float(X[0]) if left else float(X[-1])
    if not U.any():
        # no negative mass on the reach, so the outer piece vanishes and D =
        # -u2 leaves 0 at the window edge: a kink 0 <= u2', also convex
        i = 0 if left else len(X) - 2
    else:
        if left:
            cand = np.flatnonzero((D[:-1] > 0.0) & (D[1:] < 0.0))
        else:
            cand = np.flatnonzero((D[:-1] < 0.0) & (D[1:] > 0.0))
        if cand.size == 0:
            raise GlueError(f"the {side} profile never crosses the eigenfunction")
        i = int(cand[-1] if left else cand[0])
    x = X[i] + (X[i + 1] - X[i]) * (D[i] / (D[i] - D[i + 1]))
    return float(np.clip(x, I.a, I.b))


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

    # each piece keeps its own nodes on its side of the junctions, with their
    # stored values; only the junctions themselves are interpolated
    keep = (u2.grid.nodes > x_lo + pad) & (u2.grid.nodes < x_hi - pad)
    nodes = [[x_lo], u2.grid.nodes[keep], [x_hi]]
    vals = [[float(u2(x_lo))], u2.values[keep], [float(u2(x_hi))]]
    if u1 is not None:
        keep = u1.grid.nodes < x_lo - pad
        nodes.insert(0, u1.grid.nodes[keep])
        vals.insert(0, u1.values[keep])
    if u3 is not None:
        keep = u3.grid.nodes > x_hi + pad
        nodes.append(u3.grid.nodes[keep])
        vals.append(u3.values[keep])
    glued = GridFunction(Grid(np.concatenate(nodes)), np.concatenate(vals))
    return glued, float(x_lo), float(x_hi)


# ---------------------------------------------------------------------------
# orchestration


def build_subsolution(
    prob: Problem, theorem: str, grid: Grid, eig: EigenPair
) -> Certificate:
    """Assemble, glue, and rescale the subsolution the chosen theorem proves.

    eig is the principal eigenpair on the window, as `window_eigenpair`
    computes it for grid; its eigenfunction is the middle piece.  Each step
    of the eps halving schedule tries one tau, the geometric mean of the
    feasible range clamped into it.  tau <= hi already keeps each profile
    at or below 1, its value at the far end of its reach, and the junctions
    are admissible by construction (`_junction`), so in practice a step
    fails, and eps is halved, only when the range is empty
    (EpsTooLargeError).  The glued function certifies the weight
    tau_effective * m, with tau_effective = tau * `TauInterval.scale`;
    scaling it by tau_effective^{-1/(p-1-q)} balances the degree-(p-1) left
    side against the degree-q right side exactly and moves it to m without
    spending any slack.
    """
    span = prob.domain.length()
    x0, x1 = prob.window.a, prob.window.b
    has_left = x0 - prob.domain.a > _EDGE_TOL * span
    has_right = prob.domain.b - x1 > _EDGE_TOL * span
    n_left = max(32, round(grid.n * (x1 - prob.domain.a) / span))
    n_right = max(32, round(grid.n * (prob.domain.b - x0) / span))

    eps = default_eps(prob.m)
    for _ in range(21):
        try:
            ti = tau_interval(theorem, prob, eig, eps)
            tau = min(max(math.sqrt(ti.lo * ti.hi), ti.lo), ti.hi)
            u1 = _outer_piece("u1", theorem, prob, tau, eps, n_left) if has_left else None
            u3 = _outer_piece("u3", theorem, prob, tau, eps, n_right) if has_right else None
            raw, x_lo, x_hi = glue(u1, eig.phi, u3)
        except (EpsTooLargeError, TauTooLargeError, GlueError) as exc:
            last_error = exc
            eps *= 0.5
            continue
        tau_eff = tau * ti.scale
        prof = outer_profile(theorem, prob)
        s = tau_eff ** (-1.0 / (prob.p - 1.0 - prob.q))
        return Certificate(
            kind="subsolution",
            u=raw.scaled(s),
            construction={
                "theorem": theorem,
                "tau": tau,
                "tau_effective": tau_eff,
                "eps": eps,
                "k": prof.k,
                "sigma": prof.sigma(tau),
                "junction_lo": x_lo,
                "junction_hi": x_hi,
                "rescale": s,
                "lambda1": float(eig.lambda1),
            },
        )
    raise last_error


def build_supersolution(prob: Problem, grid: Grid) -> Certificate:
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
    if prob.m.max_value() <= 0.0:
        raise NoSupersolutionError(
            "m has no positive part, so no positive solution exists"
        )
    v = solve_g(prob.p, prob.m.pos_part(), grid)
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
