"""Positive solutions between certificates by constrained energy descent.

With a sign-changing weight the reaction is not monotone in u, so the
classical monotone iteration between sub- and supersolution is not justified;
what is justified is minimizing the problem's energy over the order interval,
whose interior critical points satisfy the discrete weak equation.  The
minimizer is found by projected Newton from the box midpoint: a tridiagonal
model on the free nodes, clipped into the box and backtracked until it lowers
the energy or the residual.  Convergence is judged by the projected-gradient
residual, so a node pinned at a bound counts as converged only when its
multiplier has the right sign.

For p < 2 the model's diffusion weight is the Kacanov weight |s|^{p-2} =
phi_p(s)/s, the secant slope of phi_p, instead of Newton's (p-1)|s|^{p-2},
which understates it where the slope s passes through zero at the solution's
apex and makes the iteration crawl or diverge (see `_projected_newton`).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from multiprocessing import Pool

import numpy as np
from scipy.linalg import solve_banded

from .conditions import check_all
from .core_types import (
    AssemblyPlan,
    CertificateError,
    Grid,
    GridFunction,
    Problem,
    SolverError,
    phi_p,
)
# principal_eigenvalue stays importable from here for existing callers
from .eigen import EigenPair, principal_eigenvalue, window_eigenpair  # noqa: F401
from .subsuper import (
    Certificate,
    build_subsolution,
    build_supersolution,
    enforce_ordering,
)
from .verify import check_weak_subsolution, check_weak_supersolution, solution_residual

log = logging.getLogger(__name__)

_ARMIJO = 1e-4
_MAX_NEWTON = 600


@dataclass
class SolutionReport:
    """Everything a run produced: the solution, its quality, and the recipe."""

    u: GridFunction
    residual: float
    min_interior: float
    ordering_ok: bool
    conditions: list = field(default_factory=list)
    certificates: dict = field(default_factory=dict)

    def require_certified(self, tol: float) -> None:
        """Raise CertificateError unless u lies between the certificates, its
        residual is at most tol and it is positive at every interior node."""
        if not self.ordering_ok:
            raise CertificateError("solution leaves the box between the certificates")
        if not self.residual <= tol:
            raise CertificateError(f"residual {self.residual:.3e} above tol {tol:.1e}")
        if not self.min_interior > 0.0:
            raise CertificateError(f"min_interior {self.min_interior:.3e} is not positive")


def energy(u: GridFunction, prob: Problem, plan: AssemblyPlan | None = None) -> float:
    """(1/p) int (|u'|^p + c u^p) - (1/(q+1)) int m u^{q+1}, u clipped at 0."""
    if plan is None:
        plan = _plan(u.grid, prob)
    vals = np.maximum(u.values, 0.0)
    return _energy_and_grad(vals, u.grid, plan, prob.p, prob.q)[0]


def _plan(grid: Grid, prob: Problem) -> AssemblyPlan:
    """Assembly plan for the energy: m, and c unless c vanishes."""
    weights = {"m": prob.m} if prob.c.is_zero() else {"m": prob.m, "c": prob.c}
    return AssemblyPlan(grid, weights)


def _energy_and_grad(vals, grid, plan, p, q):
    # u is piecewise linear, u = sum_i u_i hat_i, so the reaction energies
    # come from the gradient's own load vectors: int w u^{r+1} equals
    # sum_i u_i int w u^r hat_i, exactly, because the load vectors are exact
    # to roundoff; one pass per weight, none for a c the plan left out
    s = np.diff(vals) / grid.h
    flux = phi_p(s, p)
    lm = plan.load_vector("m", vals, q)
    e = float(np.sum(np.abs(s) ** p * grid.h)) / p - float(vals @ lm) / (q + 1.0)
    g = np.zeros_like(vals)
    g[:-1] -= flux
    g[1:] += flux
    g -= lm
    if "c" in plan.tables:
        lc = plan.load_vector("c", vals, p - 1.0)
        e += float(vals @ lc) / p
        g += lc
    return e, g


def _lumped_mass(plan, key, vals, r):
    """Row sums of plan.mass_tridiag(key, vals, r)."""
    diag, off = plan.mass_tridiag(key, vals, r)
    diag[:-1] += off
    diag[1:] += off
    return diag


def _kkt_residual(g, vals, lo, hi, hbar, atol):
    """Normalized projected-gradient residual at the interior nodes.

    Free nodes contribute their plain weak residual; a node pinned at a
    bound contributes only the complementarity violation (a lower-pinned
    node with negative gradient wants to lift off, so the bound does not
    excuse it), and a node pinched between coinciding bounds contributes
    nothing because it cannot move.
    """
    gi = g[1:-1]
    at_lo = vals[1:-1] <= lo[1:-1] + atol
    at_hi = vals[1:-1] >= hi[1:-1] - atol
    r = np.abs(gi)
    r = np.where(at_lo & ~at_hi, np.maximum(-gi, 0.0), r)
    r = np.where(at_hi & ~at_lo, np.maximum(gi, 0.0), r)
    r = np.where(at_lo & at_hi, 0.0, r)
    return r / hbar[1:-1]


def _projected_newton(vals, lo, hi, grid, plan, p, q, tol, hbar, atol):
    """Iterate from vals; return the last iterate and its residual.

    The model's diffusion weight on a cell of slope s is
    max(p - 1, 1) * |s|^(p-2) / h, with |s| floored: Newton's weight for
    p >= 2 and the Kacanov (lagged-diffusivity) weight for p < 2.  There
    Newton's (p-1)|s|^(p-2) understates the secant slope of phi_p near the
    apex, where s passes through zero: a Newton step on phi_p(s) = t
    multiplies the error by (2-p)/(p-1), which converges only linearly for
    1.5 < p < 2 and diverges below.  The discrete problem and the stopping
    rule do not depend on the weight.
    """
    n = grid.n
    floor = 1e-10 * (np.max(vals) + 1.0) / grid.interval.length()
    e, g = _energy_and_grad(vals, grid, plan, p, q)
    rnorm = _kkt_residual(g, vals, lo, hi, hbar, atol)
    for _ in range(_MAX_NEWTON):
        if float(np.max(rnorm)) <= tol:
            break
        # any pinned node with an inward gradient re-enters the system; the
        # release can cascade node by node along a bound-hugging tail, which
        # is why the iteration cap is generous
        inactive = (
            (vals[1:-1] > lo[1:-1] + atol) & (vals[1:-1] < hi[1:-1] - atol)
        ) | (rnorm > 0.0)
        s = np.diff(vals) / grid.h
        w = max(p - 1.0, 1.0) * np.maximum(np.abs(s), floor) ** (p - 2.0) / grid.h
        diag = np.zeros(n + 1)
        diag[:-1] += w
        diag[1:] += w
        # the reaction Jacobian is mass-lumped (row sums onto the diagonal)
        # and its diagonal contribution clipped at zero: near small values
        # u^(q-1) blows up, and both the consistent couplings and the
        # negative curvature of the sublinear reaction would make the system
        # indefinite, steering Newton into the saddle below instead of the
        # solution above; the clipped M-matrix model keeps every step a
        # positive descent direction and costs only the local rate
        react = -q * _lumped_mass(plan, "m", vals, q - 1.0)
        if "c" in plan.tables:
            react += (p - 1.0) * _lumped_mass(plan, "c", vals, p - 2.0)
        diag = diag + np.maximum(react, 0.0)
        # freeze the boundary and the cleanly pinned nodes
        frozen = np.zeros(n + 1, dtype=bool)
        frozen[0] = frozen[-1] = True
        frozen[1:-1] = ~inactive
        rhs = np.where(frozen, 0.0, -g)
        ab = np.zeros((3, n + 1))
        ab[0, 1:] = np.where(frozen[:-1], 0.0, -w)  # off[j] sits in row j
        ab[1] = np.where(frozen, 1.0, diag)
        ab[2, :-1] = np.where(frozen[1:], 0.0, -w)  # and in row j + 1
        try:
            delta = solve_banded((1, 1), ab, rhs)
        except Exception:
            break
        if not np.all(np.isfinite(delta)):
            break
        # a step is good if it shrinks the l2 size of the projected gradient
        # (terminal sharpening) or makes Armijo progress on the energy; the
        # energy branch is what carries a cascade of bound releases, where
        # the residual must get worse before the lifted region equilibrates
        theta = float(rnorm @ rnorm)
        t = 1.0
        improved = False
        for _ in range(20):
            cand = np.clip(vals + t * delta, lo, hi)
            cand[0] = cand[-1] = 0.0
            d = cand - vals
            if not np.any(d):
                # fully clipped: shrinking t cannot unclip anything
                break
            ec, gc = _energy_and_grad(cand, grid, plan, p, q)
            rc = _kkt_residual(gc, cand, lo, hi, hbar, atol)
            if float(rc @ rc) < theta or ec <= e + _ARMIJO * float(g @ d):
                vals, e, g, rnorm = cand, ec, gc, rc
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return vals, float(np.max(rnorm))


def solve_between(
    prob: Problem,
    sub: Certificate,
    sup: Certificate,
    grid: Grid | None = None,
    tol: float = 1e-8,
) -> GridFunction:
    """Minimize the energy over the box [sub, sup] resampled to the grid.

    Projected Newton starts from the box midpoint.  Returns the minimizer
    once the projected-gradient residual is below tol at every interior
    node, meaning the weak equation holds where no bound is active and
    pinned nodes satisfy complementarity.  A node that the clipped step
    pins to a bound leaves the Newton system, but it rejoins as soon as its
    gradient points into the box; such releases cascade along a stretch of
    bound-hugging nodes, carried by steps that lower the energy while the
    residual first grows.  Raises SolverError when the iteration stalls
    above tol.
    """
    if grid is None:
        grid = prob.default_grid()
    lo = np.maximum(sub.u(grid.nodes), 0.0)
    hi = sup.u(grid.nodes)
    if np.any(lo > hi):
        raise SolverError("certificates are not ordered on the working grid")
    scale = float(np.max(hi))
    if float(np.max(hi - lo)) <= 1e-14 * max(scale, 1.0):
        return GridFunction(grid, lo.copy())

    plan = _plan(grid, prob)
    hbar = grid.hat_masses()
    p, q = prob.p, prob.q
    atol = 1e-14 * max(scale, 1.0)

    vals = 0.5 * (lo + hi)
    vals[0] = vals[-1] = 0.0
    vals, res = _projected_newton(vals, lo, hi, grid, plan, p, q, tol, hbar, atol)
    active = (vals[1:-1] <= lo[1:-1] + atol) | (vals[1:-1] >= hi[1:-1] - atol)
    n_active = int(np.sum(active))
    if n_active:
        log.info("solve_between: %d interior nodes sit on a bound", n_active)
    if res > tol:
        raise SolverError(
            f"residual stagnation: projected-gradient residual {res:.3e} above "
            f"tol {tol:.1e} ({n_active} active nodes)"
        )
    return GridFunction(grid, vals)


_AUTO_ORDER = ("thm2_i", "thm2_ii", "thm1_i", "thm1_ii")


def select_theorem(prob: Problem, conditions, policy: str = "auto") -> str:
    """Name of the condition the pipeline will certify with.

    policy "auto" uses the c-free condition when c vanishes and otherwise
    walks the profile conditions from most specific to most general, taking
    the first that holds; a named policy insists on that one condition.
    Raises CertificateError, with every margin in the message, when nothing
    holds.
    """
    by_name = {rep.name: rep for rep in conditions}
    if policy == "auto":
        order = ("cor",) if prob.c_plus.sup_norm() == 0.0 else _AUTO_ORDER
        chosen = next((name for name in order if by_name[name].holds), None)
    elif policy in by_name:
        chosen = policy if by_name[policy].holds else None
    else:
        raise ValueError(f"unknown policy: {policy!r}")
    if chosen is None:
        margins = ", ".join(
            f"{rep.name}: margin {rep.margin:+.3e}" if rep.applicable
            else f"{rep.name}: n/a" for rep in conditions
        )
        raise CertificateError(f"no sufficient condition holds ({margins})")
    return chosen


def certify(prob: Problem, theorem: str, grid: Grid, eig: EigenPair):
    """(sub, sup) built with the caller's eigenpair, ordered and verified.

    Each certificate's `verified` holds its weak-form check; what a failed
    check means is the caller's decision.
    """
    sub = build_subsolution(prob, theorem, grid, eig)
    sup = build_supersolution(prob, grid)
    sub = enforce_ordering(sub, sup)
    sub.verified = check_weak_subsolution(sub.u, prob)
    sup.verified = check_weak_supersolution(sup.u, prob)
    return sub, sup


def solve_full(
    prob: Problem,
    grid: Grid | None = None,
    policy: str = "auto",
    tol: float = 1e-8,
) -> SolutionReport:
    """Check conditions, build and verify both certificates, then solve.

    Raises CertificateError, naming the certificate and its worst weak-form
    value, when either certificate fails verification; the solve between
    them is not attempted then.
    """
    if grid is None:
        grid = prob.default_grid()
    eig = window_eigenpair(prob, grid)
    return _solve_from(prob, grid, eig, check_all(prob, eig), policy, tol)


def _solve_from(prob, grid, eig, conditions, policy, tol) -> SolutionReport:
    chosen = select_theorem(prob, conditions, policy)
    sub, sup = certify(prob, chosen, grid, eig)
    for cert in (sub, sup):
        rep = cert.verified
        if not rep.passed:
            raise CertificateError(
                f"{cert.kind} failed verification: worst value "
                f"{rep.worst_value:+.3e} at x = {rep.worst_x:.6g} (tol {rep.tol:.1e})"
            )

    u = solve_between(prob, sub, sup, grid, tol=tol)
    residual = solution_residual(u, prob)
    lo = sub.u(grid.nodes)
    hi = sup.u(grid.nodes)
    ordering_ok = bool(np.all(lo <= u.values + 1e-12) and np.all(u.values <= hi + 1e-12))
    return SolutionReport(
        u=u,
        residual=residual,
        min_interior=u.interior_min(),
        ordering_ok=ordering_ok,
        conditions=conditions,
        certificates={"sub": sub, "super": sup},
    )


def _sweep_cell(args):
    factory, params, grid_n, policy, tol = args
    row = dict(params)
    try:
        prob = factory(**params)
        grid = prob.default_grid(grid_n) if grid_n else prob.default_grid()
        eig = window_eigenpair(prob, grid)
        conditions = check_all(prob, eig)
        row["lambda1"] = float(eig.lambda1)
        for cond in conditions:
            row[f"{cond.name}_holds"] = cond.holds
            row[f"{cond.name}_margin"] = float(cond.margin)
        rep = _solve_from(prob, grid, eig, conditions, policy, tol)
        row["theorem"] = rep.certificates["sub"].construction["theorem"]
        row["residual"] = rep.residual
        row["min_interior"] = rep.min_interior
        rep.require_certified(tol)
        row["status"] = "ok"
    except Exception as exc:
        row["status"] = "error"
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def sweep(
    factory,
    ranges: dict,
    grid_n: int | None = None,
    policy: str = "auto",
    tol: float = 1e-8,
    jobs: int = 1,
) -> list[dict]:
    """Run solve_full over the cartesian product of the parameter ranges.

    factory(**params) must build the Problem for one cell; failures are
    recorded in the row and the sweep continues.  jobs > 1 distributes cells
    over processes, so factory must be picklable.
    """
    names = list(ranges)
    cells = [
        (factory, dict(zip(names, combo)), grid_n, policy, tol)
        for combo in itertools.product(*(list(ranges[k]) for k in names))
    ]
    if jobs > 1:
        with Pool(jobs) as pool:
            return pool.map(_sweep_cell, cells)
    return [_sweep_cell(cell) for cell in cells]
