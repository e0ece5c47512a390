"""Positive solutions between certificates by constrained energy descent.

With a sign-changing weight the reaction is not monotone in u, so the
classical monotone iteration between sub- and supersolution is not justified;
what is justified is minimizing the problem's energy over the order interval,
whose interior critical points satisfy the discrete weak equation.  The
minimizer is found by projected Newton on the free nodes, from a start in
the box that vanishes on the boundary as the solution does: the step solves
a tridiagonal system with the energy's own reaction Jacobian by banded
Cholesky, is clipped into the box and is backtracked until it lowers the
energy or the residual.  Where that system is not positive definite, a model
with the reaction lumped onto the diagonal and clipped at zero, positive
definite by construction, takes the step instead.
Convergence is judged by the projected-gradient residual, so a node pinned
at a bound counts as converged only when its multiplier has the right sign.

For p < 2 the model's diffusion weight is Newton's (p-1)|s|^{p-2} only on
settled cells; elsewhere it is the Kacanov weight |s|^{p-2} = phi_p(s)/s,
since Newton's understates the secant slope of phi_p where s passes through
zero at the solution's apex.  A step must lower the energy by more than its
rounding, or the residual by a tenth (see `solve_between`).

scipy is loaded only by the Newton solve (CLI `solve` and `sweep`), and
multiprocessing only by `sweep` with more than one job.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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

_ARMIJO = 1e-4
_MAX_NEWTON = 600
# the energy's rounding, relative to the sum of its terms' sizes
_NOISE = 1e-14
# a step that lowers the residual must cut its l2 norm by a tenth
_SHRINK = 0.81


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


def _reaction(grid: Grid, prob: Problem) -> list:
    """(plan, r, sign) of each reaction term sign * w u^r of the weak
    equation: -m u^q, and +c u^(p-1) unless c vanishes."""
    terms = [(AssemblyPlan(grid, prob.m), prob.q, -1.0)]
    if not prob.c.is_zero():
        terms.append((AssemblyPlan(grid, prob.c), prob.p - 1.0, 1.0))
    return terms


class _Point(NamedTuple):
    """Energy, gradient and the energy's rounding at one iterate, and per
    reaction term u and u^r at its plan's Gauss nodes (`load_vector`)."""

    e: float
    g: np.ndarray
    noise: float
    gauss: list


def _energy_and_grad(vals, grid, terms, p) -> _Point:
    # u is piecewise linear, u = sum_i u_i hat_i, so each reaction energy
    # sign/(r+1) int w u^{r+1} comes from the gradient's own load vector:
    # it equals sign/(r+1) sum_i u_i int w u^r hat_i, exactly, because the
    # load vectors are exact to roundoff; one pass per term.  The terms
    # nearly cancel at the solution, so the rounding scales with their sizes
    s = np.diff(vals) / grid.h
    flux = phi_p(s, p)
    e = float(np.sum(np.abs(s) ** p * grid.h)) / p
    size = e
    g = np.zeros_like(vals)
    g[:-1] -= flux
    g[1:] += flux
    gauss = []
    for plan, r, sign in terms:
        load = plan.load_vector(vals, r, gauss)
        term = float(vals @ load) / (r + 1.0)
        e += sign * term
        size += abs(term)
        g += sign * load
    return _Point(e, g, _NOISE * size, gauss)


def _diffusion_weight(s, s_prev, p, floor, h):
    """The model's weight on cells of slope s (|s| floored), which had slope
    s_prev before the last full step: Newton's (p - 1)|s|^(p-2) / h, but
    for p < 2 only where s kept its sign and moved by at most a quarter of
    itself, and the Kacanov |s|^(p-2) / h elsewhere."""
    coef = p - 1.0
    if p < 2.0:
        settled = (s * s_prev > 0.0) & (np.abs(s - s_prev) <= 0.25 * np.abs(s))
        coef = np.where(settled, coef, 1.0)
    return coef * np.maximum(np.abs(s), floor) ** (p - 2.0) / h


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


def solve_between(
    prob: Problem,
    sub: Certificate,
    sup: Certificate,
    grid: Grid,
    tol: float = 1e-8,
) -> GridFunction:
    """Minimize the energy over the box [sub, sup] resampled to the grid.

    Projected Newton starts from half of lo + hi - l, clipped into the box,
    where l is the linear interpolant of hi's two boundary values.  The
    supersolution k(v + 1) is k at both ends, so the box midpoint puts
    about k/2 next to each boundary node, and its end cells are steeper
    than the solution's by thousands (7.6e3 on the step weight at p = 2.3,
    q = 0.65, n = 512).
    For p > 2 a Newton step on phi_p cuts such a slope only by about
    (p - 2)/(p - 1), so from the midpoint the count grew with p and n; from
    this start it does not (7, 9 and 11 evaluations at p = 3, 5 and 8 on
    the step weight, at n = 512 and 2048 alike).  Returns the minimizer
    once the projected-gradient residual is below tol at every interior
    node, meaning the weak equation holds where no bound is active and
    pinned nodes satisfy complementarity.  A node that the clipped step
    pins to a bound leaves the Newton system, but it rejoins as soon as its
    gradient points into the box; such releases cascade along a stretch of
    bound-hugging nodes, carried by steps that lower the energy while the
    residual first grows.  A step is taken when it makes Armijo progress
    on the energy by more than the energy's rounding (1e-14 times the sum
    of its terms' sizes) or cuts the residual's l2 norm by a tenth; at the
    rounding floor neither happens, and SolverError is raised, as whenever
    the iteration stalls above tol.

    The model's diffusion weight is Newton's, (p - 1)|s|^(p-2) / h on a
    cell of slope s (`_diffusion_weight`), except where p < 2 and the cell
    has not settled.  Near the apex, where s passes through zero, Newton's
    weight understates the secant slope of phi_p: a Newton step on
    phi_p(s) = t multiplies the error by (2-p)/(p-1), linear for
    1.5 < p < 2 and divergent below.  The Kacanov (lagged-diffusivity)
    weight |s|^(p-2) / h converges, but only by about (2 - p) per step.
    So a cell keeps it until its slope kept its sign and moved by at most
    a quarter of itself in a step the line search did not damp: on the
    step weight, p = 1.5, 1.6 and 1.8 take 11, 9 and 7 evaluations, where
    the Kacanov weight alone took 42, 31 and 17 and Newton's alone 137 at
    p = 1.5; settling at half instead of a quarter crushed the p = 1.35
    iterate toward zero while all slopes shrank alike.  The discrete
    problem and the stopping rule do not depend on the weight.

    The reaction enters with its consistent Jacobian, the second derivative
    of the reaction energy: the sum of sign * r * M_w(u^(r-1)) over the
    terms sign * w u^r of `_reaction`, with M_w(v) the tridiagonal matrix
    int w v hat_i hat_j.  It is built from u and u^r at the Gauss nodes,
    as the evaluation that accepted the iterate computed them
    (`AssemblyPlan.mass_tridiag`), so it raises nothing to a power.
    Frozen nodes (the boundary and the cleanly pinned ones) keep an
    identity row, a zero right-hand side and no coupling, so the system
    stays symmetric, and banded Cholesky solves it.  Inside the window
    m > 0, so the reaction's curvature is negative; where it outweighs the
    diffusion Cholesky fails, and the step comes from the same matrices
    with the reaction lumped onto the diagonal and clipped at zero: a
    diagonally dominant M-matrix, so positive definite, and its step is a
    descent direction.  That model alone converges only linearly, since it
    drops the reaction wherever m > 0.  Cholesky fails on the step weight
    with m = -mu outside the window, mu >= 4, in the box from 1e-6 times
    the window eigenfunction up to the supersolution; without the lumped
    step those solves stall.
    """
    lo = np.maximum(sub.u(grid.nodes), 0.0)
    hi = sup.u(grid.nodes)
    if np.any(lo > hi):
        raise SolverError("certificates are not ordered on the working grid")
    scale = float(np.max(hi))
    if float(np.max(hi - lo)) <= 1e-14 * max(scale, 1.0):
        return GridFunction(grid, lo.copy())

    # imported here, not at module level, so that only a solve pays for it;
    # outside the loop below, so that a missing scipy is not a stalled step
    from scipy.linalg import LinAlgError, solveh_banded

    terms = _reaction(grid, prob)
    hbar = grid.hat_masses()
    p = prob.p
    atol = 1e-14 * max(scale, 1.0)

    x = grid.nodes
    edge = hi[0] + (hi[-1] - hi[0]) * (x - x[0]) / (x[-1] - x[0])
    vals = np.clip(0.5 * (lo + hi - edge), lo, hi)
    vals[0] = vals[-1] = 0.0
    n = grid.n
    floor = 1e-10 * (np.max(vals) + 1.0) / grid.interval.length()
    cur = _energy_and_grad(vals, grid, terms, p)
    rnorm = _kkt_residual(cur.g, vals, lo, hi, hbar, atol)
    s_prev = np.zeros(n)  # no cell is settled at the start
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
        w = _diffusion_weight(s, s_prev, p, floor, grid.h)
        diag = np.zeros(n + 1)
        diag[:-1] += w
        diag[1:] += w
        # the reaction's own second derivative, couplings included
        rdiag, roff = np.zeros(n + 1), np.zeros(n)
        for (plan, r, sign), gauss in zip(terms, cur.gauss):
            mdiag, moff = plan.mass_tridiag(*gauss)
            rdiag += sign * r * mdiag
            roff += sign * r * moff
        # freeze the boundary and the cleanly pinned nodes: identity rows,
        # zero right-hand side, and no coupling into or out of them
        frozen = np.zeros(n + 1, dtype=bool)
        frozen[0] = frozen[-1] = True
        frozen[1:-1] = ~inactive
        coupled = ~(frozen[:-1] | frozen[1:])
        rhs = np.where(frozen, 0.0, -cur.g)
        ab = np.zeros((2, n + 1))  # upper form: off[j] sits in column j + 1
        ab[0, 1:] = np.where(coupled, roff - w, 0.0)
        ab[1] = np.where(frozen, 1.0, diag + rdiag)
        try:
            delta = solveh_banded(ab, rhs, check_finite=False)
        except LinAlgError:
            # indefinite: an uphill step could head for the saddle below
            # the solution; the lumped reaction clipped at zero leaves a
            # positive definite M-matrix, whose step always descends
            rdiag[:-1] += roff
            rdiag[1:] += roff
            ab[0, 1:] = np.where(coupled, -w, 0.0)
            ab[1] = np.where(frozen, 1.0, diag + np.maximum(rdiag, 0.0))
            try:
                delta = solveh_banded(ab, rhs, check_finite=False)
            except LinAlgError:
                break
        if not np.all(np.isfinite(delta)):
            break
        # a step is good if it shrinks the l2 size of the projected gradient
        # by a tenth (terminal sharpening) or makes Armijo progress on the
        # energy; the energy branch is what carries a cascade of bound
        # releases, where the residual must get worse before the lifted
        # region equilibrates.  Rounding alone moves neither by that much,
        # so at the rounding floor the solve stops instead of stepping on
        # noise
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
            nxt = _energy_and_grad(cand, grid, terms, p)
            rc = _kkt_residual(nxt.g, cand, lo, hi, hbar, atol)
            if float(rc @ rc) < _SHRINK * theta or (
                nxt.e <= cur.e + _ARMIJO * float(cur.g @ d) and cur.e - nxt.e > cur.noise
            ):
                # after a damped step, which says the model was too soft, no
                # cell counts as settled
                s_prev = s if t == 1.0 else np.zeros(n)
                vals, cur, rnorm = cand, nxt, rc
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    res = float(np.max(rnorm))
    if res > tol:
        active = (vals[1:-1] <= lo[1:-1] + atol) | (vals[1:-1] >= hi[1:-1] - atol)
        n_active = int(np.sum(active))
        raise SolverError(
            f"residual stagnation: projected-gradient residual {res:.3e} above "
            f"tol {tol:.1e} ({n_active} active nodes)"
        )
    return GridFunction(grid, vals)


_AUTO_ORDER = ("cor", "thm2_i", "thm2_ii", "thm1_i", "thm1_ii")


def select_theorem(conditions, policy: str = "auto") -> str:
    """Name of the condition the pipeline will certify with.

    policy "auto" takes the first condition that holds in _AUTO_ORDER: the
    c-free condition, then the profile conditions from most specific to most
    general.  cor holds only where c vanishes and the thm2 conditions only
    where it does not, so one order serves every c.  A named policy insists
    on that one condition.  Raises CertificateError, with every margin in
    the message, when nothing holds.
    """
    by_name = {rep.name: rep for rep in conditions}
    if policy == "auto":
        chosen = next((name for name in _AUTO_ORDER if by_name[name].holds), None)
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
    chosen = select_theorem(conditions, policy)
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
    factory, params, policy = args
    row = dict(params)
    try:
        prob, grid_n, tol = factory(**params)
        grid = prob.default_grid(grid_n)
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


def sweep(factory, ranges: dict, policy: str = "auto", jobs: int = 1) -> list[dict]:
    """Run solve_full over the cartesian product of the parameter ranges.

    factory(**params) must return (Problem, grid cells, solver tol) for one
    cell; failures are recorded in the row and the sweep continues.
    jobs > 1 distributes cells over at most one process per cell and per
    core, so factory must be picklable.
    """
    names = list(ranges)
    cells = [
        (factory, dict(zip(names, combo)), policy)
        for combo in itertools.product(*(list(ranges[k]) for k in names))
    ]
    jobs = min(jobs, len(cells), os.cpu_count() or 1)
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            return pool.map(_sweep_cell, cells)
    return [_sweep_cell(cell) for cell in cells]
