"""Independent verification of weak inequalities and residuals.

Everything here recomputes its integrals from the Weight objects with plain
composite Gauss quadrature, on purpose sharing nothing with the assembly code
used by the builders and solvers.  A certificate is only as trustworthy as the
check that does not reuse the arithmetic that produced it.

The quadrature runs per panel, where the interpolant and both hats are
affine (see `weak_form_values`), and reads c and m through plain Horner on
their own pieces: no `AssemblyPlan`, composed table or assembly helper.

Testing against interior hat functions suffices: every nonnegative piecewise
linear test function vanishing at the boundary is a nonnegative combination of
hats, and the weak form is linear in the test function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_types import GridFunction, Problem, phi_p

_GX, _GW = np.polynomial.legendre.leggauss(10)
_GWX = _GW * _GX


def default_certificate_tol(ncells: int) -> float:
    """Acceptance tolerance for a certificate on a grid with ncells cells.

    1e-3 at 4096 cells, scaled proportionally to the mesh width: the analytic
    inequalities are exact, so the discrete slack of their interpolants is
    O(h) and halving h must halve the tolerance.
    """
    return 1e-3 * 4096.0 / ncells


@dataclass
class WeakFormReport:
    kind: str
    passed: bool
    worst_value: float
    worst_x: float
    tol: float
    values: np.ndarray = field(repr=False)
    note: str = ""


def weak_form_values(v: GridFunction, prob: Problem) -> np.ndarray:
    """Normalized weak-form value A_i / ∫φ_i at every interior hat of v's grid.

    A_i = ∫ |v′|^{p−2} v′ φ_i′ + c v^{p−1} φ_i − m v^q φ_i with v read as its
    piecewise-linear interpolant.  The flux term is exact; the weight terms use
    Gauss panels split at the polynomial breaks of c and m, so the only error
    left is the quadrature of smooth powers on smooth panels.

    Each panel lies in one cell, where v and both hats are affine in the
    Gauss variable xi.  With d the density c v^{p−1} − m v^q at the panel's
    points, D0 = half Σ w_k d_k and D1 = half Σ w_k xi_k d_k, the right hat
    gets (off D0 + half D1)/h, off the panel midpoint's offset in its cell,
    and the left hat D0 minus that.  c and m are read once per panel, from
    the piece that holds its midpoint (`Weight.on_panels`); the c term is
    skipped where c vanishes.
    """
    nodes = v.grid.nodes
    dom = prob.domain
    span = dom.b - dom.a
    if abs(nodes[0] - dom.a) > 1e-12 * span or abs(nodes[-1] - dom.b) > 1e-12 * span:
        raise ValueError("grid of v must span the problem domain")
    vals = np.maximum(v.values, 0.0)
    h = np.diff(nodes)
    s = np.diff(vals) / h
    p, q = prob.p, prob.q

    breaks = np.array(
        sorted(
            {
                b
                for w in (prob.c, prob.m)
                for b in w.breaks[1:-1]
                if nodes[0] < b < nodes[-1]
            }
        )
    )
    edges = np.union1d(nodes, breaks)
    lo, hi = edges[:-1], edges[1:]
    keep = hi - lo > 1e-14 * span
    lo, hi = lo[keep], hi[keep]
    mid = 0.5 * (lo + hi)
    parent = np.clip(np.searchsorted(nodes, mid, side="right") - 1, 0, h.size - 1)

    half = 0.5 * (hi - lo)
    X = mid[:, None] + half[:, None] * _GX[None, :]
    left = nodes[parent]
    vX = np.maximum(vals[parent, None] + s[parent, None] * (X - left[:, None]), 0.0)
    dens = -(prob.m.on_panels(mid, X) * vX**q)
    if not prob.c.is_zero():
        dens = prob.c.on_panels(mid, X) * vX ** (p - 1.0) + dens
    D0 = half * (dens @ _GW)
    D1 = half * (dens @ _GWX)
    right = ((mid - left) * D0 + half * D1) / h[parent]

    A = np.bincount(parent, D0 - right, nodes.size) + np.bincount(parent + 1, right, nodes.size)
    flux = phi_p(s, p)
    A[1:-1] += flux[:-1] - flux[1:]
    hbar = 0.5 * (h[:-1] + h[1:])
    return A[1:-1] / hbar


def _report(kind, values, nodes, worst_pick, note):
    tol = default_certificate_tol(nodes.size - 1)
    idx = int(worst_pick(values))
    worst = float(values[idx])
    if kind == "subsolution":
        passed = worst <= tol
    else:
        passed = worst >= -tol
    return WeakFormReport(
        kind=kind,
        passed=passed and not note,
        worst_value=worst,
        worst_x=float(nodes[idx + 1]),
        tol=tol,
        values=values,
        note=note,
    )


def boundary_note(v: GridFunction, kind: str) -> str:
    """"" where v vanishes at both ends, up to 1e-10 max(1, sup|v|) of
    rounding, else the note "<kind> must vanish at the boundary"."""
    if max(abs(v.values[0]), abs(v.values[-1])) <= 1e-10 * max(1.0, v.sup_norm()):
        return ""
    return f"{kind} must vanish at the boundary"


def check_weak_subsolution(v: GridFunction, prob: Problem) -> WeakFormReport:
    """Does v satisfy A_i ≤ tol·∫φ_i at every interior hat, with tol the
    `default_certificate_tol` of v's grid?

    Nonnegativity and vanishing boundary values are part of the claim and are
    reported as failures rather than raised.
    """
    note = boundary_note(v, "subsolution")
    if not note and float(np.min(v.values)) < -1e-10 * max(1.0, v.sup_norm()):
        note = "subsolution must be nonnegative"
    values = weak_form_values(v, prob)
    return _report("subsolution", values, v.grid.nodes, np.argmax, note)


def check_weak_supersolution(w: GridFunction, prob: Problem) -> WeakFormReport:
    """Does w satisfy A_i ≥ −tol·∫φ_i at every interior hat, with tol as in
    `check_weak_subsolution`?

    w ≡ 0 technically passes the inequality but pins any ordered interval to
    the zero function, so a w with no positive part is rejected outright.
    """
    scale = max(1.0, float(np.max(np.abs(w.values))))
    note = ""
    if float(np.min(w.values)) < -1e-10 * scale:
        note = "supersolution must be nonnegative"
    elif float(np.max(w.values)) <= 0.0:
        note = "trivial certificate: w has no positive part"
    values = weak_form_values(w, prob)
    return _report("supersolution", values, w.grid.nodes, np.argmin, note)


def solution_residual(u: GridFunction, prob: Problem) -> float:
    """sup over interior hats of |A_i| / ∫φ_i, the equality version."""
    return float(np.max(np.abs(weak_form_values(u, prob))))
