"""Meshes, piecewise-polynomial weights, and quadrature.

Everything downstream (eigenvalue brackets, sufficient conditions, certificate
builders, weak-form residuals) is driven by a handful of primitives defined
here: intervals, grids, piecewise-linear grid functions, weights stored as
piecewise polynomials with exactly representable positive/negative parts, the
cumulative negative-part integrals, and an assembly plan that integrates
weight * u^r * hat products in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P
from numpy.polynomial.legendre import leggauss

DEFAULT_N = 2048

__all__ = [
    "DEFAULT_N",
    "Interval",
    "Grid",
    "GridFunction",
    "Weight",
    "Problem",
    "AssemblyPlan",
    "p_conjugate",
    "phi_p",
    "integrate",
    "cumulative_negative_left",
    "cumulative_negative_right",
    "step_weight",
    "sin_power_weight",
    "CertificateError",
    "EpsTooLargeError",
    "TauTooLargeError",
    "GlueError",
    "NoSupersolutionError",
    "EigenError",
    "BracketError",
    "NoEigenvalueError",
    "SolverError",
]


# ---------------------------------------------------------------------------
# errors

class CertificateError(RuntimeError):
    """A sub/supersolution certificate could not be built."""


class EpsTooLargeError(CertificateError):
    """The admissible tau interval is empty at the supplied eps."""


class TauTooLargeError(CertificateError):
    """A profile exceeded the unit bound required for its own validity."""


class GlueError(CertificateError):
    """No junction with the admissible one-sided derivative signs was found."""


class NoSupersolutionError(CertificateError):
    """The positive part of the weight vanishes identically."""


class EigenError(RuntimeError):
    """Eigenvalue computation failed."""


class BracketError(EigenError):
    """Bracket expansion for the principal eigenvalue exceeded its cap."""


class NoEigenvalueError(EigenError):
    """The weight has no positive mass on the window."""


class SolverError(RuntimeError):
    """Iteration failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# scalar helpers

def p_conjugate(p: float) -> float:
    """Conjugate exponent p' with 1/p + 1/p' = 1. Requires p > 1."""
    if p <= 1.0:
        raise ValueError(f"invalid exponent: p must be > 1, got {p}")
    return p / (p - 1.0)


def phi_p(t, p: float):
    """Odd power |t|^(p-2) t, applied elementwise. phi_p(0) = 0 for every p > 1."""
    t = np.asarray(t, dtype=float)
    out = np.sign(t) * np.abs(t) ** (p - 1.0)
    return float(out) if out.ndim == 0 else out


def _shift_poly(c, s: float):
    """Coefficients of x -> c(x + s), ascending order, same length as c."""
    c = np.asarray(c, dtype=float)
    if s == 0.0:
        return c.copy()
    out = Polynomial(c)(Polynomial([s, 1.0])).coef
    if len(out) < len(c):
        out = np.concatenate([out, np.zeros(len(c) - len(out))])
    return out


def _real_roots_in(c, width: float, tol_edge: float):
    """Real roots of the (local) polynomial c strictly inside (0, width).

    Roots within tol_edge of either edge are dropped, near-duplicates merged.
    """
    c = np.asarray(c, dtype=float)
    amax = np.max(np.abs(c)) if c.size else 0.0
    if amax == 0.0:
        return []
    # drop relatively negligible leading coefficients; their only effect is
    # far-away roots, and they wreck the companion matrix conditioning
    c = c / amax
    last = c.size - 1
    while last > 0 and abs(c[last]) <= 1e-14:
        last -= 1
    c = c[: last + 1]
    if c.size <= 1:
        return []
    roots = P.polyroots(c)
    real = []
    for z in roots:
        if abs(z.imag) <= 1e-9 * max(1.0, abs(z)):
            r = float(z.real)
            if tol_edge < r < width - tol_edge:
                real.append(r)
    real.sort()
    merged: list[float] = []
    for r in real:
        if not merged or r - merged[-1] > tol_edge:
            merged.append(r)
    return merged


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Interval:
    """Open interval (a, b) with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a < self.b):
            raise ValueError(f"interval needs a < b, got ({self.a}, {self.b})")

    def length(self) -> float:
        return self.b - self.a

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.a - tol <= x <= self.b + tol


@dataclass
class Grid:
    """Strictly increasing nodes covering an interval; n is the cell count."""

    nodes: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")

    @classmethod
    def uniform(cls, interval: Interval, n: int = DEFAULT_N) -> "Grid":
        return cls(np.linspace(interval.a, interval.b, n + 1))

    @property
    def n(self) -> int:
        return self.nodes.size - 1

    @property
    def h(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def interval(self) -> Interval:
        return Interval(float(self.nodes[0]), float(self.nodes[-1]))

    def with_points(self, points) -> "Grid":
        """Grid whose nodes also include the given interior points.

        Points closer than 1e-13 * span to an existing node are dropped so
        cells stay nonempty.
        """
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        span = self.nodes[-1] - self.nodes[0]
        keep = []
        for x in pts:
            if x <= self.nodes[0] or x >= self.nodes[-1]:
                continue
            j = np.searchsorted(self.nodes, x)
            near = min(abs(x - self.nodes[j - 1]), abs(self.nodes[j] - x))
            if near > 1e-13 * span:
                keep.append(x)
        if not keep:
            return Grid(self.nodes.copy())
        return Grid(np.unique(np.concatenate([self.nodes, keep])))

    def hat_masses(self) -> np.ndarray:
        """Integral of each nodal hat function, boundary hats included."""
        h = self.h
        out = np.zeros(self.n + 1)
        out[:-1] += 0.5 * h
        out[1:] += 0.5 * h
        return out


@dataclass
class GridFunction:
    """Piecewise-linear function given by nodal values on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n + 1,):
            raise ValueError("one value per grid node required")

    def __call__(self, x):
        return np.interp(x, self.grid.nodes, self.values)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def min_value(self) -> float:
        return float(np.min(self.values))

    def interior_min(self) -> float:
        return float(np.min(self.values[1:-1]))

    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / self.grid.h

    def resample(self, grid: Grid) -> "GridFunction":
        return GridFunction(grid, self(grid.nodes))

    def scaled(self, s: float) -> "GridFunction":
        return GridFunction(self.grid, s * self.values)


# ---------------------------------------------------------------------------
# weights

class Weight:
    """Piecewise polynomial on an interval.

    Parameters
    ----------
    breaks : array_like
        K+1 strictly increasing breakpoints tiling the domain.
    coefs : sequence of array_like
        K coefficient vectors, ascending order, each in the local variable
        x - breaks[k] of its piece.  Local storage keeps evaluation well
        conditioned for narrow pieces.

    At a breakpoint the left piece wins; that convention changes nothing
    measurable but makes evaluation deterministic.

    A Weight is immutable: no method changes breaks or coefs, and the
    algebra returns new instances.  That is what lets each instance compute
    its extrema and its positive and negative parts once and hand out the
    same results afterwards.
    """

    def __init__(self, breaks, coefs):
        self.breaks = np.asarray(breaks, dtype=float)
        if self.breaks.ndim != 1 or self.breaks.size < 2:
            raise ValueError("need at least one piece")
        if not np.all(np.diff(self.breaks) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(coefs) != self.breaks.size - 1:
            raise ValueError("one coefficient vector per piece required")
        self.coefs = [np.atleast_1d(np.asarray(ck, dtype=float)) for ck in coefs]
        self._memo: dict = {}

    def _memoized(self, key: str, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, value: float, domain: Interval) -> "Weight":
        return cls([domain.a, domain.b], [[float(value)]])

    @classmethod
    def from_global_pieces(cls, pieces) -> "Weight":
        """Build from ((lo, hi), coeffs-in-x) pairs covering a contiguous range."""
        pieces = sorted(pieces, key=lambda it: it[0][0])
        breaks = [pieces[0][0][0]]
        coefs = []
        for (lo, hi), c in pieces:
            if abs(lo - breaks[-1]) > 1e-12 * max(1.0, abs(lo)):
                raise ValueError("pieces must tile the domain without gaps")
            breaks.append(hi)
            coefs.append(_shift_poly(np.atleast_1d(np.asarray(c, float)), lo))
        return cls(breaks, coefs)

    # -- basic queries --------------------------------------------------------

    @property
    def domain(self) -> Interval:
        return Interval(float(self.breaks[0]), float(self.breaks[-1]))

    @property
    def npieces(self) -> int:
        return len(self.coefs)

    def piece_index(self, x):
        idx = np.searchsorted(self.breaks, x, side="left") - 1
        return np.clip(idx, 0, self.npieces - 1)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xa = np.atleast_1d(x)
        idx = np.atleast_1d(self.piece_index(xa))
        out = np.empty_like(xa)
        for k in range(self.npieces):
            sel = idx == k
            if np.any(sel):
                out[sel] = P.polyval(xa[sel] - self.breaks[k], self.coefs[k])
        return float(out[0]) if scalar else out

    # -- exact extrema --------------------------------------------------------

    def _extrema(self):
        lo = math.inf
        hi = -math.inf
        for k, c in enumerate(self.coefs):
            w = self.breaks[k + 1] - self.breaks[k]
            xs = [0.0, w]
            xs += _real_roots_in(P.polyder(c), w, 1e-14 * w)
            vals = P.polyval(np.asarray(xs), c)
            lo = min(lo, float(np.min(vals)))
            hi = max(hi, float(np.max(vals)))
        return lo, hi

    def min_value(self) -> float:
        return self._memoized("extrema", self._extrema)[0]

    def max_value(self) -> float:
        return self._memoized("extrema", self._extrema)[1]

    def sup_norm(self) -> float:
        """Essential sup of |w|, from per-piece polynomial extrema."""
        lo, hi = self._memoized("extrema", self._extrema)
        return max(abs(lo), abs(hi))

    def is_zero(self) -> bool:
        return self.sup_norm() == 0.0

    # -- algebra --------------------------------------------------------------

    def affine(self, scale: float, offset: float = 0.0) -> "Weight":
        """scale * w + offset as a new Weight."""
        coefs = []
        for c in self.coefs:
            ck = scale * c
            ck[0] += offset
            coefs.append(ck)
        return Weight(self.breaks, coefs)

    def restrict(self, lo: float, hi: float) -> "Weight":
        """The same function on the subinterval [lo, hi]."""
        dom = self.domain
        span = dom.length()
        if lo < dom.a - 1e-12 * span or hi > dom.b + 1e-12 * span or not lo < hi:
            raise ValueError("restriction range outside the weight domain")
        breaks = [lo]
        coefs = []
        for k in range(self.npieces):
            plo, phi = self.breaks[k], self.breaks[k + 1]
            s = max(plo, lo)
            e = min(phi, hi)
            if e - s <= 1e-14 * span:
                continue
            coefs.append(_shift_poly(self.coefs[k], s - plo))
            breaks.append(e)
        breaks[0], breaks[-1] = lo, hi
        return Weight(breaks, coefs)

    def _signed_part(self, want_positive: bool) -> "Weight":
        breaks = [self.breaks[0]]
        coefs = []
        for k, c in enumerate(self.coefs):
            w = self.breaks[k + 1] - self.breaks[k]
            cuts = [0.0] + _real_roots_in(c, w, 1e-12 * w) + [w]
            for j in range(len(cuts) - 1):
                mid = 0.5 * (cuts[j] + cuts[j + 1])
                val = P.polyval(mid, c)
                if want_positive:
                    keep = val > 0.0
                else:
                    keep = val < 0.0
                if keep:
                    sub = _shift_poly(c, cuts[j])
                    if not want_positive:
                        sub = -sub
                else:
                    sub = np.zeros(1)
                coefs.append(sub)
                breaks.append(self.breaks[k] + cuts[j + 1])
        breaks[-1] = self.breaks[-1]
        return Weight(breaks, coefs)

    def pos_part(self) -> "Weight":
        """max(w, 0), with pieces split exactly at interior sign changes."""
        return self._memoized("pos", lambda: self._signed_part(True))

    def neg_part(self) -> "Weight":
        """max(-w, 0), so that w = pos_part - neg_part."""
        return self._memoized("neg", lambda: self._signed_part(False))

    def antiderivative(self) -> "Weight":
        """The continuous antiderivative F with F = 0 at the left endpoint."""
        run = 0.0
        coefs = []
        for k, c in enumerate(self.coefs):
            F = P.polyint(c)
            F[0] = run
            run = float(P.polyval(self.breaks[k + 1] - self.breaks[k], F))
            coefs.append(F)
        return Weight(self.breaks, coefs)

    def integral(self, lo: float | None = None, hi: float | None = None) -> float:
        F = self.antiderivative()
        a = self.breaks[0] if lo is None else lo
        b = self.breaks[-1] if hi is None else hi
        return float(F(b) - F(a))


def step_weight(domain: Interval, window: Interval, inside: float, outside: float) -> "Weight":
    """Weight equal to `inside` on the window and `outside` elsewhere."""
    breaks = [domain.a]
    coefs = []
    for lo, hi, val in [
        (domain.a, window.a, outside),
        (window.a, window.b, inside),
        (window.b, domain.b, outside),
    ]:
        if hi - lo > 1e-14 * domain.length():
            breaks.append(hi)
            coefs.append([float(val)])
    breaks[-1] = domain.b
    return Weight(breaks, coefs)


def sin_power_weight(domain: Interval, exponent: float, npieces: int = 128) -> "Weight":
    """Nonnegative piecewise-polynomial stand-in for sin(pi s)^exponent.

    Each piece carries the square of a least-squares cubic fit of
    sin(pi s)^(exponent/2) in the normalized coordinate s = (x-a)/(b-a), which
    keeps the result nonnegative by construction.  128 pieces put the fit error
    in the 1e-5 range, well below what the default grids resolve.
    """
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    a, L = domain.a, domain.length()
    breaks = np.linspace(domain.a, domain.b, npieces + 1)
    coefs = []
    for k in range(npieces):
        lo, hi = breaks[k], breaks[k + 1]
        xs = np.linspace(0.0, hi - lo, 25)
        s = (lo - a + xs) / L
        target = np.sin(np.pi * s) ** (exponent / 2.0)
        g = P.polyfit(xs, target, 3)
        coefs.append(P.polymul(g, g))
    return Weight(breaks, coefs)


# ---------------------------------------------------------------------------
# problem data

@dataclass
class Problem:
    """Data of the two-exponent problem on (a, b) with window I = (x0, x1).

    p and q are the gradient and reaction exponents, m the sign-changing
    weight, c the zero-order coefficient, window the subinterval where m is
    nonnegative and not identically zero.  c may change sign only when
    allow_sign_changing_c is set; conditions then use its positive part.
    """

    p: float
    q: float
    domain: Interval
    m: Weight
    c: Weight
    window: Interval
    allow_sign_changing_c: bool = False

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError(f"invalid exponent: p must be > 1, got {self.p}")
        if not 0.0 < self.q < self.p - 1.0:
            raise ValueError(
                f"invalid exponent: q must lie in (0, p-1) = (0, {self.p - 1}), got {self.q}"
            )
        a, b = self.domain.a, self.domain.b
        tol = 1e-12 * self.domain.length()
        if self.window.a < a - tol or self.window.b > b + tol:
            raise ValueError("window must sit inside the domain")
        for name, w in (("m", self.m), ("c", self.c)):
            wd = w.domain
            if abs(wd.a - a) > tol or abs(wd.b - b) > tol:
                raise ValueError(f"weight {name} must cover exactly the domain")
        m_win = self.m.restrict(self.window.a, self.window.b)
        if m_win.min_value() < -1e-12 * max(1.0, self.m.sup_norm()):
            raise ValueError("m must be nonnegative on the window")
        if m_win.sup_norm() == 0.0:
            raise ValueError("m must not vanish identically on the window")
        if not self.allow_sign_changing_c and self.c.min_value() < 0.0:
            raise ValueError(
                "c must be nonnegative (set allow_sign_changing_c to override)"
            )

    @property
    def c_plus(self) -> Weight:
        """The part of c the pointwise bounds use; c itself when c >= 0."""
        if self.allow_sign_changing_c and self.c.min_value() < 0.0:
            return self.c.pos_part()
        return self.c

    def default_grid(self, n: int = DEFAULT_N) -> Grid:
        return Grid.uniform(self.domain, n).with_points(
            [self.window.a, self.window.b]
        )


# ---------------------------------------------------------------------------
# quadrature

_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(20)
_XI = 0.5 * (_GAUSS_NODES + 1.0)
_WG = 0.5 * _GAUSS_WEIGHTS

_XI10, _WG10 = leggauss(10)


def integrate(f, lo: float, hi: float, n: int = 256) -> float:
    """Integral of f over [lo, hi].

    Exact for Weight arguments (antiderivative evaluation) and for
    GridFunction arguments (trapezoid on their own cells).  A plain callable
    is integrated by composite 10-point Gauss on n cells.
    """
    if not lo <= hi:
        raise ValueError(f"integration range needs lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    if isinstance(f, Weight):
        if not (f.domain.contains(lo, 1e-12) and f.domain.contains(hi, 1e-12)):
            raise ValueError("integration range outside the weight domain")
        return f.integral(lo, hi)
    if isinstance(f, GridFunction):
        nodes = f.grid.nodes
        if lo < nodes[0] - 1e-12 or hi > nodes[-1] + 1e-12:
            raise ValueError("integration range outside the grid")
        inner = nodes[(nodes > lo) & (nodes < hi)]
        pts = np.concatenate([[lo], inner, [hi]])
        vals = f(pts)
        return float(np.sum(0.5 * (vals[:-1] + vals[1:]) * np.diff(pts)))
    edges = np.linspace(lo, hi, n + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mids = 0.5 * (edges[1:] + edges[:-1])
    xs = mids[:, None] + half[:, None] * _XI10[None, :]
    fv = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    return float(np.sum(half[:, None] * _WG10[None, :] * fv))


def _cumulative_grid(dom_lo: float, dom_hi: float, weight: Weight, grid: Grid | None) -> np.ndarray:
    if grid is not None:
        return grid.nodes
    base = Grid.uniform(Interval(dom_lo, dom_hi), DEFAULT_N)
    inner = [b for b in weight.breaks if dom_lo < b < dom_hi]
    return base.with_points(inner).nodes


def cumulative_negative_left(m: Weight, eps: float, upto: float, grid: Grid | None = None) -> GridFunction:
    """The running integral y -> int_a^y (m^- + eps) as a grid function on [a, upto].

    Nodal values are exact (piecewise-polynomial antiderivative); only the
    interpolation between nodes is approximate.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    dom = m.domain
    if not dom.contains(upto, 1e-12 * dom.length()):
        raise ValueError(f"upto={upto} outside the weight domain {dom}")
    F = m.neg_part().affine(1.0, eps).antiderivative()
    nodes = _cumulative_grid(dom.a, upto, m, grid)
    return GridFunction(Grid(nodes), F(nodes))


def cumulative_negative_right(m: Weight, eps: float, from_: float, grid: Grid | None = None) -> GridFunction:
    """The tail integral z -> int_z^b (m^- + eps) on [from_, b]; nonincreasing."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    dom = m.domain
    if not dom.contains(from_, 1e-12 * dom.length()):
        raise ValueError(f"from_={from_} outside the weight domain {dom}")
    F = m.neg_part().affine(1.0, eps).antiderivative()
    total = float(F(dom.b))
    nodes = _cumulative_grid(from_, dom.b, m, grid)
    return GridFunction(Grid(nodes), total - F(nodes))


# ---------------------------------------------------------------------------
# exact weak-form assembly

def _horner_rows(coefs: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Evaluate each row of ascending coefficients at all xi; (S, len(xi))."""
    out = np.zeros((coefs.shape[0], xi.size))
    for j in range(coefs.shape[1] - 1, -1, -1):
        out *= xi[None, :]
        out += coefs[:, j:j + 1]
    return out


def _mul_linear(coefs: np.ndarray, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Rowwise product of polynomials with the per-row linear a0 + a1*xi."""
    S, D = coefs.shape
    out = np.zeros((S, D + 1))
    out[:, :D] += coefs * a0[:, None]
    out[:, 1:] += coefs * a1[:, None]
    return out


class AssemblyPlan:
    """Precomputed tables for integrals of weight * u^r * hat over one grid.

    The grid cells are cut at every weight breakpoint.  On each subcell the
    weight piece is re-expressed in the local coordinate xi in [0, 1] and
    multiplied by the two hat restrictions once, at construction time.  A call
    then only needs the nodal values of u.  The re-expression is one Horner
    composition batched over all subcells; it performs, subcell by subcell,
    the same floating-point operations in the same order as evaluating the
    piece's `numpy.polynomial.Polynomial` at the affine polynomial, so the
    tables are identical to the per-piece construction.

    Where u varies enough across a subcell (relative variation >= 0.2) the
    integral of poly(xi) * u(xi)^r is evaluated in closed form through the
    substitution t = u(xi); this handles the boundary cells, where u vanishes
    like a fractional power and fixed quadrature would lose digits.  Elsewhere
    20-point Gauss is used, whose truncation error is far below roundoff at
    that variation threshold.  Net effect: load vectors are exact to roundoff
    for every r > 0.
    """

    _CLOSED_DELTA = 0.2

    def __init__(self, grid: Grid, weights: dict[str, Weight]):
        self.grid = grid
        nodes = grid.nodes
        a, b = nodes[0], nodes[-1]
        span = b - a
        extra = []
        for w in weights.values():
            if not (w.domain.contains(a, 1e-12 * span) and w.domain.contains(b, 1e-12 * span)):
                raise ValueError("assembly weights must cover the grid interval")
            for br in w.breaks:
                if a < br < b:
                    j = np.searchsorted(nodes, br)
                    near = min(br - nodes[j - 1], nodes[j] - br) if 0 < j <= grid.n else 0.0
                    if near > 1e-13 * span:
                        extra.append(br)
        pts = np.unique(np.concatenate([nodes, extra])) if extra else nodes
        self.sub_lo = pts[:-1]
        self.sub_hi = pts[1:]
        self.wsub = self.sub_hi - self.sub_lo
        self.parent = np.clip(
            np.searchsorted(nodes, self.sub_lo, side="right") - 1, 0, grid.n - 1
        )
        h = grid.h[self.parent]
        xr = nodes[self.parent + 1]
        phiL_lo = (xr - self.sub_lo) / h
        phiL_hi = (xr - self.sub_hi) / h
        self._off_lo = self.sub_lo - nodes[self.parent]
        self.tables: dict[str, dict[str, np.ndarray]] = {}
        mids = 0.5 * (self.sub_lo + self.sub_hi)
        for key, wgt in weights.items():
            D = max(len(c) for c in wgt.coefs)
            C = np.zeros((wgt.npieces, D))
            for k, c in enumerate(wgt.coefs):
                C[k, : c.size] = c
            piece = np.asarray(wgt.piece_index(mids))
            C = C[piece]
            shift = self.sub_lo - wgt.breaks[piece]
            # Horner in the affine argument shift + wsub*xi, all subcells at once
            WB = np.zeros((self.sub_lo.size, D))
            WB[:, 0] = C[:, D - 1]
            for j in range(D - 2, -1, -1):
                WB = _mul_linear(WB[:, : D - 1], shift, self.wsub)
                WB[:, 0] += C[:, j]
            dL = phiL_hi - phiL_lo
            WL = _mul_linear(WB, phiL_lo, dL)
            WR = _mul_linear(WB, 1.0 - phiL_lo, -dL)
            self.tables[key] = {
                "LL": _mul_linear(WL, phiL_lo, dL),
                "LR": _mul_linear(WL, 1.0 - phiL_lo, -dL),
                "RR": _mul_linear(WR, 1.0 - phiL_lo, -dL),
                "L": WL,
                "R": WR,
            }

    # -- internals ------------------------------------------------------------

    def _sub_values(self, u: np.ndarray):
        s = np.diff(u) / self.grid.h
        sp = s[self.parent]
        base = u[self.parent]
        # clip tiny negatives: u is nonnegative by contract, but roundoff in
        # base + slope*offset can land a hair below zero at cell ends
        ulo = np.maximum(base + sp * self._off_lo, 0.0)
        uhi = np.maximum(ulo + sp * self.wsub, 0.0)
        return ulo, uhi

    def _moment(self, W: np.ndarray, ulo, uhi, r: float) -> np.ndarray:
        du = uhi - ulo
        denom = np.abs(ulo) + np.abs(uhi)
        delta = np.where(denom > 0, np.abs(du) / np.where(denom > 0, denom, 1.0), 0.0)
        closed = (delta >= self._CLOSED_DELTA) & (np.abs(du) > 1e-200)
        out = np.empty(ulo.size)
        g = ~closed
        if np.any(g):
            T = ulo[g, None] + du[g, None] * _XI[None, :]
            T = np.maximum(T, 0.0)
            if r < 0:
                Tr = np.where(T > 0, T, 1.0) ** r * (T > 0)
            else:
                Tr = T ** r
            V = _horner_rows(W[g], _XI)
            out[g] = (V * Tr) @ _WG
        if np.any(closed):
            ul = ulo[closed]
            uh = uhi[closed]
            duc = du[closed]
            Wc = W[closed]
            D = W.shape[1]
            e = r + 1.0 + np.arange(D)
            M = (uh[:, None] ** e[None, :] - ul[:, None] ** e[None, :]) / e[None, :]
            acc = np.zeros(ul.size)
            for i in range(D):
                vi = np.zeros(ul.size)
                for j in range(i, D):
                    vi += (
                        Wc[:, j]
                        / duc ** j
                        * math.comb(j, i)
                        * (-ul) ** (j - i)
                    )
                acc += vi * M[:, i]
            out[closed] = acc / duc
        return self.wsub * out

    # -- public ---------------------------------------------------------------

    def load_vector(self, key: str, u: np.ndarray, r: float) -> np.ndarray:
        """Per-node integrals of weight * u^r * hat_i, boundary hats included.

        u must be nonnegative nodal values on the plan's grid; r > -1.
        """
        u = np.asarray(u, dtype=float)
        ulo, uhi = self._sub_values(u)
        tab = self.tables[key]
        IL = self._moment(tab["L"], ulo, uhi, r)
        IR = self._moment(tab["R"], ulo, uhi, r)
        out = np.zeros(self.grid.n + 1)
        np.add.at(out, self.parent, IL)
        np.add.at(out, self.parent + 1, IR)
        return out

    def weighted_integral(self, key: str, u: np.ndarray, r: float) -> float:
        """Integral of weight * u^r over the whole grid interval."""
        return float(np.sum(self.load_vector(key, u, r)))

    def mass_tridiag(self, key: str, u: np.ndarray, r: float):
        """(diag, off) of the matrix int weight * u^r * hat_i * hat_j.

        Gauss-only; intended for Newton matrices, where quadrature-level
        accuracy is enough.  Subcells where u vanishes identically contribute
        zero for negative r instead of a singular value.
        """
        u = np.asarray(u, dtype=float)
        ulo, uhi = self._sub_values(u)
        du = uhi - ulo
        T = np.maximum(ulo[:, None] + du[:, None] * _XI[None, :], 0.0)
        if r < 0:
            Tr = np.where(T > 0, T, 1.0) ** r * (T > 0)
        else:
            Tr = T ** r
        tab = self.tables[key]
        diag = np.zeros(self.grid.n + 1)
        off = np.zeros(self.grid.n)
        for name, target, idx in (
            ("LL", diag, self.parent),
            ("RR", diag, self.parent + 1),
            ("LR", off, self.parent),
        ):
            V = _horner_rows(tab[name], _XI)
            I = self.wsub * ((V * Tr) @ _WG)
            np.add.at(target, idx, I)
        return diag, off
