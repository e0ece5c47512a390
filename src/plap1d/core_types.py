"""Meshes, piecewise-polynomial weights, and quadrature.

Everything downstream (eigenvalue brackets, sufficient conditions, certificate
builders, weak-form residuals) is driven by a handful of primitives defined
here: intervals, grids, piecewise-linear grid functions, weights stored as
piecewise polynomials with exactly representable positive/negative parts, and
an assembly plan that integrates weight * u^r * hat products in closed form.

A weight keeps its K pieces as one zero-padded (K, D) coefficient array, and
each of its operations (evaluation, extrema, sign parts, antiderivative,
restriction, shifts) is one batched numpy pass over all pieces.  Presets and
piece lists reach 128 pieces and more, where a per-piece loop of
`numpy.polynomial` calls would dominate a solve; the batched passes perform
the same floating-point operations in the same order as that per-piece
arithmetic, so their results are bit-identical to it.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np
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
    "phi_p",
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

def phi_p(t, p: float):
    """Odd power |t|^(p-2) t, applied elementwise. phi_p(0) = 0 for every p > 1."""
    t = np.asarray(t, dtype=float)
    out = np.sign(t) * np.abs(t) ** (p - 1.0)
    return float(out) if out.ndim == 0 else out


def _horner_rows(coefs: np.ndarray, x) -> np.ndarray:
    """Rows of ascending coefficients at points x; (K, M).

    x is (M,), shared by all K rows, or (K, M), one point set per row.  Row by
    row these are the operations of `P.polyval`, in its order, so zero
    padding of a row changes no bit of its values.
    """
    out = np.zeros((coefs.shape[0], np.shape(x)[-1]))
    for j in range(coefs.shape[1] - 1, -1, -1):
        out *= x
        out += coefs[:, j:j + 1]
    return out


def _mul_linear(coefs: np.ndarray, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Rowwise product of polynomials with the per-row linear a0 + a1*xi."""
    S, D = coefs.shape
    out = np.zeros((S, D + 1))
    out[:, :D] += coefs * a0[:, None]
    out[:, 1:] += coefs * a1[:, None]
    return out


def _compose_affine(coefs: np.ndarray, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Each row composed with its affine argument a0 + a1*xi; same shape.

    Horner in the affine polynomial, all rows at once: row by row the same
    floating-point operations in the same order as evaluating
    `Polynomial(row)` at `Polynomial([a0, a1])`.
    """
    S, D = coefs.shape
    out = np.zeros((S, D))
    out[:, 0] = coefs[:, D - 1]
    for j in range(D - 2, -1, -1):
        out = _mul_linear(out[:, : D - 1], a0, a1)
        out[:, 0] += coefs[:, j]
    return out


def _real_roots_rows(coefs: np.ndarray, width: np.ndarray, tol_edge: np.ndarray):
    """Real roots of each row strictly inside (0, width[k]), and their count.

    Row k of the (K, D - 1) result holds its count[k] roots in ascending
    order, then width[k].  Roots within tol_edge[k] of either edge are dropped,
    near-duplicates merged.  Each row is scaled to unit max norm and its
    relatively negligible leading coefficients are dropped (their only
    effect is far-away roots, and they wreck the companion matrix
    conditioning).  Rows of equal trimmed length share one stacked
    eigenvalue call on the companion matrices `P.polycompanion` builds,
    which returns row by row the numbers `P.polyroots` does.  An eigenvalue
    z counts as real when |Im z| <= 1e-9 * max(width[k], |z|): relative to
    the piece, so that on a narrow piece a complex pair close to the axis,
    across which the row keeps its sign, is not taken for a root.

    Rows that provably have no root on their closed piece skip that call.
    In t = x/width the trimmed, normalized row has coefficients
    a_j = c_j width^j, and its Bernstein coefficients on [0, 1] bound it from
    both sides (the convex-hull bound; Lane & Riesenfeld, BIT 21, 1981).  If
    they all exceed 1e-12 * sum|a_j|, hundreds of times their own rounding,
    or all lie below its negative, the row has no root on the piece, so no
    root is lost.  The result can change only where the companion solve
    reported a root the row does not have: a complex pair that the 1e-9
    test takes for real, or the sqrt(eps)-sized split of a double root just
    outside an edge.  A row whose conversion overflows is kept.
    """
    K, D = coefs.shape
    R = max(D - 1, 0)
    out = np.repeat(width[:, None], R, axis=1)
    count = np.zeros(K, dtype=int)
    if R == 0:
        return out, count
    amax = np.max(np.abs(coefs), axis=1)
    c = coefs / np.where(amax > 0.0, amax, 1.0)[:, None]
    big = np.abs(c) > 1e-14
    big[:, 0] = True
    size = D - np.argmax(big[:, ::-1], axis=1)
    cand = np.full((K, R), np.nan)
    for L in np.unique(size[size > 1]):
        rows = np.flatnonzero(size == L)
        cr = c[rows, :L]
        bern = np.array([[math.comb(i, j) / math.comb(L - 1, j) for i in range(L)] for j in range(L)])
        with np.errstate(over="ignore", invalid="ignore"):
            a = cr * width[rows, None] ** np.arange(L)
            b = a @ bern
            margin = 1e-12 * np.abs(a).sum(axis=1, keepdims=True)
            root_free = np.all(b > margin, axis=1) | np.all(b < -margin, axis=1)
        rows, cr = rows[~root_free], cr[~root_free]
        if rows.size == 0:
            continue
        mat = np.zeros((rows.size, L - 1, L - 1))
        mat[:, np.arange(1, L - 1), np.arange(L - 2)] = 1.0
        mat[:, :, -1] -= cr[:, :-1] / cr[:, -1:]
        z = np.linalg.eigvals(mat)
        r = z.real
        w, tol = width[rows, None], tol_edge[rows, None]
        ok = (np.abs(z.imag) <= 1e-9 * np.maximum(w, np.abs(z))) & (tol < r) & (r < w - tol)
        cand[rows, : L - 1] = np.where(ok, r, np.nan)
    cand.sort(axis=1)
    last = np.full(K, np.nan)
    for r in cand.T:
        keep = ~np.isnan(r) & (np.isnan(last) | (r - last > tol_edge))
        rows = np.flatnonzero(keep)
        out[rows, count[rows]] = r[rows]
        count += keep
        last = np.where(keep, r, last)
    return out, count


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
        nodes = self.nodes
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        pts = pts[(pts > nodes[0]) & (pts < nodes[-1])]
        j = np.searchsorted(nodes, pts)
        near = np.minimum(pts - nodes[j - 1], nodes[j] - pts)
        keep = pts[near > 1e-13 * (nodes[-1] - nodes[0])]
        return Grid(np.unique(np.concatenate([nodes, keep])))

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

    def interior_min(self) -> float:
        return float(np.min(self.values[1:-1]))

    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / self.grid.h

    def scaled(self, s: float) -> "GridFunction":
        return GridFunction(self.grid, s * self.values)


# ---------------------------------------------------------------------------
# weights

class Weight:
    """Piecewise polynomial on an interval.

    Parameters
    ----------
    breaks : array_like
        K+1 strictly increasing, finite breakpoints tiling the domain.
    coefs : sequence of array_like, or a (K, D) array
        K coefficient vectors, ascending order, each in the local variable
        x - breaks[k] of its piece.  Local storage keeps evaluation well
        conditioned for narrow pieces.  Every coefficient must be finite.

    The pieces are stored as one (K, D) float array `coefs`, each row padded
    with zeros to the longest piece (trailing columns that are zero in every
    row are dropped).  Presets and piece lists reach 128 pieces and more, so
    every operation is one batched numpy pass over all rows, never a loop
    over pieces; row by row it performs the floating-point operations of the
    per-piece `numpy.polynomial` arithmetic in the same order, and the zero
    padding is exact, so the results are bit-identical to it.

    At a breakpoint the left piece wins; that convention changes nothing
    measurable but makes evaluation deterministic.

    A Weight is immutable: `coefs` is read-only, no method changes breaks or
    coefs, and the algebra returns new instances.  That is what lets each
    instance compute once, in a memo that dies with it, its extrema, the
    roots its two signed parts share, those parts, its antiderivative, each
    affine map and each restriction asked for (on its own domain, the
    instance itself), so that every stage of one problem reads the same
    window weight and the same eps-inflated negative part.
    """

    def __init__(self, breaks, coefs):
        self.breaks = np.asarray(breaks, dtype=float)
        if self.breaks.ndim != 1 or self.breaks.size < 2:
            raise ValueError("need at least one piece")
        if not np.isfinite(self.breaks).all():
            raise ValueError("breakpoints must be finite")
        if not (self.breaks[1:] > self.breaks[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        if len(coefs) != self.breaks.size - 1:
            raise ValueError("one coefficient vector per piece required")
        if isinstance(coefs, np.ndarray) and coefs.ndim == 2:
            C = coefs.astype(float)
            empty = C.shape[1] == 0
        else:
            rows = [np.atleast_1d(np.asarray(ck, dtype=float)) for ck in coefs]
            empty = min(r.size for r in rows) == 0
            C = np.zeros((len(rows), max(r.size for r in rows)))
            for k, r in enumerate(rows):
                C[k, : r.size] = r
        if empty:
            raise ValueError("each piece needs at least one coefficient")
        if not np.isfinite(C).all():
            raise ValueError("coefficients must be finite")
        used = np.flatnonzero(C.any(axis=0))
        self.coefs = C[:, : used[-1] + 1 if used.size else 1]
        self.coefs.flags.writeable = False
        self._memo: dict = {}

    def _memoized(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, value: float, domain: Interval) -> "Weight":
        return cls([domain.a, domain.b], [[float(value)]])

    # -- basic queries --------------------------------------------------------

    @property
    def domain(self) -> Interval:
        return Interval(float(self.breaks[0]), float(self.breaks[-1]))

    @property
    def npieces(self) -> int:
        return self.coefs.shape[0]

    def _widths(self) -> np.ndarray:
        return self.breaks[1:] - self.breaks[:-1]

    def piece_index(self, x):
        idx = np.searchsorted(self.breaks, x, side="left") - 1
        return np.clip(idx, 0, self.npieces - 1)

    def __call__(self, x):
        """The weight at x, a float or an array of points.

        A float (np.float64 included) takes a Python path: `bisect` finds
        its piece and Horner runs on the piece's coefficients as floats,
        with the t = x - break and the operation order of `_horner_rows`, so
        it returns the bits the array path does, without numpy's per-call
        overhead.  Points outside the domain take the end pieces.
        """
        if isinstance(x, float):
            breaks, rows = self._memoized("lists", lambda: (self.breaks.tolist(), self.coefs.tolist()))
            k = min(max(bisect.bisect_left(breaks, x) - 1, 0), len(rows) - 1)
            t = float(x) - breaks[k]
            out = 0.0
            for ck in reversed(rows[k]):
                out = out * t + ck
            return out
        x = np.asarray(x, dtype=float)
        xa = np.ravel(x)
        idx = self.piece_index(xa)
        out = _horner_rows(self.coefs[idx], (xa - self.breaks[idx])[:, None])[:, 0]
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def on_panels(self, mid: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Values at the points X[k] (shape (K, M)) of panel k, all read
        from the piece that holds the panel's midpoint mid[k].

        For panels cut at the breaks this is the piece of every point inside
        the panel, looked up once per panel, and each value is the same
        Horner in the piece's own coordinate as `__call__`.
        """
        piece = self.piece_index(mid)
        return _horner_rows(self.coefs[piece], X - self.breaks[piece][:, None])

    # -- exact extrema --------------------------------------------------------

    def _extrema(self):
        C = self.coefs
        w = self._widths()
        crit, _ = _real_roots_rows(C[:, 1:] * np.arange(1, C.shape[1]), w, 1e-14 * w)
        vals = _horner_rows(C, np.column_stack([np.zeros_like(w), w, crit]))
        return float(np.min(vals)), float(np.max(vals))

    def min_value(self) -> float:
        return self._memoized("extrema", self._extrema)[0]

    def max_value(self) -> float:
        return self._memoized("extrema", self._extrema)[1]

    def sup_norm(self) -> float:
        """Essential sup of |w|, from per-piece polynomial extrema."""
        return max(abs(self.min_value()), abs(self.max_value()))

    def is_zero(self) -> bool:
        return self.sup_norm() == 0.0

    # -- algebra --------------------------------------------------------------

    def affine(self, scale: float, offset: float = 0.0) -> "Weight":
        """scale * w + offset, one Weight per (scale, offset) pair asked for."""
        return self._memoized(("affine", scale, offset), lambda: self._affine(scale, offset))

    def _affine(self, scale: float, offset: float) -> "Weight":
        C = scale * self.coefs
        C[:, 0] += offset
        return Weight(self.breaks, C)

    def restrict(self, lo: float, hi: float) -> "Weight":
        """The same function on the subinterval [lo, hi].

        On the weight's own ends, with no piece narrow enough to drop, the
        rebuild would only compose each piece with a zero shift, which is
        exact, so it returns self.
        """
        span = self.breaks[-1] - self.breaks[0]
        if lo == self.breaks[0] and hi == self.breaks[-1] and (self._widths() > 1e-14 * span).all():
            return self
        return self._memoized(("restrict", lo, hi), lambda: self._restrict(lo, hi))

    def _restrict(self, lo: float, hi: float) -> "Weight":
        dom = self.domain
        span = dom.length()
        if lo < dom.a - 1e-12 * span or hi > dom.b + 1e-12 * span or not lo < hi:
            raise ValueError("restriction range outside the weight domain")
        plo = self.breaks[:-1]
        s = np.maximum(plo, lo)
        e = np.minimum(self.breaks[1:], hi)
        keep = e - s > 1e-14 * span
        shift = (s - plo)[keep]
        breaks = np.concatenate([[lo], e[keep]])
        breaks[0], breaks[-1] = lo, hi
        return Weight(breaks, _compose_affine(self.coefs[keep], shift, np.ones_like(shift)))

    def _signed_part(self, want_positive: bool) -> "Weight":
        # each piece is cut at its interior roots; segment j of piece k runs
        # from cuts[k, j] to cuts[k, j + 1] and keeps the piece, shifted to
        # its left end, where the piece has the wanted sign at its midpoint
        w = self._widths()
        roots, count = self._memoized("roots", lambda: _real_roots_rows(self.coefs, w, 1e-12 * w))
        cuts = np.column_stack([np.zeros_like(w), roots, w])
        k, j = np.nonzero(np.arange(cuts.shape[1] - 1) <= count[:, None])
        ends = self.breaks[k] + cuts[k, j + 1]
        ends[-1] = self.breaks[-1]
        # drop the empty segment a cut leaves when it rounds onto the end
        # before it, as a root 1e-15 past a break at 17 does
        full = ends > np.maximum.accumulate(np.concatenate([self.breaks[:1], ends[:-1]]))
        k, j, ends = k[full], j[full], ends[full]
        left, right = cuts[k, j], cuts[k, j + 1]
        C = self.coefs[k]
        val = _horner_rows(C, 0.5 * (left + right)[:, None])[:, 0]
        keep = val > 0.0 if want_positive else val < 0.0
        sub = _compose_affine(C, left, np.ones_like(left))
        sub = np.where(keep[:, None], sub if want_positive else -sub, 0.0)
        breaks = np.concatenate([self.breaks[:1], ends])
        breaks[-1] = self.breaks[-1]
        return Weight(breaks, sub)

    def pos_part(self) -> "Weight":
        """max(w, 0), with pieces split exactly at interior sign changes."""
        return self._memoized("pos", lambda: self._signed_part(True))

    def neg_part(self) -> "Weight":
        """max(-w, 0), so that w = pos_part - neg_part."""
        return self._memoized("neg", lambda: self._signed_part(False))

    def antiderivative(self) -> "Weight":
        """The continuous antiderivative F with F = 0 at the left endpoint.

        F's constant on piece k is the running sum over the earlier pieces
        of (F_j(width_j) - F_j(0)), accumulated left to right.
        """
        return self._memoized("antiderivative", self._antiderivative)

    def _antiderivative(self) -> "Weight":
        C = self.coefs
        w = self._widths()
        F = np.zeros((C.shape[0], C.shape[1] + 1))
        F[:, 1:] = C / np.arange(1, C.shape[1] + 1)
        rise = _horner_rows(F[:, 1:], w[:, None])[:, 0] * w
        F[1:, 0] = np.cumsum(rise)[:-1]
        return Weight(self.breaks, F)

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
    breaks = np.linspace(domain.a, domain.b, npieces + 1)
    width = np.diff(breaks)
    t = np.linspace(0.0, 1.0, 25)
    s = (breaks[:-1, None] - domain.a + width[:, None] * t) / domain.length()
    target = np.sin(np.pi * s) ** (exponent / 2.0)
    # every piece is fitted at 25 points of its own t = (x - lo)/(hi - lo), so
    # one least-squares solve against their shared Vandermonde matrix fits all
    fit = np.linalg.lstsq(np.vander(t, 4, increasing=True), target.T, rcond=None)[0]
    g = fit.T / width[:, None] ** np.arange(4)
    coefs = np.zeros((npieces, 7))
    for k in range(4):
        coefs[:, k : k + 4] += g[:, k : k + 1] * g
    # lift each piece by a bound on the rounding of its expanded square and
    # of Horner's rule on it, so that no evaluation on the piece is negative
    coefs[:, 0] += 16 * np.finfo(float).eps * np.abs(fit).sum(axis=0) ** 2
    return Weight(breaks, coefs)


# ---------------------------------------------------------------------------
# problem data

@dataclass
class Problem:
    """Data of the two-exponent problem on (a, b) with window I = (x0, x1).

    p and q are the gradient and reaction exponents, m the sign-changing
    weight, c the zero-order coefficient, window the subinterval where m is
    nonnegative and not identically zero.  c may change sign only when
    allow_sign_changing_c is set, and the flag reaches only so far: the
    conditions and the window eigenvalue use c's positive part `c_plus`, the
    supersolution ignores c, and only the independent weak-form check sees
    where c < 0 (with c = -0.1 on the step weight the supersolution fails it
    at x = 0.5).
    """

    p: float
    q: float
    domain: Interval
    m: Weight
    c: Weight
    window: Interval
    allow_sign_changing_c: bool = False

    def __post_init__(self):
        for name in ("p", "q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"invalid exponent: {name} must be finite, got {getattr(self, name)}")
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

@functools.lru_cache(maxsize=None)
def _gauss_rule(degree: int):
    """Gauss nodes and weights on [0, 1] for tables of the given degree,
    computed once per degree and shared by every plan (never written to).

    A table row of degree D times u^r, with u's relative variation below
    `AssemblyPlan._CLOSED_DELTA`, integrates to roundoff with 10 points up
    to D = 8 (1.2e-15 relative against 40-digit quadrature, r in
    [-0.99, 7]).  A higher degree leaves 2N - 1 - D degrees to u^r, so
    every two more degrees take one more point, up to 20.
    """
    nodes, weights = leggauss(min(20, max(10, (degree + 13) // 2)))
    return 0.5 * (nodes + 1.0), 0.5 * weights


# ---------------------------------------------------------------------------
# exact weak-form assembly

class AssemblyPlan:
    """Precomputed tables for integrals of one weight * u^r * hat over one grid.

    The grid cells are cut at the weight's breakpoints.  On each subcell the
    weight piece is re-expressed in the local coordinate xi in [0, 1] and
    multiplied by the two hat restrictions once, at construction time: the
    coefficient tables `L` and `R` of weight * hat.  The weight's padded
    `Weight.coefs` array is read as given, one row per subcell, and the
    re-expression is one Horner composition batched over all subcells
    (`_compose_affine`); it performs, subcell by subcell, the same
    floating-point operations in the same order as evaluating the piece's
    `numpy.polynomial.Polynomial` at the affine polynomial, so the tables are
    identical to the per-piece construction.
    Also built once: a Gauss rule sized from the tables' degree
    (`_gauss_rule`: 10 points for every preset weight), both tables at its
    nodes (`L_gauss`, `R_gauss`), and the two hats there, so a call
    evaluates no polynomial and needs only the nodal values of u.

    Where u varies enough across a subcell (relative variation >= 0.2) the
    integral of poly(xi) * u(xi)^r is evaluated in closed form through the
    substitution t = u(xi): each table row is re-expressed in t by the same
    `_compose_affine`, xi = (t - u_lo) / du, and dotted with the power moments
    of t^r over [u_lo, u_hi].  This handles the boundary cells, where u
    vanishes like a fractional power and fixed quadrature would lose digits.
    Elsewhere the Gauss rule is used, whose truncation error is below
    roundoff at that variation threshold.  Either way u^r (or its power
    moments) is computed once per call and shared by the left and the right
    hat.  Net effect: load vectors are exact to roundoff for every r > 0.
    """

    _CLOSED_DELTA = 0.2

    def __init__(self, grid: Grid, weight: Weight):
        self.grid = grid
        nodes = grid.nodes
        a, b = nodes[0], nodes[-1]
        span = b - a
        if not (weight.domain.contains(a, 1e-12 * span) and weight.domain.contains(b, 1e-12 * span)):
            raise ValueError("assembly weight must cover the grid interval")
        pts = grid.with_points(weight.breaks).nodes
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
        dL = phiL_hi - phiL_lo
        self._off_lo = self.sub_lo - nodes[self.parent]
        piece = np.asarray(weight.piece_index(0.5 * (self.sub_lo + self.sub_hi)))
        WB = _compose_affine(weight.coefs[piece], self.sub_lo - weight.breaks[piece], self.wsub)
        self.L = _mul_linear(WB, phiL_lo, dL)
        self.R = _mul_linear(WB, 1.0 - phiL_lo, -dL)
        self.xi, self.wg = _gauss_rule(self.L.shape[1] - 1)
        self._hat_left = phiL_lo[:, None] + dL[:, None] * self.xi[None, :]
        self._hat_right = 1.0 - self._hat_left
        self.L_gauss = _horner_rows(self.L, self.xi)
        self.R_gauss = _horner_rows(self.R, self.xi)
        # the node of each subcell's left hat, then of each one's right hat
        self._both_hats = np.concatenate([self.parent, self.parent + 1])

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

    # -- public ---------------------------------------------------------------

    def load_vector(self, u: np.ndarray, r: float, gauss: list | None = None) -> np.ndarray:
        """Per-node integrals of weight * u^r * hat_i, boundary hats included.

        u must be nonnegative nodal values on the plan's grid; r > -1.  The
        Gauss rule runs on every subcell and the closed-form subcells are
        overwritten; one `np.bincount` adds the left, then the right hats'
        moments in `np.add.at`'s order.  When `gauss` is a list, u and u^r
        at the Gauss nodes, (T, T^r), are appended to it for `mass_tridiag`.
        """
        u = np.asarray(u, dtype=float)
        ulo, uhi = self._sub_values(u)
        du = uhi - ulo
        T = np.maximum(ulo[:, None] + du[:, None] * self.xi[None, :], 0.0)
        # u^r, and 0 where u vanishes and r < 0
        Tr = np.where(T > 0, T, 1.0) ** r * (T > 0) if r < 0 else T ** r
        if gauss is not None:
            gauss.append((T, Tr))
        IL = (self.L_gauss * Tr) @ self.wg
        IR = (self.R_gauss * Tr) @ self.wg
        denom = np.abs(ulo) + np.abs(uhi)
        delta = np.where(denom > 0, np.abs(du) / np.where(denom > 0, denom, 1.0), 0.0)
        closed = np.flatnonzero((delta >= self._CLOSED_DELTA) & (np.abs(du) > 1e-200))
        if closed.size:
            ul, uh, duc = ulo[closed], uhi[closed], du[closed]
            e = r + 1.0 + np.arange(self.L.shape[1])
            M = (uh[:, None] ** e[None, :] - ul[:, None] ** e[None, :]) / e[None, :]
            a0, a1 = -ul / duc, 1.0 / duc
            IL[closed] = np.sum(_compose_affine(self.L[closed], a0, a1) * M, axis=1) / duc
            IR[closed] = np.sum(_compose_affine(self.R[closed], a0, a1) * M, axis=1) / duc
        return np.bincount(self._both_hats, np.tile(self.wsub, 2) * np.concatenate([IL, IR]),
                           self.grid.n + 1)

    def mass_tridiag(self, T: np.ndarray, Tr: np.ndarray):
        """(diag, off) of the matrix int weight * u^(r-1) * hat_i * hat_j.

        T and Tr are u and u^r at the Gauss nodes, as `load_vector(u, r,
        gauss)` left them, so nothing is raised to a power: u^(r-1) is u^r / u
        where u > 0, and 0 where u vanishes.  Gauss-only; intended for Newton
        matrices, where quadrature-level accuracy is enough.
        """
        V = np.divide(Tr, T, out=np.zeros_like(T), where=T > 0)
        left = self.L_gauss * V
        both = np.concatenate([(left * self._hat_left) @ self.wg,
                               (self.R_gauss * V * self._hat_right) @ self.wg])
        diag = np.bincount(self._both_hats, np.tile(self.wsub, 2) * both, self.grid.n + 1)
        off = np.bincount(self.parent, self.wsub * ((left * self._hat_right) @ self.wg), self.grid.n)
        return diag, off
