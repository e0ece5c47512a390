import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P
from scipy.integrate import quad

from plap1d import core_types
from plap1d.conditions import _mass_integrals
from plap1d.core_types import (
    DEFAULT_N,
    AssemblyPlan,
    Grid,
    GridFunction,
    Interval,
    Problem,
    Weight,
    phi_p,
    sin_power_weight,
    step_weight,
)

UNIT = Interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# scalars

def test_phi_p_odd_and_zero():
    assert phi_p(0.0, 1.5) == 0.0
    assert phi_p(-2.0, 3.0) == -4.0
    np.testing.assert_allclose(phi_p(np.array([2.0, -2.0]), 2.5), [2.0 ** 1.5, -(2.0 ** 1.5)])


# ---------------------------------------------------------------------------
# intervals and grids

def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_grid_basics():
    g = Grid.uniform(UNIT, 8)
    assert g.n == 8
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
    np.testing.assert_allclose(g.h, 0.125)
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 0.5, 0.5, 1.0]))


def test_grid_with_points():
    g = Grid.uniform(UNIT, 4).with_points([0.3, 0.25, 1.7])
    assert 0.3 in g.nodes
    # 0.25 is already a node, 1.7 is outside: neither adds a cell
    assert g.n == 5


def test_hat_masses_partition():
    g = Grid.uniform(UNIT, 10).with_points([0.123])
    assert abs(g.hat_masses().sum() - 1.0) < 1e-14


def test_gridfunction_interp():
    g = Grid.uniform(UNIT, 2)
    f = GridFunction(g, np.array([0.0, 1.0, 0.0]))
    assert f(0.25) == 0.5
    assert f.sup_norm() == 1.0
    assert f.interior_min() == 1.0
    with pytest.raises(ValueError):
        GridFunction(g, np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# weights

def test_weight_eval_left_convention():
    w = Weight([0.0, 0.5, 1.0], [[1.0], [2.0]])
    assert w(0.25) == 1.0
    assert w(0.5) == 1.0  # breakpoint takes the left piece
    assert w(0.75) == 2.0
    assert w(0.0) == 1.0


def test_weight_parts_of_linear():
    # w(x) = x - 0.3 changes sign inside the single piece
    w = Weight([0.0, 1.0], [[-0.3, 1.0]])
    pos, neg = w.pos_part(), w.neg_part()
    xs = np.linspace(0.0, 1.0, 211)
    np.testing.assert_allclose(pos(xs) - neg(xs), w(xs), atol=1e-14)
    np.testing.assert_allclose(pos(xs) * neg(xs), 0.0, atol=1e-20)
    np.testing.assert_allclose(pos(xs), np.maximum(w(xs), 0.0), atol=1e-14)
    assert any(abs(b - 0.3) < 1e-12 for b in pos.breaks)


def test_weight_parts_quadratic_two_roots():
    # (x-0.2)(x-0.7) = 0.14 - 0.9 x + x^2
    w = Weight([0.0, 1.0], [[0.14, -0.9, 1.0]])
    neg = w.neg_part()
    assert neg(0.45) == pytest.approx(-w(0.45), rel=1e-13)
    assert neg(0.1) == 0.0 and neg(0.9) == 0.0
    assert w.min_value() == pytest.approx(w(0.45), rel=1e-13)
    assert -(w.affine(-1.0).min_value()) == pytest.approx(0.24, rel=1e-13)  # max, at x=1


def test_weight_supnorm_interior_extremum():
    # x(1-x) has its max 0.25 at an interior critical point
    w = Weight([0.0, 1.0], [[0.0, 1.0, -1.0]])
    assert w.sup_norm() == pytest.approx(0.25, abs=1e-15)


def test_step_weight_shape():
    w = step_weight(UNIT, Interval(0.25, 0.75), 1.0, -0.5)
    assert w(0.5) == 1.0
    assert w(0.1) == -0.5 and w(0.9) == -0.5
    assert w.sup_norm() == 1.0
    assert w.neg_part()(0.1) == 0.5


def test_weight_antiderivative_and_integral():
    w = Weight([0.0, 0.5, 1.0], [[0.0, 2.0], [1.0]])
    F = w.antiderivative()
    assert F(0.0) == 0.0
    assert F(0.5) == pytest.approx(0.25, abs=1e-15)
    assert F(1.0) == pytest.approx(0.75, abs=1e-15)
    assert w.integral(0.25, 0.75) == pytest.approx(0.25 - 0.0625 + 0.25, abs=1e-14)


def test_weight_restrict():
    w = Weight([0.0, 0.5, 1.0], [[0.0, 2.0], [1.0]])
    r = w.restrict(0.2, 0.8)
    xs = np.linspace(0.2, 0.8, 67)
    np.testing.assert_allclose(r(xs), w(xs), atol=1e-14)
    assert r.domain.a == 0.2 and r.domain.b == 0.8


def test_sin_power_weight_accuracy():
    # fractional exponents are hard to fit right at the endpoints, where the
    # target behaves like a fractional power; the error there stays local
    for e in (0.5, 1.0, 2.0, 3.5):
        w = sin_power_weight(UNIT, e)
        xs = np.linspace(0.0, 1.0, 4001)
        ref = np.sin(np.pi * xs) ** e
        err = np.abs(w(xs) - ref)
        assert w.min_value() >= 0.0
        assert np.max(err[(xs > 0.05) & (xs < 0.95)]) < 2e-4
        assert np.mean(err) < 5e-4


@pytest.mark.parametrize("exponent", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("npieces", [1, 7, 128, 4096])
def test_sin_power_weight_matches_per_piece_polyfit(npieces, exponent):
    # the batched fit against one P.polyfit per piece in its local variable,
    # squared by P.polymul.  Times width**k, the coefficients are those in
    # t = (x - lo)/width, compared relative to each piece's largest one (a
    # coefficient alone can cancel to near zero)
    w = sin_power_weight(UNIT, exponent, npieces)
    ref = np.zeros((npieces, 7))
    for k, (lo, hi) in enumerate(zip(w.breaks[:-1], w.breaks[1:])):
        xs = np.linspace(0.0, hi - lo, 25)
        g = P.polyfit(xs, np.sin(np.pi * (lo - UNIT.a + xs) / UNIT.length()) ** (exponent / 2.0), 3)
        ref[k] = P.polymul(g, g)
    t_scale = np.diff(w.breaks)[:, None] ** np.arange(7)
    got, want = w.coefs * t_scale, ref * t_scale
    assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(want), axis=1, keepdims=True))
    # each piece is lifted by its rounding bound, so no extremum is negative
    assert w.min_value() >= 0.0


@given(
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    st.floats(0.05, 0.95),
)
@settings(max_examples=60, deadline=None)
def test_weight_parts_reconstruction(coefs, brk):
    w = Weight([0.0, brk, 1.0], [coefs, coefs[::-1]])
    xs = np.linspace(0.0, 1.0, 97)
    np.testing.assert_allclose(
        w.pos_part()(xs) - w.neg_part()(xs), w(xs), atol=1e-10 * max(1.0, w.sup_norm())
    )


def test_weight_memoizes_extrema_and_parts(monkeypatch):
    m = sin_power_weight(UNIT, 1.5).affine(1.0, -0.2)
    assert m.neg_part() is m.neg_part()
    assert m.pos_part() is m.pos_part()
    assert m.antiderivative() is m.antiderivative()
    assert m.restrict(0.0, 1.0) is m
    assert m.restrict(0.2, 0.8) is m.restrict(0.2, 0.8)
    first = m.min_value()
    calls = []
    roots = core_types._real_roots_rows

    def counting(*args, **kwargs):
        calls.append(1)
        return roots(*args, **kwargs)

    monkeypatch.setattr(core_types, "_real_roots_rows", counting)
    assert m.min_value() == first
    m.sup_norm()
    top = m.max_value()
    assert calls == []
    assert top == -(m.affine(-1.0).min_value())
    calls.clear()
    # the two signed parts of a fresh weight share one root pass
    fresh = m.affine(1.0)
    fresh.pos_part()
    fresh.neg_part()
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# batched weight operations against per-piece numpy.polynomial references
#
# The references below are the per-piece loops the batched Weight replaced:
# one numpy.polynomial call per piece on unpadded coefficient vectors.  Every
# operation must agree with them bit for bit.

def _ref_shift(c, s):
    c = np.asarray(c, dtype=float)
    if s == 0.0:
        return c.copy()
    out = Polynomial(c)(Polynomial([s, 1.0])).coef
    return np.concatenate([out, np.zeros(max(len(c) - len(out), 0))])


def _ref_roots(c, width, tol_edge):
    c = np.asarray(c, dtype=float)
    amax = np.max(np.abs(c)) if c.size else 0.0
    if amax == 0.0:
        return []
    c = c / amax
    last = c.size - 1
    while last > 0 and abs(c[last]) <= 1e-14:
        last -= 1
    c = c[: last + 1]
    if c.size <= 1:
        return []
    real = []
    for z in P.polyroots(c):
        if abs(z.imag) <= 1e-9 * max(1.0, abs(z)):
            r = float(z.real)
            if tol_edge < r < width - tol_edge:
                real.append(r)
    real.sort()
    merged = []
    for r in real:
        if not merged or r - merged[-1] > tol_edge:
            merged.append(r)
    return merged


def _ref_call(breaks, coefs, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    idx = np.clip(np.searchsorted(breaks, x, side="left") - 1, 0, len(coefs) - 1)
    out = np.empty_like(x)
    for k, c in enumerate(coefs):
        sel = idx == k
        if np.any(sel):
            out[sel] = P.polyval(x[sel] - breaks[k], c)
    return out


def _ref_extrema(breaks, coefs):
    lo, hi = math.inf, -math.inf
    for k, c in enumerate(coefs):
        w = breaks[k + 1] - breaks[k]
        xs = [0.0, w] + _ref_roots(P.polyder(c), w, 1e-14 * w)
        vals = P.polyval(np.asarray(xs), c)
        lo = min(lo, float(np.min(vals)))
        hi = max(hi, float(np.max(vals)))
    return lo, hi


def _ref_signed_part(breaks, coefs, want_positive):
    out_breaks, out = [breaks[0]], []
    for k, c in enumerate(coefs):
        w = breaks[k + 1] - breaks[k]
        cuts = [0.0] + _ref_roots(c, w, 1e-12 * w) + [w]
        for j in range(len(cuts) - 1):
            last = k == len(coefs) - 1 and j == len(cuts) - 2
            end = breaks[-1] if last else breaks[k] + cuts[j + 1]
            if end <= out_breaks[-1]:
                # the cut rounds onto the end before it: an empty segment
                continue
            val = P.polyval(0.5 * (cuts[j] + cuts[j + 1]), c)
            if (val > 0.0) if want_positive else (val < 0.0):
                sub = _ref_shift(c, cuts[j])
                out.append(sub if want_positive else -sub)
            else:
                out.append(np.zeros(1))
            out_breaks.append(end)
    out_breaks[-1] = breaks[-1]
    return out_breaks, out


def _ref_antiderivative(breaks, coefs):
    run, out = 0.0, []
    for k, c in enumerate(coefs):
        F = P.polyint(c)
        F[0] = run
        run = float(P.polyval(breaks[k + 1] - breaks[k], F))
        out.append(F)
    return out


def _ref_integral(breaks, coefs, lo, hi):
    F = _ref_antiderivative(breaks, coefs)
    return float(_ref_call(breaks, F, hi)[0] - _ref_call(breaks, F, lo)[0])


def _ref_restrict(breaks, coefs, lo, hi):
    span = breaks[-1] - breaks[0]
    out_breaks, out = [lo], []
    for k, c in enumerate(coefs):
        s, e = max(breaks[k], lo), min(breaks[k + 1], hi)
        if e - s <= 1e-14 * span:
            continue
        out.append(_ref_shift(c, s - breaks[k]))
        out_breaks.append(e)
    out_breaks[0], out_breaks[-1] = lo, hi
    return out_breaks, out


def _padded(rows, width):
    out = np.zeros((len(rows), width))
    for k, r in enumerate(rows):
        r = np.asarray(r, dtype=float)
        assert not np.any(r[width:]), "nonzero coefficient beyond the stored width"
        out[k, : min(r.size, width)] = r[:width]
    return out


def _assert_same_weight(w, breaks, coefs):
    assert np.array_equal(w.breaks, np.asarray(breaks, dtype=float))
    width = max(w.coefs.shape[1], max(len(c) for c in coefs))
    assert np.array_equal(_padded(w.coefs, width), _padded(coefs, width))


def _assert_matches_per_piece_references(breaks, coefs):
    breaks = np.asarray(breaks, dtype=float)
    w = Weight(breaks, coefs)
    a, b = breaks[0], breaks[-1]
    xs = np.concatenate([breaks, 0.5 * (breaks[:-1] + breaks[1:]),
                         np.linspace(a - 0.1, b + 0.1, 203)])
    assert np.array_equal(w(xs), _ref_call(breaks, coefs, xs))
    assert w(xs[1]) == _ref_call(breaks, coefs, xs[1])[0]
    lo, hi = _ref_extrema(breaks, coefs)
    assert w.min_value() == lo and -(w.affine(-1.0).min_value()) == hi
    _assert_same_weight(w.pos_part(), *_ref_signed_part(breaks, coefs, True))
    _assert_same_weight(w.neg_part(), *_ref_signed_part(breaks, coefs, False))
    _assert_same_weight(w.antiderivative(), breaks, _ref_antiderivative(breaks, coefs))
    assert w.integral() == _ref_integral(breaks, coefs, a, b)
    for r0, r1 in ((0.1, 0.8), (0.0, 1.0), (0.5, 1.0)):
        rlo, rhi = a + r0 * (b - a), a + r1 * (b - a)
        assert w.integral(rlo, rhi) == _ref_integral(breaks, coefs, rlo, rhi)
        _assert_same_weight(w.restrict(rlo, rhi), *_ref_restrict(breaks, coefs, rlo, rhi))


def _reference_case(name):
    if name == "step":
        return [0.0, 0.25, 0.75, 1.0], [[-0.3], [1.0], [-0.3]]
    # the shifted variant changes sign, so its parts split pieces at roots
    shift = -0.6 * math.pi**2 if name == "sin-power-shifted" else 0.0
    m = sin_power_weight(UNIT, 0.5).affine(math.pi**2, shift)
    return m.breaks, list(m.coefs)


@pytest.mark.parametrize("name", ["sin-power", "sin-power-shifted", "step"])
def test_weight_operations_match_per_piece_references(name):
    breaks, coefs = _reference_case(name)
    if name == "sin-power-shifted":
        assert Weight(breaks, coefs).pos_part().npieces > len(coefs)
    _assert_matches_per_piece_references(breaks, coefs)


@st.composite
def _piece_lists(draw):
    k = draw(st.integers(1, 25))
    # narrow and wide pieces scale the Bernstein test's width^j terms
    widths = draw(st.lists(st.floats(1e-4, 10.0), min_size=k, max_size=k))
    breaks = np.concatenate([[draw(st.floats(-1.0, 1.0))], np.cumsum(widths)])
    breaks[1:] += breaks[0]
    # tiny values exercise the trimming of negligible leading coefficients
    coef = st.one_of(st.just(0.0), st.floats(-10.0, 10.0), st.sampled_from([1e-15, -3e-12]))
    coefs = []
    for w in np.diff(breaks):
        if draw(st.booleans()):
            coefs.append(draw(st.lists(coef, min_size=1, max_size=7)))
        else:
            # roots placed in and around the piece, repeated roots included
            roots = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.5, 1.0, 1.2]), max_size=6))
            scale = draw(st.floats(-5.0, 5.0))
            coefs.append(list(P.polyfromroots(np.asarray(roots) * w) * scale))
    return breaks, coefs


@given(_piece_lists())
@settings(max_examples=60, deadline=None)
def test_weight_operations_match_per_piece_references_on_drawn_weights(data):
    breaks, coefs = data
    if not np.all(np.diff(breaks) > 0):
        return
    _assert_matches_per_piece_references(breaks, coefs)


def test_weight_operations_call_no_per_piece_polynomial_routine(monkeypatch):
    m = sin_power_weight(UNIT, 1.5).affine(1.0, -0.2)
    assert m.npieces == 128

    def forbidden(*args, **kwargs):
        raise AssertionError("per-piece numpy.polynomial call")

    for name in ("polyval", "polyroots", "polyint", "polyder"):
        monkeypatch.setattr(P, name, forbidden)
    monkeypatch.setattr(Polynomial, "__call__", forbidden)
    m(np.linspace(0.0, 1.0, 101))
    m(0.3)
    assert m.min_value() < 0.0 < -(m.affine(-1.0).min_value()) and m.sup_norm() > 0.0
    for part in (m.pos_part(), m.neg_part()):
        assert part.npieces > m.npieces
        part.antiderivative().antiderivative()(0.5)
    m.antiderivative()
    m.integral()
    m.integral(0.2, 0.7)
    m.restrict(0.1, 0.9).sup_norm()
    m.affine(2.0, 1.0).min_value()


def test_weight_rejects_non_finite_data():
    with pytest.raises(ValueError, match="finite"):
        Weight([0.0, 0.5, 1.0], [[1.0], [0.0, math.nan]])
    with pytest.raises(ValueError, match="finite"):
        Weight([0.0, 1.0], [[-math.inf]])
    with pytest.raises(ValueError, match="finite"):
        Weight([0.0, math.inf], [[1.0]])
    with pytest.raises(ValueError, match="at least one coefficient"):
        Weight([0.0, 0.5, 1.0], [[1.0], []])
    with pytest.raises(ValueError, match="at least one coefficient"):
        Weight([0.0, 0.5, 1.0], [[], []])
    with pytest.raises(ValueError, match="at least one coefficient"):
        Weight([0.0, 1.0], np.zeros((1, 0)))


def test_weight_pads_coefficients_into_one_read_only_array():
    w = Weight([0.0, 0.5, 1.0], [[1.0], [2.0, 3.0, 0.0]])
    assert np.array_equal(w.coefs, [[1.0, 0.0], [2.0, 3.0]])
    assert w.npieces == 2
    with pytest.raises(ValueError):
        w.coefs[0, 0] = 5.0


# ---------------------------------------------------------------------------
# negative-mass antiderivatives: F(y) = int_a^y (m^- + eps), G = int F

def test_cumulative_left_nonneg_weight_is_zero():
    w = step_weight(UNIT, Interval(0.25, 0.75), 1.0, 0.0)
    F, G = _mass_integrals(w, 0.0)
    assert F.is_zero() and G.is_zero()


def test_cumulative_left_constant_negative():
    F, _ = _mass_integrals(Weight.constant(-1.0, UNIT), 0.0)
    xs = np.linspace(0.0, 1.0, 33)
    np.testing.assert_allclose(F(xs), xs, atol=1e-15)


def test_cumulative_left_piecewise():
    w = Weight([0.0, 0.5, 1.0], [[-2.0], [0.0]])
    F, _ = _mass_integrals(w, 0.0)
    assert F(1.0) == pytest.approx(1.0, abs=1e-14)
    assert F(0.25) == pytest.approx(0.5, abs=1e-14)


def test_cumulative_right_mirror():
    # the tail int_z^b (m^- + eps) is F(b) - F(z)
    F, _ = _mass_integrals(Weight.constant(-1.0, UNIT), 0.0)
    zs = np.linspace(0.0, 1.0, 33)
    np.testing.assert_allclose(F(1.0) - F(zs), 1.0 - zs, atol=1e-15)


def test_cumulative_symmetric_reflection():
    w = step_weight(UNIT, Interval(0.4, 0.6), 1.0, -2.0)
    F, _ = _mass_integrals(w, 0.0)
    for t in (0.1, 0.37, 0.5, 0.85):
        assert F(1.0) - F(t) == pytest.approx(F(1.0 - t), abs=1e-13)


def test_cumulative_eps_shift():
    w = step_weight(UNIT, Interval(0.25, 0.75), 1.0, -0.5)
    F0, G0 = _mass_integrals(w, 0.0)
    F1, G1 = _mass_integrals(w, 0.01)
    ys = np.linspace(0.0, 1.0, 41)
    np.testing.assert_allclose(F1(ys) - F0(ys), 0.01 * ys, atol=1e-14)
    np.testing.assert_allclose(G1(ys) - G0(ys), 0.005 * ys**2, atol=1e-14)


def test_cumulative_monotone():
    w = Weight([0.0, 0.6, 1.0], [[0.2, -1.5], [1.0]])
    F, _ = _mass_integrals(w, 1e-3)
    xs = Grid.uniform(UNIT, 64).with_points(w.breaks[1:-1]).nodes
    assert np.all(np.diff(F(xs)) > 0)
    F0, _ = _mass_integrals(w, 0.0)
    assert np.all(np.diff(F0(1.0) - F0(xs)) <= 1e-15)


# ---------------------------------------------------------------------------
# integrals of the cumulative mass

def test_integrate_of_cumulative():
    F, G = _mass_integrals(Weight.constant(-1.0, UNIT), 0.0)
    g = Grid.uniform(UNIT, DEFAULT_N)
    assert np.trapezoid(F(g.nodes), g.nodes) == pytest.approx(0.5, rel=1e-12)
    assert G(1.0) == pytest.approx(0.5, rel=1e-15)


# ---------------------------------------------------------------------------
# problem validation

def _toy_problem(**kw):
    m = step_weight(UNIT, Interval(0.25, 0.75), 1.0, -0.5)
    args = dict(
        p=2.5, q=1.0, domain=UNIT, m=m, c=Weight.constant(0.1, UNIT),
        window=Interval(0.25, 0.75),
    )
    args.update(kw)
    return Problem(**args)


def test_problem_accepts_valid():
    prob = _toy_problem()
    assert prob.window.length() == 0.5


@pytest.mark.parametrize("bad", [dict(p=1.0), dict(q=0.0), dict(q=1.5), dict(q=2.0),
                                 dict(p=math.inf), dict(p=math.nan), dict(q=math.nan)])
def test_problem_rejects_exponents(bad):
    with pytest.raises(ValueError):
        _toy_problem(**bad)


def test_problem_rejects_negative_m_on_window():
    with pytest.raises(ValueError):
        _toy_problem(window=Interval(0.1, 0.75))


def test_problem_rejects_negative_c_without_flag():
    c = Weight.constant(-0.1, UNIT)
    with pytest.raises(ValueError):
        _toy_problem(c=c)
    prob = _toy_problem(c=c, allow_sign_changing_c=True)
    assert prob.c_plus.sup_norm() == 0.0


def test_problem_rejects_m_zero_on_window():
    m = step_weight(UNIT, Interval(0.25, 0.75), 0.0, -0.5)
    with pytest.raises(ValueError):
        _toy_problem(m=m)


# ---------------------------------------------------------------------------
# assembly plan

def _hat(nodes, i):
    def f(x):
        x = np.asarray(x, float)
        out = np.zeros_like(x)
        if i > 0:
            m = (x >= nodes[i - 1]) & (x <= nodes[i])
            out[m] = (x[m] - nodes[i - 1]) / (nodes[i] - nodes[i - 1])
        if i < len(nodes) - 1:
            m = (x >= nodes[i]) & (x <= nodes[i + 1])
            out[m] = (nodes[i + 1] - x[m]) / (nodes[i + 1] - nodes[i])
        return out
    return f


def test_load_vector_matches_quad():
    # 0.3 + 2 x^2 on the second piece, in the local coordinate x - 0.4
    w = Weight([0.0, 0.4, 1.0], [[1.0, -2.0], [0.62, 1.6, 2.0]])
    g = Grid.uniform(UNIT, 13)
    u = np.abs(np.sin(3.0 * g.nodes))
    u[0] = u[-1] = 0.0
    uf = GridFunction(g, u)
    plan = AssemblyPlan(g, {"w": w})
    for r in (0.5, 1.3, 2.0):
        lv = plan.load_vector("w", u, r)
        for i in (0, 1, 5, 9, 13):
            hat = _hat(g.nodes, i)
            lo = g.nodes[max(i - 1, 0)]
            hi = g.nodes[min(i + 1, g.n)]
            cuts = sorted({lo, hi, g.nodes[i]} | ({0.4} if lo < 0.4 < hi else set()))
            ref = sum(
                quad(lambda x: w(x) * uf(x) ** r * hat(np.array([x]))[0], aa, bb,
                     limit=200, epsabs=1e-14, epsrel=1e-13)[0]
                for aa, bb in zip(cuts[:-1], cuts[1:])
            )
            assert lv[i] == pytest.approx(ref, rel=2e-11, abs=1e-14)


def test_load_vector_sums_to_integral():
    w = Weight.constant(2.0, UNIT)
    g = Grid.uniform(UNIT, 32)
    u = g.nodes * (1.0 - g.nodes)
    plan = AssemblyPlan(g, {"w": w})
    # the plan integrates the piecewise-linear interpolant, so compare with
    # the trapezoid value of u, not with the parabola's 1/6
    ref = 2.0 * float(np.sum(0.5 * (u[:-1] + u[1:]) * g.h))
    assert float(np.sum(plan.load_vector("w", u, 1.0))) == pytest.approx(ref, rel=1e-13)


def test_load_vector_tiny_variation_no_cancellation():
    # nearly flat u stresses the quadrature branch; closed form would cancel
    # badly.  u^2 times a hat is a cubic on each cell, so 2-point
    # Gauss-Legendre per cell is an exact reference
    w = Weight.constant(1.0, UNIT)
    g = Grid.uniform(UNIT, 4)
    u = 1.0 + 1e-9 * np.array([0.0, 1.0, -1.0, 0.5, 0.0])
    plan = AssemblyPlan(g, {"w": w})
    lv = plan.load_vector("w", u, 2.0)
    xi, wi = np.polynomial.legendre.leggauss(2)
    uf = GridFunction(g, u)
    for i in (1, 2, 3):
        hat = _hat(g.nodes, i)
        ref = 0.0
        for j in (i - 1, i):
            half = 0.5 * (g.nodes[j + 1] - g.nodes[j])
            x = g.nodes[j] + half * (1.0 + xi)
            ref += half * float(np.sum(wi * uf(x) ** 2 * hat(x)))
        assert lv[i] == pytest.approx(ref, rel=1e-13)


def test_load_vector_zero_power_gives_hat_masses():
    g = Grid.uniform(UNIT, 9)
    plan = AssemblyPlan(g, {"one": Weight.constant(1.0, UNIT)})
    lv = plan.load_vector("one", np.ones(g.n + 1), 0.0)
    np.testing.assert_allclose(lv, g.hat_masses(), rtol=1e-14)


def test_mass_tridiag_row_sums():
    # sum_j M_ij equals the load vector at the same power (partition of unity)
    w = Weight([0.0, 0.5, 1.0], [[1.0, 1.0], [2.0]])
    g = Grid.uniform(UNIT, 16)
    u = 0.2 + g.nodes ** 2
    plan = AssemblyPlan(g, {"w": w})
    diag, off = plan.mass_tridiag("w", u, 1.5)
    rows = diag.copy()
    rows[:-1] += off
    rows[1:] += off
    lv = plan.load_vector("w", u, 1.5)
    np.testing.assert_allclose(rows, lv, rtol=1e-9, atol=1e-13)


@given(
    st.lists(st.floats(0.0, 3.0), min_size=5, max_size=9),
    st.floats(0.3, 2.5),
)
@settings(max_examples=40, deadline=None)
def test_load_vector_total_matches_quad(vals, r):
    g = Grid.uniform(UNIT, len(vals) - 1)
    u = np.asarray(vals)
    uf = GridFunction(g, u)
    plan = AssemblyPlan(g, {"w": Weight.constant(1.0, UNIT)})
    total = float(np.sum(plan.load_vector("w", u, r)))
    ref = sum(
        quad(lambda x: uf(x) ** r, g.nodes[j], g.nodes[j + 1], epsabs=1e-13, epsrel=1e-12)[0]
        for j in range(g.n)
    )
    assert total == pytest.approx(ref, rel=1e-9, abs=1e-11)


def _random_piecewise_weight(rng, npieces):
    breaks = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, npieces - 1)]))
    coefs = []
    for _ in range(npieces):
        c = rng.normal(size=int(rng.integers(0, 7)) + 1)
        c *= 10.0 ** rng.integers(-3, 3, size=c.size)
        coefs.append(c)
    return Weight(breaks, coefs)


def _named_weight(name):
    return {
        "sin-power": sin_power_weight(UNIT, 1.7),
        "step": step_weight(UNIT, Interval(0.25, 0.75), 1.0, -0.3),
        "random": _random_piecewise_weight(np.random.default_rng(7), 23),
    }[name]


def _gauss_powers(ulo, uhi, r):
    T = np.maximum(ulo[:, None] + (uhi - ulo)[:, None] * core_types._XI[None, :], 0.0)
    if r < 0:
        return np.where(T > 0, T, 1.0) ** r * (T > 0)
    return T ** r


@pytest.mark.parametrize("name", ["sin-power", "step", "random"])
def test_assembly_tables_match_per_subcell_polynomial_composition(name):
    w = _named_weight(name)
    g = Grid.uniform(UNIT, 512).with_points([0.3, 0.77])
    plan = AssemblyPlan(g, {"w": w})
    # reference: each subcell's piece composed with its affine map xi ->
    # s + wsub*xi through numpy.polynomial, one subcell at a time
    piece = w.piece_index(0.5 * (plan.sub_lo + plan.sub_hi))
    WB = np.zeros((plan.sub_lo.size, max(c.size for c in w.coefs)))
    for s, k in enumerate(piece):
        shift = plan.sub_lo[s] - w.breaks[k]
        coef = Polynomial(w.coefs[k])(Polynomial([shift, plan.wsub[s]])).coef
        WB[s, : coef.size] = coef
    lo = (g.nodes[plan.parent + 1] - plan.sub_lo) / g.h[plan.parent]
    hi = (g.nodes[plan.parent + 1] - plan.sub_hi) / g.h[plan.parent]
    left, right = (lo, hi - lo), (1.0 - lo, lo - hi)
    WL = core_types._mul_linear(WB, *left)
    WR = core_types._mul_linear(WB, *right)
    ref = {
        "L": WL,
        "R": WR,
        "LL": core_types._mul_linear(WL, *left),
        "LR": core_types._mul_linear(WL, *right),
        "RR": core_types._mul_linear(WR, *right),
    }
    for key in ("L", "R"):
        assert np.array_equal(plan.tables["w"][key], ref[key]), key
    # mass_tridiag applies the second hat at the Gauss nodes; it must agree
    # with the hat-product tables integrated by the same Gauss rule
    u = 0.2 + np.sin(3.0 * g.nodes) ** 2
    ulo, uhi = plan._sub_values(u)
    Tr = _gauss_powers(ulo, uhi, 0.5)
    diag = np.zeros(g.n + 1)
    off = np.zeros(g.n)
    for key, target, idx in (("LL", diag, plan.parent), ("RR", diag, plan.parent + 1),
                             ("LR", off, plan.parent)):
        V = core_types._horner_rows(ref[key], core_types._XI)
        np.add.at(target, idx, plan.wsub * ((V * Tr) @ core_types._WG))
    got_diag, got_off = plan.mass_tridiag("w", u, 0.5)
    scale = float(np.max(np.abs(diag)))
    np.testing.assert_allclose(got_diag, diag, rtol=1e-13, atol=1e-15 * scale)
    np.testing.assert_allclose(got_off, off, rtol=1e-13, atol=1e-15 * scale)


def _ref_subcell_points(grid, weights):
    # the break insertion AssemblyPlan carried itself before it used
    # Grid.with_points: every interior break farther than 1e-13 * span from
    # the nodes around it
    nodes = grid.nodes
    a, b = nodes[0], nodes[-1]
    extra = []
    for w in weights:
        for br in w.breaks:
            if a < br < b:
                j = np.searchsorted(nodes, br)
                if min(br - nodes[j - 1], nodes[j] - br) > 1e-13 * (b - a):
                    extra.append(br)
    return np.unique(np.concatenate([nodes, extra])) if extra else nodes


@pytest.mark.parametrize("name", ["sin-power", "step", "random"])
def test_assembly_subcells_cut_the_grid_at_weight_breaks(name):
    g = Grid.uniform(UNIT, 512).with_points([0.3, 0.77])
    # 0.5 is a node: the first break is within 1e-13 of it, the second is not
    near = Weight([0.0, 0.5 + 5e-14, 0.5 + 3e-13, 1.0], [[1.0], [2.0], [3.0]])
    weights = {"w": _named_weight(name), "near": near}
    plan = AssemblyPlan(g, weights)
    pts = _ref_subcell_points(g, weights.values())
    assert 0.5 + 3e-13 in pts and 0.5 + 5e-14 not in pts
    assert np.array_equal(plan.sub_lo, pts[:-1])
    assert np.array_equal(plan.sub_hi, pts[1:])


@pytest.mark.parametrize("name", ["sin-power", "step", "random"])
def test_gauss_node_tables_are_the_tables_at_the_nodes(name):
    plan = AssemblyPlan(Grid.uniform(UNIT, 256).with_points([0.3]), {"w": _named_weight(name)})
    for key in ("L", "R"):
        ref = core_types._horner_rows(plan.tables["w"][key], core_types._XI)
        assert np.array_equal(plan.at_gauss["w"][key], ref), key


def _reference_moment(plan, W, ulo, uhi, r):
    # one hat's moments with a per-call Horner evaluation of its table
    du = uhi - ulo
    denom = np.abs(ulo) + np.abs(uhi)
    delta = np.where(denom > 0, np.abs(du) / np.where(denom > 0, denom, 1.0), 0.0)
    closed = (delta >= plan._CLOSED_DELTA) & (np.abs(du) > 1e-200)
    out = np.empty(ulo.size)
    g = ~closed
    if np.any(g):
        V = core_types._horner_rows(W[g], core_types._XI)
        out[g] = (V * _gauss_powers(ulo[g], uhi[g], r)) @ core_types._WG
    if np.any(closed):
        ul, uh, duc, Wc = ulo[closed], uhi[closed], du[closed], W[closed]
        e = r + 1.0 + np.arange(W.shape[1])
        M = (uh[:, None] ** e[None, :] - ul[:, None] ** e[None, :]) / e[None, :]
        acc = np.zeros(ul.size)
        for i in range(W.shape[1]):
            vi = np.zeros(ul.size)
            for j in range(i, W.shape[1]):
                vi += Wc[:, j] / duc ** j * math.comb(j, i) * (-ul) ** (j - i)
            acc += vi * M[:, i]
        out[closed] = acc / duc
    return plan.wsub * out


@pytest.mark.parametrize("name", ["sin-power", "step", "random"])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.7])
def test_load_vector_is_bit_identical_to_per_call_horner(name, r):
    g = Grid.uniform(UNIT, 512).with_points([0.3, 0.77])
    plan = AssemblyPlan(g, {"w": _named_weight(name)})
    x = g.nodes
    # vanishing ends and an interior zero patch exercise the closed form
    u = np.sin(np.pi * x) ** 0.7 * np.maximum(np.cos(5.0 * np.pi * x), 0.0)
    u[0] = u[-1] = 0.0
    ulo, uhi = plan._sub_values(u)
    ref = np.zeros(g.n + 1)
    np.add.at(ref, plan.parent, _reference_moment(plan, plan.tables["w"]["L"], ulo, uhi, r))
    np.add.at(ref, plan.parent + 1, _reference_moment(plan, plan.tables["w"]["R"], ulo, uhi, r))
    assert np.array_equal(plan.load_vector("w", u, r), ref)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("rule", ["q", "p-1"])
def test_nodal_identity_gives_the_energy_integral(p, rule):
    # u = sum_i u_i hat_i, so u @ load_vector(w, u, r) = int w u^(r+1)
    w = step_weight(UNIT, Interval(0.25, 0.75), 1.0, -0.3)
    g = Grid.uniform(UNIT, 512)
    plan = AssemblyPlan(g, {"w": w})
    u = np.sin(np.pi * g.nodes) ** 0.8
    u[0] = u[-1] = 0.0
    r = 0.5 * (p - 1.0) if rule == "q" else p - 1.0
    total = float(np.sum(plan.load_vector("w", u, r + 1.0)))
    assert float(u @ plan.load_vector("w", u, r)) == pytest.approx(total, rel=1e-13)


def test_assembly_plan_build_does_not_evaluate_polynomial_objects(monkeypatch):
    def forbidden(self, arg):
        raise AssertionError("per-subcell numpy.polynomial evaluation")

    w = sin_power_weight(UNIT, 1.5)
    monkeypatch.setattr(Polynomial, "__call__", forbidden)
    plan = AssemblyPlan(Grid.uniform(UNIT, 2048), {"m": w})
    assert plan.tables["m"]["L"].shape[0] >= 2048
