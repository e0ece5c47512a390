import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy.integrate import quad

from plap1d import core_types
from plap1d.core_types import (
    AssemblyPlan,
    Grid,
    GridFunction,
    Interval,
    Problem,
    Weight,
    cumulative_negative_left,
    cumulative_negative_right,
    integrate,
    p_conjugate,
    phi_p,
    sin_power_weight,
    step_weight,
)

UNIT = Interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# scalars

def test_p_conjugate_values():
    assert p_conjugate(2.0) == 2.0
    assert p_conjugate(3.0) == 1.5
    assert np.isclose(p_conjugate(4.0 / 3.0), 4.0, rtol=1e-14)


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
def test_p_conjugate_rejects_bad_exponent(p):
    with pytest.raises(ValueError):
        p_conjugate(p)


def test_phi_p_odd_and_zero():
    assert phi_p(0.0, 1.5) == 0.0
    assert phi_p(-2.0, 3.0) == -4.0
    np.testing.assert_allclose(phi_p(np.array([2.0, -2.0]), 2.5), [2.0 ** 1.5, -(2.0 ** 1.5)])


@given(st.floats(1.01, 20.0))
def test_p_conjugate_identity(p):
    pp = p_conjugate(p)
    assert abs(1.0 / p + 1.0 / pp - 1.0) < 1e-12


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
    w = Weight.from_global_pieces([((0.0, 0.5), [1.0]), ((0.5, 1.0), [2.0])])
    assert w(0.25) == 1.0
    assert w(0.5) == 1.0  # breakpoint takes the left piece
    assert w(0.75) == 2.0
    assert w(0.0) == 1.0


def test_weight_parts_of_linear():
    # w(x) = x - 0.3 changes sign inside the single piece
    w = Weight.from_global_pieces([((0.0, 1.0), [-0.3, 1.0])])
    pos, neg = w.pos_part(), w.neg_part()
    xs = np.linspace(0.0, 1.0, 211)
    np.testing.assert_allclose(pos(xs) - neg(xs), w(xs), atol=1e-14)
    np.testing.assert_allclose(pos(xs) * neg(xs), 0.0, atol=1e-20)
    np.testing.assert_allclose(pos(xs), np.maximum(w(xs), 0.0), atol=1e-14)
    assert any(abs(b - 0.3) < 1e-12 for b in pos.breaks)


def test_weight_parts_quadratic_two_roots():
    # (x-0.2)(x-0.7) = 0.14 - 0.9 x + x^2
    w = Weight.from_global_pieces([((0.0, 1.0), [0.14, -0.9, 1.0])])
    neg = w.neg_part()
    assert neg(0.45) == pytest.approx(-w(0.45), rel=1e-13)
    assert neg(0.1) == 0.0 and neg(0.9) == 0.0
    assert w.min_value() == pytest.approx(w(0.45), rel=1e-13)
    assert w.max_value() == pytest.approx(0.24, rel=1e-13)  # attained at x=1


def test_weight_supnorm_interior_extremum():
    # x(1-x) has its max 0.25 at an interior critical point
    w = Weight.from_global_pieces([((0.0, 1.0), [0.0, 1.0, -1.0])])
    assert w.sup_norm() == pytest.approx(0.25, abs=1e-15)


def test_step_weight_shape():
    w = step_weight(UNIT, Interval(0.25, 0.75), 1.0, -0.5)
    assert w(0.5) == 1.0
    assert w(0.1) == -0.5 and w(0.9) == -0.5
    assert w.sup_norm() == 1.0
    assert w.neg_part()(0.1) == 0.5


def test_weight_antiderivative_and_integral():
    w = Weight.from_global_pieces([((0.0, 0.5), [0.0, 2.0]), ((0.5, 1.0), [1.0])])
    F = w.antiderivative()
    assert F(0.0) == 0.0
    assert F(0.5) == pytest.approx(0.25, abs=1e-15)
    assert F(1.0) == pytest.approx(0.75, abs=1e-15)
    assert w.integral(0.25, 0.75) == pytest.approx(0.25 - 0.0625 + 0.25, abs=1e-14)


def test_weight_restrict():
    w = Weight.from_global_pieces([((0.0, 0.5), [0.0, 2.0]), ((0.5, 1.0), [1.0])])
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


@given(
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    st.floats(0.05, 0.95),
)
@settings(max_examples=60, deadline=None)
def test_weight_parts_reconstruction(coefs, brk):
    w = Weight.from_global_pieces([((0.0, brk), coefs), ((brk, 1.0), coefs[::-1])])
    xs = np.linspace(0.0, 1.0, 97)
    np.testing.assert_allclose(
        w.pos_part()(xs) - w.neg_part()(xs), w(xs), atol=1e-10 * max(1.0, w.sup_norm())
    )


def test_weight_memoizes_extrema_and_parts(monkeypatch):
    m = sin_power_weight(UNIT, 1.5).affine(1.0, -0.2)
    assert m.neg_part() is m.neg_part()
    assert m.pos_part() is m.pos_part()
    first = m.min_value()
    calls = []
    roots = core_types._real_roots_in

    def counting(*args, **kwargs):
        calls.append(1)
        return roots(*args, **kwargs)

    monkeypatch.setattr(core_types, "_real_roots_in", counting)
    assert m.min_value() == first
    m.max_value(), m.sup_norm()
    assert calls == []


# ---------------------------------------------------------------------------
# cumulative negative-part integrals

def test_cumulative_left_nonneg_weight_is_zero():
    w = step_weight(UNIT, Interval(0.25, 0.75), 1.0, 0.0)
    M = cumulative_negative_left(w, 0.0, 1.0)
    assert M.sup_norm() == 0.0


def test_cumulative_left_constant_negative():
    w = Weight.constant(-1.0, UNIT)
    M = cumulative_negative_left(w, 0.0, 1.0)
    np.testing.assert_allclose(M.values, M.grid.nodes, atol=1e-15)


def test_cumulative_left_piecewise():
    w = Weight.from_global_pieces([((0.0, 0.5), [-2.0]), ((0.5, 1.0), [0.0])])
    M = cumulative_negative_left(w, 0.0, 1.0)
    assert M(1.0) == pytest.approx(1.0, abs=1e-14)
    assert M(0.25) == pytest.approx(0.5, abs=1e-14)


def test_cumulative_right_mirror():
    w = Weight.constant(-1.0, UNIT)
    M = cumulative_negative_right(w, 0.0, 0.0)
    np.testing.assert_allclose(M.values, 1.0 - M.grid.nodes, atol=1e-15)


def test_cumulative_symmetric_reflection():
    w = step_weight(UNIT, Interval(0.4, 0.6), 1.0, -2.0)
    Ml = cumulative_negative_left(w, 0.0, 1.0)
    Mr = cumulative_negative_right(w, 0.0, 0.0)
    for t in (0.1, 0.37, 0.5, 0.85):
        assert Mr(t) == pytest.approx(Ml(1.0 - t), abs=1e-13)


def test_cumulative_eps_shift():
    w = step_weight(UNIT, Interval(0.25, 0.75), 1.0, -0.5)
    M0 = cumulative_negative_left(w, 0.0, 1.0)
    M1 = cumulative_negative_left(w, 0.01, 1.0)
    ys = np.linspace(0.0, 1.0, 41)
    np.testing.assert_allclose(M1(ys) - M0(ys), 0.01 * ys, atol=1e-14)


def test_cumulative_range_errors():
    w = Weight.constant(-1.0, UNIT)
    with pytest.raises(ValueError):
        cumulative_negative_left(w, 0.0, 1.5)
    with pytest.raises(ValueError):
        cumulative_negative_right(w, 0.0, -0.5)
    with pytest.raises(ValueError):
        cumulative_negative_left(w, -0.1, 1.0)


def test_cumulative_monotone():
    w = Weight.from_global_pieces([((0.0, 0.6), [0.2, -1.5]), ((0.6, 1.0), [1.0])])
    M = cumulative_negative_left(w, 1e-3, 1.0)
    assert np.all(np.diff(M.values) > 0)
    Mr = cumulative_negative_right(w, 0.0, 0.0)
    assert np.all(np.diff(Mr.values) <= 1e-15)


# ---------------------------------------------------------------------------
# integrate

def test_integrate_constants_and_linear():
    assert integrate(Weight.constant(1.0, UNIT), 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    w = Weight.from_global_pieces([((0.0, 1.0), [0.0, 1.0])])
    assert integrate(w, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert integrate(lambda x: np.asarray(x) ** 2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_integrate_of_cumulative():
    M = cumulative_negative_left(Weight.constant(-1.0, UNIT), 0.0, 1.0)
    assert integrate(M, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_integrate_additive():
    w = Weight.from_global_pieces([((0.0, 0.3), [1.0, 1.0]), ((0.3, 1.0), [-0.5, 0.0, 2.0])])
    whole = integrate(w, 0.0, 1.0)
    parts = integrate(w, 0.0, 0.44) + integrate(w, 0.44, 1.0)
    assert abs(whole - parts) <= 1e-12 * max(1.0, abs(whole))


def test_integrate_rejects_reversed_range():
    with pytest.raises(ValueError):
        integrate(Weight.constant(1.0, UNIT), 0.7, 0.3)


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


@pytest.mark.parametrize("bad", [dict(p=1.0), dict(q=0.0), dict(q=1.5), dict(q=2.0)])
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
    w = Weight.from_global_pieces([((0.0, 0.4), [1.0, -2.0]), ((0.4, 1.0), [0.3, 0.0, 2.0])])
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
    # nearly flat u stresses the quadrature branch; closed form would cancel badly
    w = Weight.constant(1.0, UNIT)
    g = Grid.uniform(UNIT, 4)
    u = 1.0 + 1e-9 * np.array([0.0, 1.0, -1.0, 0.5, 0.0])
    plan = AssemblyPlan(g, {"w": w})
    lv = plan.load_vector("w", u, 2.0)
    for i in (1, 2, 3):
        hat = _hat(g.nodes, i)
        uf = GridFunction(g, u)
        ref = sum(
            quad(lambda x: uf(x) ** 2 * hat(np.array([x]))[0], g.nodes[j], g.nodes[j + 1],
                 epsabs=1e-16, epsrel=1e-14)[0]
            for j in (i - 1, i)
        )
        assert lv[i] == pytest.approx(ref, rel=1e-13)


def test_load_vector_zero_power_gives_hat_masses():
    g = Grid.uniform(UNIT, 9)
    plan = AssemblyPlan(g, {"one": Weight.constant(1.0, UNIT)})
    lv = plan.load_vector("one", np.ones(g.n + 1), 0.0)
    np.testing.assert_allclose(lv, g.hat_masses(), rtol=1e-14)


def test_mass_tridiag_row_sums():
    # sum_j M_ij equals the load vector at the same power (partition of unity)
    w = Weight.from_global_pieces([((0.0, 0.5), [1.0, 1.0]), ((0.5, 1.0), [2.0])])
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
