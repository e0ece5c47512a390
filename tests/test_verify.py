import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap1d.core_types import (
    Grid,
    GridFunction,
    Interval,
    Problem,
    Weight,
    phi_p,
    sin_power_weight,
    step_weight,
)
from plap1d.eigen import principal_eigenvalue
from plap1d.verify import (
    check_weak_subsolution,
    check_weak_supersolution,
    default_certificate_tol,
    solution_residual,
    weak_form_values,
)

UNIT = Interval(0.0, 1.0)


def unit_problem(p, q, m, c=None):
    if c is None:
        c = Weight.constant(0.0, UNIT)
    return Problem(p=p, q=q, domain=UNIT, m=m, c=c, window=UNIT)


def constant_fn(grid, value):
    return GridFunction(grid, np.full(grid.nodes.size, float(value)))


class TestSubsolution:
    def test_zero_passes_with_zero_margin(self):
        g = Grid.uniform(UNIT, 128)
        prob = unit_problem(2.5, 1.0, Weight.constant(1.0, UNIT))
        rep = check_weak_subsolution(GridFunction(g, np.zeros(129)), prob)
        assert rep.passed
        assert rep.worst_value == 0.0

    def test_small_sine_is_subsolution(self):
        # p=2, c=0, m=1: pi^2 v <= sqrt(v) holds for v <= pi^-4
        g = Grid.uniform(UNIT, 1024)
        amp = 0.9 / np.pi**4
        v = GridFunction(g, amp * np.sin(np.pi * g.nodes))
        prob = unit_problem(2.0, 0.5, Weight.constant(1.0, UNIT))
        rep = check_weak_subsolution(v, prob)
        assert rep.passed

    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_eigenfunction_piece_passes(self, factor):
        # the scaled eigenfunction satisfies the inequality for weight tau*m
        # whenever tau >= lambda1, since phi <= 1
        p, q = 2.6, 1.2
        c = Weight.constant(0.3, UNIT)
        m = Weight.constant(1.0, UNIT)
        pair = principal_eigenvalue(p, c, m, UNIT)
        tau = factor * pair.lambda1
        prob = unit_problem(p, q, m.affine(tau, 0.0), c)
        rep = check_weak_subsolution(pair.phi, prob)
        assert rep.passed

    def test_supersolution_fails_sub_check(self):
        g = Grid.uniform(UNIT, 512)
        v = 0.5 * g.nodes * (1.0 - g.nodes)
        w = GridFunction(g, (9.0 / 8.0) * (v + 1.0))
        prob = unit_problem(2.0, 0.5, Weight.constant(1.0, UNIT))
        rep = check_weak_subsolution(w, prob)
        assert not rep.passed
        assert rep.worst_value > 0.0

    def test_nonvanishing_boundary_is_rejected(self):
        g = Grid.uniform(UNIT, 64)
        prob = unit_problem(2.0, 0.5, Weight.constant(1.0, UNIT))
        rep = check_weak_subsolution(constant_fn(g, 0.2), prob)
        assert not rep.passed
        assert "boundary" in rep.note


    def test_negative_node_is_rejected(self):
        g = Grid.uniform(UNIT, 64)
        vals = 1e-3 * np.sin(np.pi * g.nodes)
        vals[32] = -1e-3
        prob = unit_problem(2.0, 0.5, Weight.constant(1.0, UNIT))
        rep = check_weak_subsolution(GridFunction(g, vals), prob)
        assert not rep.passed
        assert rep.note == "subsolution must be nonnegative"


class TestSupersolution:
    def make_remark_supersolution(self, n=512, k=9.0 / 8.0):
        g = Grid.uniform(UNIT, n)
        v = 0.5 * g.nodes * (1.0 - g.nodes)
        return GridFunction(g, k * (v + 1.0))

    def test_shifted_torsion_profile_passes(self):
        # p=2, c=0, q=1/2, m=1: w = k(v+1) with -v'' = 1 and k = (1+max v)^{q/(p-1-q)}
        w = self.make_remark_supersolution()
        prob = unit_problem(2.0, 0.5, Weight.constant(1.0, UNIT))
        rep = check_weak_supersolution(w, prob)
        assert rep.passed

    def test_undersized_multiple_fails(self):
        w = self.make_remark_supersolution(k=0.5)
        prob = unit_problem(2.0, 0.5, Weight.constant(1.0, UNIT))
        rep = check_weak_supersolution(w, prob)
        assert not rep.passed

    def test_constant_passes_iff_reaction_dominated(self):
        g = Grid.uniform(UNIT, 256)
        c = Weight.constant(2.0, UNIT)
        m = Weight.constant(1.0, UNIT)
        prob = unit_problem(2.5, 0.5, m, c)
        # 2 K^{1.5} >= K^{0.5} iff K >= 1/2
        assert check_weak_supersolution(constant_fn(g, 1.0), prob).passed
        assert not check_weak_supersolution(constant_fn(g, 0.1), prob).passed

    def test_constant_fails_without_c(self):
        g = Grid.uniform(UNIT, 256)
        prob = unit_problem(2.5, 0.5, Weight.constant(1.0, UNIT))
        rep = check_weak_supersolution(constant_fn(g, 5.0), prob)
        assert not rep.passed

    def test_negative_node_is_rejected(self):
        # the remark's supersolution, which passes, with one node negated
        w = self.make_remark_supersolution(n=64)
        w.values[32] = -w.values[32]
        prob = unit_problem(2.0, 0.5, Weight.constant(1.0, UNIT))
        rep = check_weak_supersolution(w, prob)
        assert not rep.passed
        assert rep.note == "supersolution must be nonnegative"

    def test_zero_is_a_trivial_certificate(self):
        g = Grid.uniform(UNIT, 64)
        prob = unit_problem(2.0, 0.5, Weight.constant(1.0, UNIT))
        rep = check_weak_supersolution(GridFunction(g, np.zeros(65)), prob)
        assert not rep.passed
        assert "trivial" in rep.note


class TestSolutionResidual:
    def test_manufactured_solution_small_residual_both_levels(self):
        # u = sin(pi x) solves -u'' = m u^q exactly for m = pi^2 sin(pi x)^{1-q};
        # with m replaced by its piecewise-cubic fit the residual is bounded by
        # the sup of the fit error at every resolution (finer hats localize
        # onto the worst fitted cell near the endpoints, so it grows toward
        # that sup rather than to zero)
        m = sin_power_weight(UNIT, 0.5).affine(np.pi**2, 0.0)
        prob = unit_problem(2.0, 0.5, m)
        residuals = []
        for n in (512, 1024):
            g = Grid.uniform(UNIT, n)
            u = GridFunction(g, np.sin(np.pi * g.nodes))
            residuals.append(solution_residual(u, prob))
        r1, r2 = residuals
        assert r1 <= 2e-2
        assert r2 <= 2e-2
        assert abs(r1 - r2) <= 2.0 / 512.0

    def test_subsolution_is_not_a_solution(self):
        g = Grid.uniform(UNIT, 512)
        amp = 0.9 / np.pi**4
        u = GridFunction(g, amp * np.sin(np.pi * g.nodes))
        prob = unit_problem(2.0, 0.5, Weight.constant(1.0, UNIT))
        assert check_weak_subsolution(u, prob).passed
        assert solution_residual(u, prob) > 1e-3


class TestProperties:
    def test_default_tol_scaling(self):
        assert default_certificate_tol(4096) == pytest.approx(1e-3)
        assert default_certificate_tol(8192) == pytest.approx(5e-4)

    @given(
        s=st.floats(0.05, 1.0),
        p=st.floats(1.6, 3.5),
    )
    @settings(max_examples=30)
    def test_rescaling_homogeneity(self, s, p):
        # A_i(s v; s^{p-1-q} m) = s^{p-1} A_i(v; m), an algebraic identity
        q = 0.5 * (p - 1.0)
        g = Grid.uniform(UNIT, 200)
        v = GridFunction(g, 0.8 * np.sin(np.pi * g.nodes))
        m = step_weight(UNIT, Interval(0.3, 0.8), 1.5, -0.7)
        c = Weight.constant(0.4, UNIT)
        prob1 = Problem(p=p, q=q, domain=UNIT, m=m, c=c, window=Interval(0.3, 0.8))
        prob2 = Problem(
            p=p,
            q=q,
            domain=UNIT,
            m=m.affine(s ** (p - 1.0 - q), 0.0),
            c=c,
            window=Interval(0.3, 0.8),
        )
        a1 = weak_form_values(v, prob1)
        a2 = weak_form_values(v.scaled(s), prob2)
        ref = s ** (p - 1.0) * a1
        assert np.allclose(a2, ref, rtol=1e-9, atol=1e-12 * np.max(np.abs(a1)))

    def test_hat_sufficiency_for_random_test_functions(self):
        # if every hat passes, every nonnegative piecewise-linear test
        # function passes, by linearity of the form in the test slot
        g = Grid.uniform(UNIT, 300)
        amp = 0.9 / np.pi**4
        v = GridFunction(g, amp * np.sin(np.pi * g.nodes))
        prob = unit_problem(2.0, 0.5, Weight.constant(1.0, UNIT))
        rep = check_weak_subsolution(v, prob)
        assert rep.passed
        hbar = g.hat_masses()[1:-1]
        raw = rep.values * hbar
        rng = np.random.default_rng(7)
        for _ in range(100):
            psi = rng.random(raw.size)
            assert np.dot(psi, raw) <= rep.tol * np.dot(psi, hbar) + 1e-12


def pointwise_weak_form_values(v, prob):
    """weak_form_values restated point by point: c and m evaluated at every
    Gauss point, both hats tabulated there and scattered with np.add.at."""
    gx, gw = np.polynomial.legendre.leggauss(10)
    nodes = v.grid.nodes
    vals = np.maximum(v.values, 0.0)
    h = np.diff(nodes)
    s = np.diff(vals) / h
    inner = [b for w in (prob.c, prob.m) for b in w.breaks[1:-1] if nodes[0] < b < nodes[-1]]
    edges = np.union1d(nodes, inner)
    lo, hi = edges[:-1], edges[1:]
    keep = hi - lo > 1e-14 * (nodes[-1] - nodes[0])
    lo, hi = lo[keep], hi[keep]
    parent = np.clip(np.searchsorted(nodes, 0.5 * (lo + hi), side="right") - 1, 0, h.size - 1)
    half = 0.5 * (hi - lo)
    X = (0.5 * (lo + hi))[:, None] + half[:, None] * gx
    vX = np.maximum(vals[parent, None] + s[parent, None] * (X - nodes[parent, None]), 0.0)
    hat_right = np.clip((X - nodes[parent, None]) / h[parent, None], 0.0, 1.0)
    dens = prob.c(X) * vX ** (prob.p - 1.0) - prob.m(X) * vX**prob.q
    A = np.zeros(nodes.size)
    np.add.at(A, parent, np.sum(half[:, None] * gw * dens * (1.0 - hat_right), axis=1))
    np.add.at(A, parent + 1, np.sum(half[:, None] * gw * dens * hat_right, axis=1))
    flux = phi_p(s, prob.p)
    A[1:-1] += flux[:-1] - flux[1:]
    return A[1:-1] / (0.5 * (h[:-1] + h[1:]))


def drawn_problem(rng, p, with_c):
    """p, q = (p-1)/2 on the unit interval; m has 7 drawn cubic pieces with
    breaks off any grid's nodes, and is 1.5 on its third piece, the window;
    c vanishes or has 3 drawn nonnegative quadratic pieces."""
    breaks = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.03, 0.97, 6)]))
    coefs = rng.normal(size=(7, 4)) * 10.0 ** rng.integers(-1, 2, size=(7, 1))
    coefs[2] = [1.5, 0.0, 0.0, 0.0]
    c = Weight.constant(0.0, UNIT)
    if with_c:
        # nonnegative coefficients in each piece's local x - break >= 0
        c = Weight(np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.03, 0.97, 2)])),
                   rng.uniform(0.0, 3.0, size=(3, 3)))
    window = Interval(breaks[2], breaks[3])
    return Problem(p=p, q=0.5 * (p - 1.0), domain=UNIT, m=Weight(breaks, coefs), c=c, window=window)


@pytest.mark.parametrize("grid", ["uniform", "graded"])
@pytest.mark.parametrize("with_c", [False, True], ids=["c0", "c-drawn"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_per_panel_values_match_the_pointwise_formula(p, with_c, grid):
    # the per-panel affine hat sums and the once-per-panel piece lookup
    # agree with the point-by-point formula to rounding, on drawn weights
    rng = np.random.default_rng([int(10 * p), int(with_c), int(grid == "graded")])
    nodes = np.linspace(0.0, 1.0, 258)
    g = Grid(nodes if grid == "uniform" else nodes**1.7)
    for _ in range(5):
        prob = drawn_problem(rng, p, with_c)
        x = g.nodes
        v = GridFunction(g, np.sin(np.pi * x) * (1.0 + 0.3 * np.cos(rng.uniform(3.0, 9.0) * x)))
        ref = pointwise_weak_form_values(v, prob)
        got = weak_form_values(v, prob)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_weak_form_values_runs_no_assembly_code(monkeypatch):
    # the verifier shares no arithmetic with the assembly that builds the
    # certificates: no plan, composed table or assembly Gauss rule
    from plap1d import core_types

    prob = drawn_problem(np.random.default_rng(3), 2.0, True)
    g = Grid.uniform(UNIT, 64)
    v = GridFunction(g, np.sin(np.pi * g.nodes))

    def forbidden(*args, **kwargs):
        raise AssertionError("assembly code called from the verifier")

    for name in ("_compose_affine", "_mul_linear", "_gauss_rule"):
        monkeypatch.setattr(core_types, name, forbidden)
    monkeypatch.setattr(core_types.AssemblyPlan, "__init__", forbidden)
    assert np.all(np.isfinite(weak_form_values(v, prob)))
