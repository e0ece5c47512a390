import collections
import math

import numpy as np
import pytest
import scipy.linalg

from plap1d import (
    CertificateError,
    Certificate,
    Grid,
    GridFunction,
    Interval,
    Problem,
    SolutionReport,
    SolverError,
    Weight,
    build_supersolution,
    certify,
    check_all,
    sin_power_weight,
    solution_residual,
    solve_between,
    solve_full,
    step_weight,
    sweep,
    window_eigenpair,
)
import plap1d.solver
from plap1d import core_types, eigen
from plap1d.core_types import AssemblyPlan
from plap1d.solver import _energy_and_grad, _reaction

UNIT = Interval(0.0, 1.0)
WIN = Interval(0.25, 0.75)


def step_problem(p, q, mu, csup=0.0):
    m = step_weight(UNIT, WIN, 1.0, -mu)
    return Problem(
        p=p, q=q, domain=UNIT, m=m, c=Weight.constant(csup, UNIT), window=WIN
    )


def manufactured_problem():
    # m = pi^2 sin(pi x)^{1/2} makes sin(pi x) the positive solution at p = 2
    m = sin_power_weight(UNIT, 0.5).affine(np.pi**2, 0.0)
    return Problem(
        p=2.0, q=0.5, domain=UNIT, m=m, c=Weight.constant(0.0, UNIT), window=UNIT
    )


def box_certificates(grid, lo_vals, hi_vals):
    sub = Certificate(kind="subsolution", u=GridFunction(grid, lo_vals), construction={})
    sup = Certificate(kind="supersolution", u=GridFunction(grid, hi_vals), construction={})
    return sub, sup


def energy(u, prob):
    """The solver's energy of u: (1/p) int (|u'|^p + c u^p) - (1/(q+1)) int m u^{q+1}."""
    return _energy_and_grad(u.values, u.grid, _reaction(u.grid, prob), prob.p)[0]


class TestEnergy:
    def test_zero_function_has_zero_energy(self):
        prob = step_problem(2.0, 0.5, 0.3)
        g = prob.default_grid(64)
        u = GridFunction(g, np.zeros(g.n + 1))
        assert energy(u, prob) == 0.0

    def test_gradient_term_of_parabola(self):
        # adding the reaction back isolates (1/2) int |u'|^2; the interpolant
        # of x(1-x) loses exactly h^2/6 of the exact 1/6
        prob = Problem(
            p=2.0, q=0.5, domain=UNIT, m=Weight.constant(1.0, UNIT),
            c=Weight.constant(0.0, UNIT), window=UNIT,
        )
        n = 64
        g = prob.default_grid(n)
        x = g.nodes
        u = GridFunction(g, x * (1.0 - x))
        plan = AssemblyPlan(g, prob.m)
        reaction = float(np.sum(plan.load_vector(u.values, 1.5))) / 1.5
        grad_part = energy(u, prob) + reaction
        h = 1.0 / n
        assert grad_part == pytest.approx(1.0 / 6.0 - h**2 / 6.0, rel=1e-12)
        assert grad_part == pytest.approx(1.0 / 6.0, abs=h**2)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_gradient_is_the_derivative_of_the_energy(self, p):
        # c jumps at 0.37, off the grid and off m's breaks, so each term has
        # its own plan; a wrong sign or 1/(r+1) on either reaction term moves
        # the gradient by a whole load vector
        c = Weight([0.0, 0.37, 1.0], [[0.3], [0.6, 0.2]])
        prob = Problem(p=p, q=0.5 * (p - 1.0), domain=UNIT, m=step_weight(UNIT, WIN, 1.0, -0.3),
                       c=c, window=WIN)
        g = prob.default_grid(64)
        terms = _reaction(g, prob)
        assert len(terms) == 2
        vals = np.sin(np.pi * g.nodes) * (1.0 + 0.3 * g.nodes)
        vals[0] = vals[-1] = 0.0
        grad = _energy_and_grad(vals, g, terms, p)[1]
        step = 1e-6
        for i in range(1, g.n):
            up, down = vals.copy(), vals.copy()
            up[i] += step
            down[i] -= step
            e_up, e_down = (_energy_and_grad(v, g, terms, p)[0] for v in (up, down))
            assert grad[i] == pytest.approx((e_up - e_down) / (2 * step), rel=1e-6, abs=1e-9), i

    def test_negative_values_are_clipped(self):
        # the assembly clips u at 0, so a constant negative u has no energy
        prob = step_problem(2.0, 0.5, 0.3)
        g = prob.default_grid(32)
        u = GridFunction(g, np.full(g.n + 1, -1.0))
        assert energy(u, prob) == 0.0

    def test_solution_beats_box_midpoint(self):
        prob = step_problem(2.0, 0.5, 0.5)
        g = prob.default_grid(256)
        rep = solve_full(prob, grid=g)
        sub, sup = rep.certificates["sub"], rep.certificates["super"]
        mid = GridFunction(g, 0.5 * (sub.u(g.nodes) + sup.u(g.nodes)))
        mid.values[0] = mid.values[-1] = 0.0
        assert energy(rep.u, prob) < energy(mid, prob)


class TestSolveBetween:
    def test_coinciding_box_returned_unchanged(self):
        prob = step_problem(2.0, 0.5, 0.3)
        g = prob.default_grid(64)
        vals = np.sin(np.pi * g.nodes)
        sub, sup = box_certificates(g, vals, vals.copy())
        out = solve_between(prob, sub, sup, g)
        assert np.array_equal(out.values, vals)

    def test_disordered_box_is_rejected(self):
        prob = step_problem(2.0, 0.5, 0.3)
        g = prob.default_grid(32)
        lo = np.sin(np.pi * g.nodes)
        hi = 0.5 * lo
        sub, sup = box_certificates(g, lo, hi)
        with pytest.raises(SolverError, match="ordered"):
            solve_between(prob, sub, sup, g)

    def test_manufactured_solution_inside_artificial_box(self):
        prob = manufactured_problem()
        g = prob.default_grid(512)
        sin_vals = np.sin(np.pi * g.nodes)
        sub, sup = box_certificates(g, 0.5 * sin_vals, sin_vals + 0.5)
        u = solve_between(prob, sub, sup, g, tol=1e-9)
        assert float(np.max(np.abs(u.values - sin_vals))) < 5e-5
        assert solution_residual(u, prob) < 1e-8

    def test_box_bounds_respected(self):
        prob = manufactured_problem()
        g = prob.default_grid(128)
        sin_vals = np.sin(np.pi * g.nodes)
        lo = 0.9 * sin_vals
        hi = 1.1 * sin_vals + 0.01
        sub, sup = box_certificates(g, lo, hi)
        u = solve_between(prob, sub, sup, g, tol=1e-9)
        assert np.all(u.values >= lo - 1e-12)
        assert np.all(u.values <= hi + 1e-12)

    def test_active_lower_bound_reported_not_fatal(self):
        # a box pinched above the solution forces the lower bound active;
        # inactive nodes still equilibrate
        prob = manufactured_problem()
        g = prob.default_grid(128)
        sin_vals = np.sin(np.pi * g.nodes)
        lo = 1.05 * sin_vals
        hi = 1.5 * sin_vals + 0.1
        sub, sup = box_certificates(g, lo, hi)
        u = solve_between(prob, sub, sup, g, tol=1e-7)
        assert np.all(u.values >= lo - 1e-12)
        # pinned to the bound from above everywhere it matters
        assert float(np.max(u.values - lo)) < 0.05

    def test_partially_active_lower_bound_releases_the_rest(self):
        # lo sits above the solution on x < 1/3 only; Newton starts inside
        # the box and must pin that part while the rest equilibrates
        prob = manufactured_problem()
        g = prob.default_grid(512)
        x = g.nodes
        sin_vals = np.sin(np.pi * x)
        lo = np.where(x < 1.0 / 3.0, 1.05 * sin_vals, 0.5 * sin_vals)
        hi = 1.5 * sin_vals + 0.1
        tol = 1e-8
        u = solve_between(prob, *box_certificates(g, lo, hi), g, tol=tol)
        left = x < 1.0 / 3.0
        # the two nodes next to x = 0 float a few 1e-9 above lo, where the
        # discrete equation balances; everything else on the left is pinned
        assert float(np.max(np.abs(u.values - lo)[left])) < 1e-7
        grad = _energy_and_grad(u.values, g, _reaction(g, prob), prob.p).g
        free = (u.values > lo + 1e-12) & (u.values < hi - 1e-12)
        free[0] = free[-1] = False
        assert np.any(free)
        assert float(np.max(np.abs(grad[free]) / g.hat_masses()[free])) <= tol

    @pytest.mark.parametrize("failure", ["singular", "nan"])
    def test_failed_linear_solve_ends_in_a_typed_residual_error(self, monkeypatch, failure):
        # neither the Cholesky step nor its clipped fallback gives a usable
        # step, so the iteration stops at the start's residual
        calls = []

        def broken(ab, rhs, **kwargs):
            calls.append(None)
            if failure == "singular":
                raise scipy.linalg.LinAlgError("not positive definite")
            return np.full_like(rhs, np.nan)

        monkeypatch.setattr(scipy.linalg, "solveh_banded", broken)
        prob = manufactured_problem()
        g = prob.default_grid(64)
        sin_vals = np.sin(np.pi * g.nodes)
        sub, sup = box_certificates(g, 0.5 * sin_vals, sin_vals + 0.5)
        with pytest.raises(SolverError, match="projected-gradient residual"):
            solve_between(prob, sub, sup, g)
        assert len(calls) == (2 if failure == "singular" else 1)

    def test_newton_from_the_vanishing_start_needs_few_energy_evaluations(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(None)
            return _energy_and_grad(*args)

        monkeypatch.setattr(plap1d.solver, "_energy_and_grad", counted)
        prob = manufactured_problem()
        g = prob.default_grid(512)
        sin_vals = np.sin(np.pi * g.nodes)
        sub, sup = box_certificates(g, 0.5 * sin_vals, sin_vals + 0.5)
        solve_between(prob, sub, sup, g, tol=1e-9)
        # the lumped, clipped reaction Jacobian took 30; the consistent one 4
        assert 0 < len(calls) <= 10

    def test_start_lies_in_the_box_and_vanishes_at_both_ends(self, monkeypatch):
        # the first energy evaluation is at the start
        starts = []

        def first(vals, *args):
            starts.append(vals.copy())
            raise StopIteration

        monkeypatch.setattr(plap1d.solver, "_energy_and_grad", first)
        prob = step_problem(3.0, 1.0, 0.1)
        g = prob.default_grid(512)
        sub, sup = certify(prob, "cor", g, eigen.window_eigenpair(prob, g))
        with pytest.raises(StopIteration):
            solve_between(prob, sub, sup, g)
        lo, hi = np.maximum(sub.u(g.nodes), 0.0), sup.u(g.nodes)
        assert hi[0] > 0.0 and hi[-1] > 0.0
        start = starts[0]
        assert start[0] == 0.0 and start[-1] == 0.0
        assert np.all(lo <= start) and np.all(start <= hi)
        # the end cells are no steeper than the box's own; the box midpoint
        # put about hi / 2 next to each boundary node
        for i, j in ((1, 0), (-2, -1)):
            assert start[i] <= max(lo[i], hi[i] - hi[j]) * (1.0 + 1e-12)

    @pytest.mark.parametrize("p, n", [(1.4, 1024), (1.6, 2048), (1.8, 2048)])
    def test_sublinear_p_needs_few_energy_evaluations(self, monkeypatch, p, n):
        # Newton's model weight on every cell stalls here (about 530-660
        # evaluations, and a SolverError at p = 1.4); the Kacanov weight took
        # 63, 31 and 17, and Newton's weight on settled cells takes 34, 9, 7
        calls = []

        def counted(*args):
            calls.append(None)
            return _energy_and_grad(*args)

        monkeypatch.setattr(plap1d.solver, "_energy_and_grad", counted)
        prob = step_problem(p, 0.5 * (p - 1.0), 0.1)
        tol = 1e-8
        rep = solve_full(prob, grid=prob.default_grid(n), tol=tol)
        rep.require_certified(tol)
        assert 0 < len(calls) <= 100

    @pytest.mark.parametrize("n", [512, 2048])
    @pytest.mark.parametrize("p", [1.5, 1.6, 1.8, 3.0, 5.0, 8.0])
    def test_step_solve_count_does_not_grow_with_p_or_n(self, monkeypatch, p, n):
        # p >= 3: from the box midpoint these took 17/19, 31/36 and 52/61
        # evaluations at n = 512/2048; from the vanishing start 7, 9 and 11
        # at both n.  p < 2: the Kacanov weight on every cell took 42, 31
        # and 17 at both n; Newton's weight on settled cells takes 11, 9, 7
        calls = []

        def counted(*args):
            calls.append(None)
            return _energy_and_grad(*args)

        monkeypatch.setattr(plap1d.solver, "_energy_and_grad", counted)
        prob = step_problem(p, 0.5 * (p - 1.0), 0.1 if p <= 5.0 else 0.001)
        tol = 1e-8
        solve_full(prob, grid=prob.default_grid(n), tol=tol).require_certified(tol)
        assert 0 < len(calls) <= 12

    def test_a_solve_at_the_rounding_floor_fails_fast(self, monkeypatch):
        # the residual's rounding floor at p = 1.4, n = 2048 is 7.4e-8, above
        # tol; once there, no step lowers the energy by more than its
        # rounding or the residual by a tenth, so the solve stops (36
        # evaluations) instead of taking steps on noise (163)
        calls = []

        def counted(*args):
            calls.append(None)
            return _energy_and_grad(*args)

        monkeypatch.setattr(plap1d.solver, "_energy_and_grad", counted)
        prob = step_problem(1.4, 0.2, 0.1)
        with pytest.raises(SolverError, match="residual stagnation"):
            solve_full(prob, grid=prob.default_grid(2048), tol=1e-8)
        assert 0 < len(calls) <= 40

    @pytest.mark.parametrize("p, csup", [(2.0, 0.0), (2.0, 0.5), (3.0, 0.0), (5.0, 0.5)])
    def test_settled_cells_leave_p_from_two_up_unchanged(self, monkeypatch, p, csup):
        # for p >= 2 Newton's weight is the only weight, on every cell, so the
        # solve is the one the single weight max(p - 1, 1)|s|^(p-2) / h gave
        prob = step_problem(p, 0.5 * (p - 1.0), 0.1, csup=csup)
        g = prob.default_grid(512)
        eig = eigen.window_eigenpair(prob, g)
        theorem = plap1d.solver.select_theorem(plap1d.solver.check_all(prob, eig))
        sub, sup = certify(prob, theorem, g, eig)
        settled = solve_between(prob, sub, sup, g).values

        def single(s, s_prev, p, floor, h):
            return max(p - 1.0, 1.0) * np.maximum(np.abs(s), floor) ** (p - 2.0) / h

        monkeypatch.setattr(plap1d.solver, "_diffusion_weight", single)
        assert np.array_equal(solve_between(prob, sub, sup, g).values, settled)

    def test_large_mu_box_steps_through_the_clipped_fallback(self, monkeypatch):
        # mu = 4.6 sits just below the dead-core threshold 4.618 of
        # (p, q) = (2, 0.5); from a lower bound of 1e-6 times the window
        # eigenfunction the consistent Newton matrix is indefinite, and
        # without the lumped step the solve stalls at residual 1.9
        indefinite = []
        solveh_banded = scipy.linalg.solveh_banded

        def watched(*args, **kwargs):
            try:
                return solveh_banded(*args, **kwargs)
            except scipy.linalg.LinAlgError:
                indefinite.append(None)
                raise

        monkeypatch.setattr(scipy.linalg, "solveh_banded", watched)
        prob = step_problem(2.0, 0.5, 4.6)
        g = prob.default_grid(256)
        phi = eigen.window_eigenpair(prob, g).phi(g.nodes)
        sub = Certificate(kind="subsolution", u=GridFunction(g, 1e-6 * phi), construction={})
        sup = build_supersolution(prob, g)
        tol = 1e-8
        solve_between(prob, sub, sup, g, tol=tol)
        assert indefinite

    def test_step_halving_rescues_a_low_p_solve(self):
        # the full Newton step fails the descent test here; without the
        # halving of t the solve stops with SolverError at about 5e-3
        prob = step_problem(1.5, 0.375, 0.1)
        tol = 1e-8
        solve_full(prob, grid=prob.default_grid(512), tol=tol).require_certified(tol)

    @pytest.mark.parametrize("csup, passes", [(0.0, 1), (0.5, 2)])
    def test_one_load_vector_pass_per_nonzero_weight(self, monkeypatch, csup, passes):
        # one plan per reaction term; each evaluation takes one load vector
        # from every plan, and each Newton matrix one mass matrix
        calls = []
        loads = collections.Counter()
        masses = collections.Counter()
        load_vector = AssemblyPlan.load_vector
        mass_tridiag = AssemblyPlan.mass_tridiag

        def counted(*args):
            calls.append(None)
            return _energy_and_grad(*args)

        def counted_load(self, *args):
            loads[self] += 1
            return load_vector(self, *args)

        def counted_mass(self, *args):
            masses[self] += 1
            return mass_tridiag(self, *args)

        monkeypatch.setattr(plap1d.solver, "_energy_and_grad", counted)
        monkeypatch.setattr(AssemblyPlan, "load_vector", counted_load)
        monkeypatch.setattr(AssemblyPlan, "mass_tridiag", counted_mass)
        prob = step_problem(2.0, 0.5, 0.3, csup=csup)
        g = prob.default_grid(256)
        sin_vals = np.sin(np.pi * g.nodes)
        sub, sup = box_certificates(g, 0.05 * sin_vals, sin_vals + 0.5)
        solve_between(prob, sub, sup, g)
        assert len(calls) > 1
        assert list(loads.values()) == [len(calls)] * passes
        assert masses.keys() == loads.keys()
        assert len(set(masses.values())) == 1 and min(masses.values()) > 0


def test_every_holding_condition_certifies_on_an_off_centre_window():
    # the theorems build the subsolution from the numbers their conditions
    # check, so each holding condition certifies: window (0.1, 0.4), m = 1
    # there and -mu outside, q = (p - 1)/4, n = 512.  With mu = 0, A = 0 and
    # c >= 1e3 the tau range is empty unless it takes the profile's A; at
    # mu = 1e-6 a range sized for any other A misses at the window edge
    window = Interval(0.1, 0.4)
    holding = []
    for mu in (0.0, 1e-6):
        for csup in (0.5, 1e3, 1e5):
            for p in (1.5, 2.0, 3.0):
                prob = Problem(p=p, q=(p - 1.0) / 4.0, domain=UNIT,
                               m=step_weight(UNIT, window, 1.0, -mu),
                               c=Weight.constant(csup, UNIT), window=window)
                grid = prob.default_grid(512)
                eig = window_eigenpair(prob, grid)
                for rep in check_all(prob, eig):
                    if rep.holds:
                        sub, sup = certify(prob, rep.name, grid, eig)
                        holding.append((mu, csup, p, rep.name))
                        assert sub.verified.passed and sup.verified.passed, holding[-1]
    assert len(holding) == 25


class TestSolveFull:
    def test_canonical_step_pipeline(self):
        prob = step_problem(2.0, 0.5, 0.5)
        rep = solve_full(prob, grid=prob.default_grid(512), tol=1e-8)
        assert isinstance(rep, SolutionReport)
        assert rep.residual < 1e-6
        assert rep.min_interior > 0.0
        assert rep.ordering_ok
        assert len(rep.conditions) == 5
        assert rep.certificates["sub"].construction["theorem"] == "cor"
        assert rep.certificates["sub"].verified.passed
        assert rep.certificates["super"].verified.passed

    def test_residual_matches_reported(self):
        prob = step_problem(2.0, 0.5, 0.4)
        rep = solve_full(prob, grid=prob.default_grid(256))
        assert rep.residual == pytest.approx(solution_residual(rep.u, prob), rel=1e-12)

    def test_solution_between_certificates(self):
        prob = step_problem(2.0, 0.5, 0.4)
        g = prob.default_grid(256)
        rep = solve_full(prob, grid=g)
        lo = rep.certificates["sub"].u(g.nodes)
        hi = rep.certificates["super"].u(g.nodes)
        assert np.all(rep.u.values >= lo - 1e-12)
        assert np.all(rep.u.values <= hi + 1e-12)
        assert rep.min_interior >= (1.0 - 1e-6) * rep.certificates["sub"].u.interior_min()

    def test_auto_policy_prefers_profile_conditions_when_c_positive(self):
        prob = step_problem(2.0, 0.5, 0.3, csup=0.5)
        rep = solve_full(prob, grid=prob.default_grid(256))
        assert rep.certificates["sub"].construction["theorem"] == "thm2_i"

    def test_named_policy_is_honored(self):
        prob = step_problem(2.0, 0.5, 0.3, csup=0.5)
        rep = solve_full(prob, grid=prob.default_grid(256), policy="thm1_i")
        assert rep.certificates["sub"].construction["theorem"] == "thm1_i"

    def test_named_policy_that_fails_raises(self):
        prob = step_problem(2.0, 0.5, 0.3)
        with pytest.raises(CertificateError):
            solve_full(prob, grid=prob.default_grid(128), policy="thm2_i")

    def test_unknown_policy_rejected(self):
        prob = step_problem(2.0, 0.5, 0.3)
        with pytest.raises(ValueError, match="policy"):
            solve_full(prob, policy="newton")

    def test_no_condition_holds_raises_with_margins(self):
        prob = step_problem(2.0, 0.5, 1.0)
        with pytest.raises(CertificateError, match="no sufficient condition"):
            solve_full(prob, grid=prob.default_grid(128))

    def test_manufactured_accuracy_and_refinement(self):
        prob = manufactured_problem()
        errs = []
        for n in (256, 512):
            rep = solve_full(prob, grid=prob.default_grid(n), tol=1e-9)
            exact = np.sin(np.pi * rep.u.grid.nodes)
            errs.append(float(np.max(np.abs(rep.u.values - exact))))
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] > 1.5

    def test_manufactured_weight_facts_are_computed_once(self, monkeypatch):
        # the 128-piece weight's window restriction, sign roots and extrema
        # are each computed once per problem, and pieces whose Bernstein
        # coefficients share one sign never reach the companion eigensolve
        calls, rows = [], []
        roots, eigvals = core_types._real_roots_rows, np.linalg.eigvals

        def counting_roots(*args):
            calls.append(1)
            return roots(*args)

        def counting_eigvals(mat):
            rows.append(len(mat))
            return eigvals(mat)

        monkeypatch.setattr(core_types, "_real_roots_rows", counting_roots)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        prob = manufactured_problem()
        solve_full(prob, grid=prob.default_grid(512))
        assert len(calls) <= 5
        assert sum(rows) <= 8

    def test_manufactured_solve_eigensolves_once(self, monkeypatch):
        # the coarse seeding levels run inside the one principal_eigenvalue
        calls = []
        original = eigen.principal_eigenvalue

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(eigen, "principal_eigenvalue", counted)
        prob = manufactured_problem()
        solve_full(prob, grid=prob.default_grid(512))
        assert len(calls) == 1

    def test_scaling_consistency_for_nonnegative_weight(self):
        # doubling m scales the solution by 2^{1/(p-1-q)} when m >= 0
        p, q = 2.5, 1.0
        base = Problem(
            p=p, q=q, domain=UNIT, m=Weight.constant(1.0, UNIT),
            c=Weight.constant(0.3, UNIT), window=UNIT,
        )
        doubled = Problem(
            p=p, q=q, domain=UNIT, m=Weight.constant(2.0, UNIT),
            c=Weight.constant(0.3, UNIT), window=UNIT,
        )
        g = base.default_grid(256)
        u1 = solve_full(base, grid=g).u
        u2 = solve_full(doubled, grid=g).u
        t = 2.0 ** (1.0 / (p - 1.0 - q))
        rel = float(np.max(np.abs(u2.values - t * u1.values))) / float(np.max(u2.values))
        assert rel < 1e-4


def mu_step_factory(mu):
    return step_problem(2.0, 0.5, mu), 128, 1e-8


def pq_factory(p, q):
    return step_problem(p, q, 0.1, csup=0.2), 96, 1e-8


class TestSweep:
    def test_single_cell_matches_solve_full(self):
        rows = sweep(mu_step_factory, {"mu": [0.4]})
        rep = solve_full(step_problem(2.0, 0.5, 0.4), grid=step_problem(2.0, 0.5, 0.4).default_grid(128))
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "ok"
        assert row["theorem"] == "cor"
        assert row["residual"] == pytest.approx(rep.residual, rel=1e-9)
        assert row["min_interior"] == pytest.approx(rep.min_interior, rel=1e-9)

    def test_failing_cell_records_conditions_and_continues(self):
        rows = sweep(mu_step_factory, {"mu": [0.45, 0.62]})
        ok, bad = rows
        assert ok["status"] == "ok" and ok["cor_holds"]
        assert bad["status"] == "error"
        assert not bad["cor_holds"]
        assert "CertificateError" in bad["error"]
        assert bad["cor_margin"] < 0.0 < ok["cor_margin"]

    def test_factory_failure_is_one_bad_row(self):
        rows = sweep(pq_factory, {"p": [2.0], "q": [0.5, 2.5]})
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "error"
        assert "q" in rows[1]["error"]

    def test_grid_of_cells_in_product_order(self):
        rows = sweep(pq_factory, {"p": [2.0, 2.5], "q": [0.4, 0.8]})
        assert [(r["p"], r["q"]) for r in rows] == [
            (2.0, 0.4), (2.0, 0.8), (2.5, 0.4), (2.5, 0.8)
        ]
        assert all(r["status"] == "ok" for r in rows)

    def test_parallel_matches_serial(self):
        ranges = {"mu": [0.3, 0.5]}
        serial = sweep(mu_step_factory, ranges)
        parallel = sweep(mu_step_factory, ranges, jobs=2)
        for a, b in zip(serial, parallel):
            assert set(a) == set(b)
            for key in a:
                va, vb = a[key], b[key]
                if isinstance(va, float) and math.isnan(va):
                    assert math.isnan(vb)
                else:
                    assert va == vb
