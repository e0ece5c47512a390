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
    sin_power_weight,
    solution_residual,
    solve_between,
    solve_full,
    step_weight,
    sweep,
)
import plap1d.solver
from plap1d import core_types
from plap1d.core_types import AssemblyPlan
from plap1d.solver import _energy_and_grad, _plan

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
    return _energy_and_grad(u.values, u.grid, _plan(u.grid, prob), prob.p, prob.q)[0]


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
        plan = AssemblyPlan(g, {"m": prob.m})
        reaction = float(np.sum(plan.load_vector("m", u.values, 1.5))) / 1.5
        grad_part = energy(u, prob) + reaction
        h = 1.0 / n
        assert grad_part == pytest.approx(1.0 / 6.0 - h**2 / 6.0, rel=1e-12)
        assert grad_part == pytest.approx(1.0 / 6.0, abs=h**2)

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
        # lo sits above the solution on x < 1/3 only; Newton starts from the
        # box midpoint and must pin that part while the rest equilibrates
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
        plan = AssemblyPlan(g, {"c": prob.c, "m": prob.m})
        _, grad = _energy_and_grad(u.values, g, plan, prob.p, prob.q)
        free = (u.values > lo + 1e-12) & (u.values < hi - 1e-12)
        free[0] = free[-1] = False
        assert np.any(free)
        assert float(np.max(np.abs(grad[free]) / g.hat_masses()[free])) <= tol

    def test_newton_from_midpoint_needs_few_energy_evaluations(self, monkeypatch):
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

    @pytest.mark.parametrize("p, n", [(1.4, 1024), (1.6, 2048), (1.8, 2048)])
    def test_sublinear_p_needs_few_energy_evaluations(self, monkeypatch, p, n):
        # Newton's model weight stalls here (about 530-660 evaluations, and a
        # SolverError at p = 1.4); the Kacanov weight takes 35-80
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
    def test_p8_certifies_through_the_clipped_fallback(self, monkeypatch, n):
        # from the box midpoint the consistent Newton matrix is indefinite at
        # the first step, so the clipped lumped model must take it; with the
        # clipped model alone the solve stalled after 22 evaluations
        calls = []
        indefinite = []
        solveh_banded = scipy.linalg.solveh_banded

        def counted(*args):
            calls.append(None)
            return _energy_and_grad(*args)

        def watched(*args, **kwargs):
            try:
                return solveh_banded(*args, **kwargs)
            except scipy.linalg.LinAlgError:
                indefinite.append(None)
                raise

        monkeypatch.setattr(plap1d.solver, "_energy_and_grad", counted)
        monkeypatch.setattr(scipy.linalg, "solveh_banded", watched)
        prob = step_problem(8.0, 3.5, 0.001)
        tol = 1e-8
        solve_full(prob, grid=prob.default_grid(n), tol=tol).require_certified(tol)
        assert indefinite
        assert 0 < len(calls) <= 100

    def test_step_halving_rescues_a_low_p_solve(self):
        # the full Newton step fails the descent test here; without the
        # halving of t the solve stops with SolverError at about 5e-3
        prob = step_problem(1.5, 0.375, 0.1)
        tol = 1e-8
        solve_full(prob, grid=prob.default_grid(512), tol=tol).require_certified(tol)

    @pytest.mark.parametrize("csup, passes", [(0.0, 1), (0.5, 2)])
    def test_one_load_vector_pass_per_nonzero_weight(self, monkeypatch, csup, passes):
        calls = []
        loads = []
        masses = []
        load_vector = AssemblyPlan.load_vector
        mass_tridiag = AssemblyPlan.mass_tridiag

        def counted(*args):
            calls.append(None)
            return _energy_and_grad(*args)

        def counted_load(self, key, *args):
            loads.append(key)
            return load_vector(self, key, *args)

        def counted_mass(self, key, *args):
            masses.append(key)
            return mass_tridiag(self, key, *args)

        monkeypatch.setattr(plap1d.solver, "_energy_and_grad", counted)
        monkeypatch.setattr(AssemblyPlan, "load_vector", counted_load)
        monkeypatch.setattr(AssemblyPlan, "mass_tridiag", counted_mass)
        prob = step_problem(2.0, 0.5, 0.3, csup=csup)
        g = prob.default_grid(256)
        sin_vals = np.sin(np.pi * g.nodes)
        sub, sup = box_certificates(g, 0.05 * sin_vals, sin_vals + 0.5)
        solve_between(prob, sub, sup, g)
        assert len(calls) > 1
        assert len(loads) == passes * len(calls)
        assert masses.count("m") > 0
        assert masses.count("c") == (masses.count("m") if passes == 2 else 0)


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
