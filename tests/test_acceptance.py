"""Acceptance checks, one per numbered criterion, each printing one line.

Run with -s to see the line for every criterion; tolerances and oracle
values are stated inline next to each check.
"""

import math
import time

import numpy as np

from plap1d import (
    EigenPair,
    Grid,
    GridFunction,
    Interval,
    Problem,
    Weight,
    build_subsolution,
    build_supersolution,
    c_pq,
    check,
    enforce_ordering,
    principal_eigenvalue,
    sin_power_weight,
    solve_between,
    solve_full,
    solve_g,
    step_weight,
    window_eigenpair,
)
from plap1d.verify import (
    check_weak_subsolution,
    check_weak_supersolution,
    solution_residual,
)

UNIT = Interval(0.0, 1.0)
WIN = Interval(0.25, 0.75)
ZERO = Weight.constant(0.0, UNIT)
ONE = Weight.constant(1.0, UNIT)


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _fake_eig(lam):
    phi = GridFunction(Grid.uniform(WIN, 4), np.ones(5))
    return EigenPair(lambda1=float(lam), phi=phi)


def _step_problem(p, q, mu, csup=0.0, window=WIN, inside=1.0):
    return Problem(
        p=p, q=q, domain=UNIT, m=step_weight(UNIT, window, inside, -mu),
        c=Weight.constant(csup, UNIT), window=window,
    )


def test_criterion_1_eigenvalue_oracle():
    principal_eigenvalue(2.0, ZERO, ONE, UNIT, n=64)  # warm-up before timing
    t0 = time.perf_counter()
    e2 = principal_eigenvalue(2.0, ZERO, ONE, UNIT)
    t2 = time.perf_counter() - t0
    rel2 = abs(e2.lambda1 - math.pi**2) / math.pi**2

    p = 3.0
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    exact3 = (p - 1.0) * pi_p**p
    t0 = time.perf_counter()
    e3 = principal_eigenvalue(p, ZERO, ONE, UNIT)
    t3 = time.perf_counter() - t0
    rel3 = abs(e3.lambda1 - exact3) / exact3

    ok = rel2 <= 1e-3 and rel3 <= 1e-2 and t2 < 2.0 and t3 < 2.0
    _report(1, ok, f"p=2 rel {rel2:.2e} in {t2:.2f}s; p=3 rel {rel3:.2e} in {t3:.2f}s")


def test_criterion_2_constant_oracle_and_p2_coincidence():
    c12 = abs(c_pq(2.0, 0.5) - 12.0)
    rng = np.random.default_rng(0)
    worst = 0.0
    agree = True
    for _ in range(100):
        q = float(rng.uniform(0.02, 0.98))
        x0 = float(rng.uniform(0.05, 0.45))
        x1 = float(rng.uniform(x0 + 0.1, 0.95))
        inside = float(rng.uniform(0.2, 3.0))
        outside = float(rng.uniform(0.05, 2.0))
        csup = float(rng.uniform(0.0, 2.0))
        prob = _step_problem(
            2.0, q, outside, csup=csup, window=Interval(x0, x1), inside=inside
        )
        eig = _fake_eig(rng.uniform(0.3, 60.0))
        r1 = check("thm1_i", prob, eig)
        r2 = check("thm1_ii", prob, eig)
        agree = agree and r1.applicable and r2.applicable and r1.holds == r2.holds
        for a, b in ((r1.lhs, r2.lhs), (r1.rhs, r2.rhs), (r1.margin, r2.margin)):
            worst = max(worst, abs(a - b))
    ok = c12 <= 1e-12 and agree and worst <= 1e-12
    _report(2, ok, f"|c_pq(2,1/2)-12| = {c12:.1e}; p=2 checkers agree, worst gap {worst:.1e}")


def test_criterion_3_bvp_oracle():
    n = 2048
    grid = Grid.uniform(UNIT, n)
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 4.0):
        pc = p / (p - 1.0)
        v = solve_g(p, ONE, grid)
        exact = (0.5**pc - np.abs(0.5 - grid.nodes) ** pc) / pc
        worst = max(worst, float(np.max(np.abs(v.values - exact))))
    ok = worst <= 1e-4
    _report(3, ok, f"sup-norm gap to closed form over p grid: {worst:.2e}")


def test_criterion_4_threshold_and_full_pipeline():
    t_start = time.perf_counter()
    mu_star = 12.0 / ((9.0 / 16.0) * 4.0 * math.pi**2)
    prob0 = _step_problem(2.0, 0.5, 0.5)
    eig = principal_eigenvalue(prob0.p, prob0.c_plus, prob0.m, WIN, n=2048)
    lo, hi = 0.3, 0.8
    assert check("cor", _step_problem(2.0, 0.5, lo), eig).holds
    assert not check("cor", _step_problem(2.0, 0.5, hi), eig).holds
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if check("cor", _step_problem(2.0, 0.5, mid), eig).holds:
            lo = mid
        else:
            hi = mid
    flip_err = abs(0.5 * (lo + hi) - mu_star) / mu_star

    grid = prob0.default_grid(4096)
    sub = build_subsolution(prob0, "cor", grid, eig)
    sup = build_supersolution(prob0, grid)
    sub = enforce_ordering(sub, sup)
    sub_rep = check_weak_subsolution(sub.u, prob0)
    u = solve_between(prob0, sub, sup, grid, tol=1e-8)
    residual = solution_residual(u, prob0)
    min_int = float(np.min(u.values[1:-1]))
    elapsed = time.perf_counter() - t_start
    ok = (
        flip_err <= 1e-4
        and sub_rep.worst_value <= 1e-3
        and not sub_rep.note
        and check_weak_supersolution(sup.u, prob0).passed
        and residual <= 1e-6
        and min_int > 0.0
        and elapsed < 30.0
    )
    _report(
        4,
        ok,
        f"flip at mu* rel err {flip_err:.1e}; sub margin {sub_rep.worst_value:.1e}, "
        f"residual {residual:.1e}, min interior {min_int:.1e}, {elapsed:.1f}s",
    )


def test_criterion_5_certificate_refinement():
    cases = {
        "power-A": ("thm1_i", 2.5, 1.0, 0.2, 0.1),
        "power-B": ("thm1_ii", 1.75, 0.5, 0.1, 0.1),
        "sinh": ("thm2_i", 2.5, 1.0, 0.5, 0.5),
        "exp": ("thm2_ii", 1.6, 0.3, 0.5, 0.2),
    }
    ratios = {}
    for fam, (thm, p, q, csup, mu) in cases.items():
        prob = _step_problem(p, q, mu, csup=csup)
        worst = []
        for n in (2048, 4096):
            grid = prob.default_grid(n)
            cert = build_subsolution(prob, thm, grid, window_eigenpair(prob, grid))
            worst.append(abs(check_weak_subsolution(cert.u, prob).worst_value))
        ratios[fam] = worst[0] / worst[1]
    ok = all(r >= 1.5 for r in ratios.values())
    pretty = ", ".join(f"{fam} {r:.1f}x" for fam, r in ratios.items())
    _report(5, ok, f"margin decay per doubling: {pretty}")


def test_criterion_6_hyperbolic_implication():
    rng = np.random.default_rng(0)
    counterexamples = 0
    implications = 0
    for _ in range(1000):
        p = float(rng.uniform(2.0, 4.0))
        q = float((p - 1.0) * rng.uniform(0.02, 0.98))
        x0 = float(rng.uniform(0.05, 0.45))
        x1 = float(rng.uniform(x0 + 0.1, 0.95))
        prob = _step_problem(
            p, q, float(rng.uniform(0.05, 3.0)),
            csup=float(rng.uniform(0.01, 5.0)),
            window=Interval(x0, x1),
            inside=float(rng.uniform(0.2, 3.0)),
        )
        eig = _fake_eig(rng.uniform(0.1, 100.0))
        if check("thm2_ii", prob, eig).holds:
            implications += 1
            if not check("thm2_i", prob, eig).holds:
                counterexamples += 1
    t = np.linspace(0.0, 30.0, 10000)
    scalar_ok = bool(np.all(np.sinh(t) <= np.expm1(t)))
    ok = counterexamples == 0 and implications > 0 and scalar_ok
    _report(
        6,
        ok,
        f"{implications} draws had the stronger condition, 0 counterexamples; "
        f"sinh t <= e^t - 1 on 10^4-point grid: {scalar_ok}",
    )


def test_criterion_7_manufactured_solution():
    m = sin_power_weight(UNIT, 0.5).affine(math.pi**2, 0.0)
    prob = Problem(p=2.0, q=0.5, domain=UNIT, m=m, c=ZERO, window=UNIT)
    rep = solve_full(prob, grid=prob.default_grid(2048), tol=1e-9)
    err = float(np.max(np.abs(rep.u.values - np.sin(math.pi * rep.u.grid.nodes))))
    ok = err <= 1e-3
    _report(7, ok, f"sup error against sin(pi x): {err:.2e}")


def test_criterion_8_homogeneity():
    lam = principal_eigenvalue(2.0, ZERO, ONE, UNIT).lambda1
    worst = 0.0
    for tau in (0.5, 2.0, 10.0):
        lt = principal_eigenvalue(2.0, ZERO, ONE.affine(tau), UNIT).lambda1
        worst = max(worst, abs(lt * tau - lam) / lam)

    prob = _step_problem(2.0, 0.5, 0.5)
    tau = 4.0
    scaled = Problem(
        p=2.0, q=0.5, domain=UNIT, m=prob.m.affine(tau), c=ZERO, window=WIN
    )
    grid = scaled.default_grid(1024)
    cert = build_subsolution(scaled, "cor", grid, window_eigenpair(scaled, grid))
    assert check_weak_subsolution(cert.u, scaled).passed
    back = cert.u.scaled(tau ** (-1.0 / (prob.p - 1.0 - prob.q)))
    back_rep = check_weak_subsolution(back, prob)
    ok = worst <= 1e-8 and back_rep.passed
    _report(
        8,
        ok,
        f"eigen scaling rel err {worst:.1e}; rescaled certificate re-verifies: "
        f"{back_rep.passed}",
    )


def test_criterion_9_supersolution_oracle():
    prob = Problem(p=2.0, q=0.5, domain=UNIT, m=ONE, c=ZERO, window=UNIT)
    sup = build_supersolution(prob, prob.default_grid(2048))
    k = sup.construction["k"]
    k_err = abs(k - 9.0 / 8.0)
    rep = check_weak_supersolution(sup.u, prob)
    passed = rep.worst_value >= -1e-6 and not rep.note
    ok = k_err <= 1e-9 and passed
    _report(9, ok, f"k = {k:.12g} (|k - 9/8| = {k_err:.1e}); passes at tol 1e-6: {passed}")
