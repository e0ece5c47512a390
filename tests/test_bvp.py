import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from plap1d import bvp
from plap1d.bvp import solve_g
from plap1d.core_types import (
    AssemblyPlan,
    Grid,
    Interval,
    Weight,
    phi_p,
    sin_power_weight,
    step_weight,
)

UNIT = Interval(0.0, 1.0)
ONE = Weight.constant(1.0, UNIT)
ZERO = Weight.constant(0.0, UNIT)


def flux_residual(v, p, g):
    """Hat-normalized weak residual of -(phi_p(v'))' = g at the interior hats."""
    load = AssemblyPlan(v.grid, g).load_vector(np.ones(v.grid.n + 1), 0.0)
    flux = phi_p(v.slopes(), p)
    return (flux[:-1] - flux[1:] - load[1:-1]) / v.grid.hat_masses()[1:-1]


def exact_midpoint_value(p):
    # for -(phi_p(v'))' = 1 on (0,1): v(x) = ((1/2)^{p'} - |1/2-x|^{p'}) / p'
    pp = p / (p - 1.0)
    return 0.5 ** pp / pp


def test_p2_nodal_exactness():
    g = Grid.uniform(UNIT, 16)
    v = solve_g(2.0, ONE, g)
    exact = 0.5 * g.nodes * (1.0 - g.nodes)
    np.testing.assert_allclose(v.values, exact, atol=1e-13)
    assert v(0.5) == pytest.approx(0.125, abs=1e-13)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
def test_constant_load_matches_exact_profile(p):
    g = Grid.uniform(UNIT, 256)
    v = solve_g(p, ONE, g)
    pp = p / (p - 1.0)
    exact = (0.5 ** pp - np.abs(0.5 - g.nodes) ** pp) / pp
    assert np.max(np.abs(v.values - exact)) < 2e-3 * exact.max()
    assert v(0.5) == pytest.approx(exact_midpoint_value(p), rel=5e-3)


@pytest.mark.parametrize("p", [1.6, 2.0, 3.2])
def test_residual_small_at_solution(p):
    g = Grid.uniform(UNIT, 128)
    v = solve_g(p, ONE, g)
    r = flux_residual(v, p, ONE)
    assert np.max(np.abs(r)) < 1e-10


def test_residual_flags_wrong_function():
    g = Grid.uniform(UNIT, 64)
    v = solve_g(2.0, ONE, g)
    wrong = v.scaled(2.0)
    r = flux_residual(wrong, 2.0, ONE)
    assert np.max(np.abs(r)) > 0.5


def test_zero_load_gives_zero():
    v = solve_g(2.5, ZERO, Grid.uniform(UNIT, 32))
    assert v.sup_norm() == 0.0


def test_rejects_negative_data():
    with pytest.raises(ValueError):
        solve_g(2.0, Weight.constant(-1.0, UNIT), Grid.uniform(UNIT, 16))
    with pytest.raises(ValueError):
        solve_g(1.0, ONE, Grid.uniform(UNIT, 16))


@given(st.floats(1.1, 4.0), st.floats(0.1, 3.0))
@settings(max_examples=12, deadline=None)
def test_symmetry_and_positivity(p, gval):
    g = Grid.uniform(UNIT, 64)
    v = solve_g(p, Weight.constant(gval, UNIT), g)
    assert np.all(v.values >= 0.0)
    np.testing.assert_allclose(v.values, v.values[::-1], atol=1e-8 * max(1.0, v.sup_norm()))


def bisection_only(p, g, grid):
    # the companion solve with f0 from plain bisection on [0, total load],
    # on solve_g's own load: solve_g's Newton only narrows that bracket, so
    # its values must match these bit for bit
    h = grid.h
    load = bvp.hat_loads(g, grid)
    running = np.concatenate(([0.0], np.cumsum(load[1:-1])))

    def slopes(f0):
        return phi_p(f0 - running, p / (p - 1.0))

    lo, hi = 0.0, float(running[-1])
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if float(slopes(mid) @ h) < 0.0:
            lo = mid
        else:
            hi = mid
    v = np.concatenate(([0.0], np.cumsum(slopes(mid) * h)))
    v[-1] = 0.0
    return v


# m^+ of the workloads' step weight, the manufactured sin-power weight, and a
# load on an off-centre strip, whose f0 sits near the total load
LOADS = {
    "step": step_weight(UNIT, Interval(0.25, 0.75), 1.0, -0.1).pos_part(),
    "sin-power": sin_power_weight(UNIT, 0.5).affine(np.pi**2, 0.0),
    "off-centre": step_weight(UNIT, Interval(0.05, 0.15), 1.0, 0.0),
}
GRIDS = {
    **{f"uniform-{n}": Grid.uniform(UNIT, n) for n in (16, 512, 4096)},
    "graded": Grid(np.linspace(0.0, 1.0, 301) ** 1.5),
}
PS = [1.1, 1.3, 1.5, 2.0, 3.0, 8.0]


@pytest.mark.parametrize("grid", ["uniform-16", "graded"])
@pytest.mark.parametrize("load", list(LOADS))
def test_hat_loads_match_adaptive_quadrature(load, grid):
    # solve_g's load: the exact integral of g against each hat, boundary
    # hats included; quad runs on each hat's pieces between g's breaks
    g, mesh = LOADS[load], GRIDS[grid]
    got = bvp.hat_loads(g, mesh)
    nodes = mesh.nodes
    for i in range(mesh.n + 1):
        lo, mid, hi = nodes[max(i - 1, 0)], nodes[i], nodes[min(i + 1, mesh.n)]

        def integrand(x):
            return g(x) * (x - lo) / (mid - lo) if x <= mid else g(x) * (hi - x) / (hi - mid)

        cuts = sorted({lo, mid, hi} | {b for b in g.breaks if lo < b < hi})
        ref = sum(quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13)[0]
                  for a, b in zip(cuts[:-1], cuts[1:]) if b > a)
        assert got[i] == pytest.approx(ref, rel=1e-13, abs=1e-15 * np.sum(got))


def count_closures(monkeypatch):
    """Record every closure-sum evaluation, by wrapping the phi_p that
    solve_g calls once per evaluation."""
    calls = []
    original = bvp.phi_p

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(bvp, "phi_p", counted)
    return calls


@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("load", list(LOADS))
def test_newton_seeded_root_matches_bisection_bit_for_bit(load, p, grid, monkeypatch):
    g, mesh = LOADS[load], GRIDS[grid]
    calls = count_closures(monkeypatch)
    with warnings.catch_warnings():
        # |0|^(p'-2) for p > 2 must not warn where f0 meets the running load
        warnings.simplefilter("error")
        v = solve_g(p, g, mesh)
    assert np.array_equal(v.values, bisection_only(p, g, mesh))
    # bisection alone takes about 55 evaluations; the off-centre strip's f0 sits
    # where the closure sum's derivative blows up, and Newton helps less
    assert len(calls) <= (8 if load != "off-centre" else 25)


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.85])
def test_probe_steps_on_until_the_closure_changes_sign(p, monkeypatch):
    # Newton lands within an ulp of f0, and the probe just past its point
    # reads the same sign; bisection from the bracket that left open took
    # 55-56 evaluations (p = 3.85 with a 20-point assembly rule, the others
    # with the 10-point rule)
    g, mesh = LOADS["step"], Grid.uniform(UNIT, 2048).with_points([0.25, 0.75])
    calls = count_closures(monkeypatch)
    v = solve_g(p, g, mesh)
    assert np.array_equal(v.values, bisection_only(p, g, mesh))
    assert len(calls) <= 8
