import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap1d.bvp import solve_g
from plap1d.core_types import AssemblyPlan, Grid, Interval, Weight, phi_p

UNIT = Interval(0.0, 1.0)
ONE = Weight.constant(1.0, UNIT)
ZERO = Weight.constant(0.0, UNIT)


def flux_residual(v, p, g):
    """Hat-normalized weak residual of -(phi_p(v'))' = g at the interior hats."""
    load = AssemblyPlan(v.grid, {"g": g}).load_vector("g", np.ones(v.grid.n + 1), 0.0)
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
