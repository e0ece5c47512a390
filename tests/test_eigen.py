import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import betaincinv

from plap1d import eigen
from plap1d.core_types import (
    DEFAULT_N,
    EigenError,
    Interval,
    NoEigenvalueError,
    Weight,
    sin_power_weight,
    step_weight,
)
from plap1d.eigen import principal_eigenvalue, shoot

UNIT = Interval(0.0, 1.0)
ONE = Weight.constant(1.0, UNIT)
ZERO = Weight.constant(0.0, UNIT)
WINDOW = Interval(0.25, 0.75)
STEP = step_weight(UNIT, WINDOW, 1.0, 0.0)
# positive only near the ends: at a lambda above lambda1 the trajectory can
# cross zero and come back up before x = 1
TWO_BUMPS = Weight([0.0, 0.05, 0.95, 1.0], [[1.0], [0.0], [1.0]])


def lambda1_constant(p, length):
    # closed form for c = 0, m = 1 on an interval of the given length
    pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
    return (p - 1.0) * (pi_p / length) ** p


class TestShoot:
    def test_lambda_zero_is_linear(self):
        traj, zero = shoot(0.0, 2.7, ZERO, ONE, UNIT, n=256)
        assert zero is None
        assert np.allclose(traj.values, traj.grid.nodes, atol=1e-12)

    def test_first_zero_at_right_endpoint(self):
        _, zero = shoot(np.pi**2, 2.0, ZERO, ONE, UNIT)
        assert zero == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_first_zero_at_half(self, p):
        # lambda1 of the half interval: the first zero of the shot is at 1/2
        _, zero = shoot(2.0**p * lambda1_constant(p, 1.0), p, ZERO, ONE, UNIT)
        assert zero == pytest.approx(0.5, abs=1e-4)

    def test_subcritical_lambda_stays_positive(self):
        traj, zero = shoot(0.5 * np.pi**2, 2.0, ZERO, ONE, UNIT)
        assert zero is None
        assert traj.values[-1] > 0

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            shoot(1.0, 1.0, ZERO, ONE, UNIT)


class TestPrincipalEigenvalue:
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_constant_coefficient_closed_form(self, p):
        pair = principal_eigenvalue(p, ZERO, ONE, UNIT)
        exact = lambda1_constant(p, 1.0)
        assert pair.lambda1 == pytest.approx(exact, rel=1e-6)

    def test_p3_reference_value(self):
        pair = principal_eigenvalue(3.0, ZERO, ONE, UNIT)
        assert pair.lambda1 == pytest.approx(28.2888, abs=5e-4)

    def test_constant_c_shifts_linearly_at_p2(self):
        pair = principal_eigenvalue(2.0, Weight.constant(5.0, UNIT), ONE, UNIT)
        assert pair.lambda1 == pytest.approx(np.pi**2 + 5.0, rel=1e-6)

    def test_eigenfunction_shape(self):
        pair = principal_eigenvalue(2.0, ZERO, ONE, UNIT)
        assert pair.phi.values[0] == 0.0
        assert pair.phi.values[-1] == 0.0
        assert np.all(pair.phi.values[1:-1] > 0.0)
        assert np.max(pair.phi.values) == 1.0
        # p = 2 eigenfunction is sin(pi x)
        assert np.allclose(pair.phi.values, np.sin(np.pi * pair.phi.grid.nodes), atol=1e-5)

    @pytest.mark.parametrize("p", [1.6, 2.0, 3.5])
    def test_rayleigh_cross_check(self, p, monkeypatch):
        # lambda1 is R(phi) here; the march's own grid eigenvalue agrees
        m = step_weight(UNIT, Interval(0.2, 0.9), 2.0, 0.5)
        c = Weight.constant(0.3, UNIT)
        pair, lam = march_eigenvalue(monkeypatch, p, c, m, UNIT, DEFAULT_N)
        assert abs(lam - pair.lambda1) <= 1e-4 * pair.lambda1

    @pytest.mark.parametrize("tau", [0.5, 2.0, 10.0])
    def test_homogeneity_in_m(self, tau):
        I = Interval(0.25, 0.75)
        c = Weight.constant(0.2, UNIT)
        m = step_weight(UNIT, I, 1.0, 0.0)
        base = principal_eigenvalue(2.4, c, m, I).lambda1
        scaled = principal_eigenvalue(2.4, c, m.affine(tau, 0.0), I).lambda1
        assert scaled == pytest.approx(base / tau, rel=1e-8)

    def test_domain_monotonicity(self):
        inner = Interval(0.3, 0.7)
        lam_full = principal_eigenvalue(2.5, ZERO, ONE, UNIT).lambda1
        lam_inner = principal_eigenvalue(2.5, ZERO, ONE, inner).lambda1
        assert lam_inner > lam_full

    def test_zero_mass_weight_rejected(self):
        with pytest.raises(NoEigenvalueError):
            principal_eigenvalue(2.0, ZERO, Weight.constant(0.0, UNIT), UNIT)

    def test_window_restriction_matches_closed_form(self):
        I = Interval(0.25, 0.75)
        pair = principal_eigenvalue(2.0, ZERO, ONE, I)
        assert pair.lambda1 == pytest.approx(lambda1_constant(2.0, 0.5), rel=1e-6)

    @given(
        p=st.floats(1.3, 4.0),
        tau=st.floats(0.1, 20.0),
    )
    def test_homogeneity_property(self, p, tau):
        lam = principal_eigenvalue(p, ZERO, ONE, UNIT, n=128).lambda1
        lam_tau = principal_eigenvalue(p, ZERO, Weight.constant(tau, UNIT), UNIT, n=128).lambda1
        assert lam_tau == pytest.approx(lam / tau, rel=1e-7)


def count_shots(monkeypatch):
    """Record the cell count of every march, by wrapping the kernel each one
    calls once; shot_work reads the record."""
    cells = []
    original = eigen._march

    def counted(K, *rest):
        cells.append(len(K) + 1)
        return original(K, *rest)

    monkeypatch.setattr(eigen, "_march", counted)
    return cells


def shot_work(cells, n):
    """Marching work in full-window marches on n cells: the cells of every
    march, coarse levels included, over n, so a march over half of them
    counts 0.5."""
    return sum(cells) / n


def march_eigenvalue(monkeypatch, p, c, m, I, n):
    """(pair, the grid eigenvalue of the full-resolution probe loop) of one
    principal_eigenvalue call on a window without a closed form, read from
    the last return of the probe loop, which rests on the fine level."""
    found = []
    original = eigen._newton

    def recorded(*args):
        out = original(*args)
        found.append(out[0])
        return out

    monkeypatch.setattr(eigen, "_newton", recorded)
    pair = principal_eigenvalue(p, c, m, I, n=n)
    monkeypatch.setattr(eigen, "_newton", original)
    return pair, found[-1]


def assert_bracket_invariant(lam, p, c, m, I, n, tol=1e-8):
    # the grid eigenvalue lam is within tol * lam of the bracket's ends: below
    # it the march stays positive to the right endpoint, above it it crosses
    # inside
    _, zero = shoot(lam * (1.0 - 2.0 * tol), p, c, m, I, n=n)
    assert zero is None or zero == I.b
    _, zero = shoot(lam * (1.0 + 2.0 * tol), p, c, m, I, n=n)
    assert zero is not None and zero < I.b


class TestEigenBracket:
    @pytest.mark.parametrize("c", [0.0, 0.7])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_step_weight_needs_few_shots(self, p, c, monkeypatch):
        shots = count_shots(monkeypatch)
        principal_eigenvalue(p, Weight.constant(c, UNIT), STEP, WINDOW, n=512)
        assert shot_work(shots, 512) <= 8

    @pytest.mark.parametrize("c", [0.0, 0.7])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_step_weight_closes_from_the_seed(self, p, c, monkeypatch):
        # the closed form is exact for constant c and m on the window, so the
        # only march is the eigenfunction's, over the left n // 2 cells
        shots = count_shots(monkeypatch)
        pair = principal_eigenvalue(p, Weight.constant(c, UNIT), STEP, WINDOW, n=512)
        assert_closed_form_from_one_half_shot(pair, shots, p, c, 1.0, WINDOW, 512)

    # lambda1 far below 1: the bracket's width, stopping rule and margin are
    # all relative to lambda, so the closed-form seed closes it as for order 1
    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("mass", [1e2, 1e6, 1e9, 1e10])
    def test_small_lambda1_closes_from_the_seed(self, mass, n, monkeypatch):
        shots = count_shots(monkeypatch)
        pair = principal_eigenvalue(2.0, ZERO, Weight.constant(mass, UNIT), UNIT, n=n)
        assert pair.lambda1 == pytest.approx(np.pi**2 / mass, rel=1e-8)
        assert shot_work(shots, n) <= 3

    def test_scaled_weight_scales_lambda1_and_its_shots(self, monkeypatch):
        # m -> s m maps every probe to lambda / s
        shots = count_shots(monkeypatch)
        runs = []
        for s in (1.0, 1e6, 1e9):
            start = len(shots)
            pair = principal_eigenvalue(2.0, ZERO, STEP.affine(s), WINDOW, n=512)
            runs.append((pair.lambda1 * s, shot_work(shots[start:], 512)))
        (ref, ref_shots), *scaled = runs
        for lam_s, count in scaled:
            assert lam_s == pytest.approx(ref, rel=1e-12)
            assert count == ref_shots

    @pytest.mark.parametrize("c", [-0.5, -50.0])
    def test_negative_c_rejected_before_any_shot(self, c, monkeypatch):
        shots = count_shots(monkeypatch)
        # negative on the window only
        cw = step_weight(UNIT, WINDOW, c, 1.0)
        with pytest.raises(EigenError, match="c is negative"):
            principal_eigenvalue(2.0, cw, STEP, WINDOW, n=512)
        assert shots == []

    def test_negative_c_outside_the_window_is_ignored(self):
        cw = step_weight(UNIT, WINDOW, 0.0, -1.0)
        pair = principal_eigenvalue(2.0, cw, STEP, WINDOW, n=512)
        assert pair.lambda1 == pytest.approx(lambda1_constant(2.0, 0.5), rel=1e-6)

    @pytest.mark.parametrize("c", [0.0, 0.7])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_bracket_invariant(self, p, c):
        # principal_eigenvalue takes the closed form on this constant window,
        # so the probe loop runs here directly, from the closed form; the
        # grid eigenvalue it brackets sits O(h^2) below the closed form
        cw = Weight.constant(c, UNIT)
        exact = closed_form(p, c, 1.0, WINDOW.length())
        lam, _ = eigen._newton(eigen._shooter(p, cw, STEP, WINDOW, 512), p, 512, exact)
        assert_bracket_invariant(lam, p, cw, STEP, WINDOW, 512)
        assert 0.0 < (exact - lam) / exact <= 2.0 / 512**2

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_two_bump_weight_closes_in_few_shots(self, p, monkeypatch):
        # the mean of m is 0.1, so the closed-form seed sits far below
        # lambda1 and the Newton probes climb from it; Illinois regula falsi
        # took 16 and 23 shots
        shots = count_shots(monkeypatch)
        _, lam = march_eigenvalue(monkeypatch, p, ZERO, TWO_BUMPS, UNIT, 512)
        assert shot_work(shots, 512) <= {2.0: 10, 3.0: 13}[p]
        assert_bracket_invariant(lam, p, ZERO, TWO_BUMPS, UNIT, 512)

    def test_small_end_flux_is_not_taken_for_convergence(self, monkeypatch):
        # c is tuned so that the seed's march on the coarsest level (64
        # cells) ends with f on its last cell within 2e-19 of zero while
        # u(x1) sits near its peak: that march's Newton step is tiny, yet the
        # seed is 20 % below lambda1
        m = step_weight(UNIT, Interval(0.0, 0.25), 1.0, 0.0)
        c = 0.010843392221095255
        cw = Weight.constant(c, UNIT)
        pair, lam = march_eigenvalue(monkeypatch, 2.0, cw, m, UNIT, 512)
        assert lam > 1.2 * (np.pi**2 + c) / 0.25
        assert abs(pair.lambda1 - lam) <= 1e-3 * lam
        assert_bracket_invariant(lam, 2.0, cw, m, UNIT, 512)


class TestRayleighBound:
    @pytest.mark.parametrize("p", [1.6, 2.0, 3.5])
    @pytest.mark.parametrize("name", ["sin-power", "two-bump", "jump"])
    def test_lambda1_is_the_rayleigh_quotient_without_a_closed_form(self, name, p, monkeypatch):
        # on these windows c or m varies, so lambda1 is R(phi), which the
        # march's own eigenvalue only approximates
        m, I, c = {
            "sin-power": (*GRID_WEIGHTS["sin-power"], ZERO),
            "two-bump": (TWO_BUMPS, UNIT, ZERO),
            "jump": (step_weight(UNIT, Interval(0.2, 0.9), 2.0, 0.5), UNIT, Weight.constant(0.3, UNIT)),
        }[name]
        pair, lam = march_eigenvalue(monkeypatch, p, c, m, I, 512)
        assert pair.lambda1 == eigen.rayleigh_quotient(p, c, m, I, pair.phi)
        assert pair.lambda1 != lam

    def test_two_bump_bound_decreases_with_n(self):
        # R(phi) bounds the continuous lambda1, about 986.96, from above and
        # falls towards it as the grid refines
        bounds = [principal_eigenvalue(2.0, ZERO, TWO_BUMPS, UNIT, n=n).lambda1
                  for n in (256, 512, 1024, 2048, 4096)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] > 986.96
        assert bounds[0] < 988.22

    @pytest.mark.parametrize("n", [64, 257, 2048])
    @pytest.mark.parametrize("p, c, m", [(1.3, 0.0, 1.0), (2.0, 0.7, 2.5), (6.0, 3.0, 0.4)])
    def test_constant_window_returns_the_closed_form_exactly(self, p, c, m, n):
        pair = principal_eigenvalue(p, Weight.constant(c, UNIT), step_weight(UNIT, WINDOW, m, -1.0), WINDOW, n=n)
        assert pair.lambda1 == closed_form(p, c, m, WINDOW.length())


OFF_CENTRE = Interval(0.05, 0.15)
# (m, window) of the shot-count grid
GRID_WEIGHTS = {
    "step": (STEP, WINDOW),
    "sin-power": (sin_power_weight(UNIT, 0.5).affine(np.pi**2, 0.0), UNIT),
    "two-bump": (TWO_BUMPS, UNIT),
    "off-centre": (step_weight(UNIT, OFF_CENTRE, 1.0, 0.0), OFF_CENTRE),
}
GRID_P = (1.1, 1.5, 2.0, 3.0, 5.0, 8.0)
GRID_N = (64, 256, 1024)
# shots of the Illinois regula falsi rule that Newton probing replaced, by p
# (rows, as GRID_P) and n (columns, as GRID_N), with c = 0
ILLINOIS_SHOTS = {
    "step": [[5, 3, 2], [4, 2, 2], [3, 3, 3], [6, 3, 2], [8, 5, 3], [8, 6, 3]],
    "sin-power": [[8, 8, 8], [8, 8, 8], [8, 8, 8], [9, 9, 9], [11, 10, 10], [11, 11, 11]],
    "two-bump": [[13, 13, 13], [12, 12, 12], [13, 14, 11], [23, 22, 18], [45, 47, 44], [53, 51, 54]],
    "off-centre": [[5, 3, 2], [5, 2, 2], [3, 3, 3], [6, 3, 2], [8, 5, 3], [8, 6, 3]],
}


# c = 0 and m = 1 on the window, where lambda1 is the closed form
CONSTANT_WINDOWS = ("step", "off-centre")


def bisection_reference(lam, p, m, I, n, rel=2e-8, steps=7):
    """The grid eigenvalue bisected on whether the march crosses zero before
    I.b, from lam * (1 -+ rel), which must bracket it: to within
    rel / 2**steps."""
    lo, hi = lam * (1.0 - rel), lam * (1.0 + rel)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        _, zero = shoot(mid, p, ZERO, m, I, n=n)
        if zero is not None and zero < I.b:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", GRID_N)
@pytest.mark.parametrize("p", GRID_P)
@pytest.mark.parametrize("name", list(GRID_WEIGHTS))
def test_newton_probes_need_no_more_shots_than_illinois(name, p, n, monkeypatch):
    m, I = GRID_WEIGHTS[name]
    shots = count_shots(monkeypatch)
    if name in CONSTANT_WINDOWS:
        pair = principal_eigenvalue(p, ZERO, m, I, n=n)
    else:
        pair, lam = march_eigenvalue(monkeypatch, p, ZERO, m, I, n)
    assert shot_work(shots, n) <= ILLINOIS_SHOTS[name][GRID_P.index(p)][GRID_N.index(n)]
    if name in CONSTANT_WINDOWS:
        assert_closed_form_from_one_half_shot(pair, shots, p, 0.0, 1.0, I, n)
        return
    assert_bracket_invariant(lam, p, ZERO, m, I, n)
    # a Newton stop lands far closer; the bracket fallback's midpoint is
    # within half its width, _TOL / 2
    assert lam == pytest.approx(bisection_reference(lam, p, m, I, n), rel=6e-9)


class TestCoarseSeed:
    @pytest.mark.parametrize("p", [1.6, 2.0, 3.0])
    def test_non_constant_weight_closes_in_two_fine_shots(self, p, monkeypatch):
        # the coarse levels (256 cells, 32 stops the recursion) bring the
        # first full-resolution probe within O(h^2) of the grid eigenvalue:
        # one Newton step, and a second march that confirms it
        m, I = GRID_WEIGHTS["sin-power"]
        n = 2048
        shots = count_shots(monkeypatch)
        _, lam = march_eigenvalue(monkeypatch, p, ZERO, m, I, n)
        assert shots.count(n) == 2
        assert shot_work(shots, n) <= 3
        monkeypatch.undo()
        assert lam == pytest.approx(bisection_reference(lam, p, m, I, n), rel=6e-9)

    @pytest.mark.parametrize("p", [1.1, 2.0, 7.0])
    def test_constant_window_runs_no_coarse_level(self, p, monkeypatch):
        # the closed form is exact there: one march, over the left n // 2 cells
        shots = count_shots(monkeypatch)
        principal_eigenvalue(p, Weight.constant(0.7, UNIT), STEP, WINDOW, n=4096)
        assert shots == [2048]

    def test_levels_coarsen_by_eight_down_to_64_cells(self, monkeypatch):
        shots = count_shots(monkeypatch)
        principal_eigenvalue(2.0, ZERO, GRID_WEIGHTS["sin-power"][0], UNIT, n=8192)
        assert sorted(set(shots)) == [128, 1024, 8192]
        assert shots[-1] == 8192


def closed_form(p, c, m, length):
    # lambda1 of constant c and m on an interval, in principal_eigenvalue's
    # order of operations
    return float((lambda1_constant(p, length) + c) / m)


def assert_closed_form_from_one_half_shot(pair, shots, p, c, m, I, n):
    # lambda1 is the closed form of constant c and m on I, and the only march
    # is the eigenfunction's, over the left n // 2 of the n cells
    assert shots == [n // 2]
    assert pair.lambda1 == closed_form(p, c, m, I.length())


class TestConstantWindow:
    # an even and an odd cell count, fine enough that the grid eigenvalue of
    # the march, which the probe loop finds from the closed form, sits less
    # than 1e-6 below the closed form
    @pytest.mark.parametrize("n", [4096, 4097])
    @pytest.mark.parametrize("p", [1.1, 2.0, 7.0])
    def test_closed_form_from_one_half_window_shot(self, p, n, monkeypatch):
        shots = count_shots(monkeypatch)
        pair = principal_eigenvalue(p, ZERO, STEP, WINDOW, n=n)
        monkeypatch.undo()
        assert_closed_form_from_one_half_shot(pair, shots, p, 0.0, 1.0, WINDOW, n)
        lam, _ = eigen._newton(eigen._shooter(p, ZERO, STEP, WINDOW, n), p, n, pair.lambda1)
        assert 0.0 < (pair.lambda1 - lam) / pair.lambda1 <= 1e-6
        assert lam == pytest.approx(bisection_reference(lam, p, STEP, WINDOW, n), rel=6e-9)
        phi = pair.phi.values
        np.testing.assert_allclose(phi, phi[::-1], rtol=0.0, atol=1e-14)

    def test_tiny_mass_does_not_meet_the_seed_floor(self):
        # the probe loop's seed floors the mean of m at 1e-12; the closed form
        # reads m itself
        m = step_weight(UNIT, WINDOW, 1e-13, 0.0)
        pair = principal_eigenvalue(2.0, ZERO, m, WINDOW, n=4096)
        assert pair.lambda1 == closed_form(2.0, 0.0, 1e-13, WINDOW.length())

    @pytest.mark.parametrize("n", [64, 65])
    def test_coarse_grid_takes_the_closed_form(self, n, monkeypatch):
        # at p = 5 on 64 cells the grid eigenvalue of the march is about
        # 1.3e-3 below the closed form; lambda1 is still the closed form
        shots = count_shots(monkeypatch)
        pair = principal_eigenvalue(5.0, ZERO, STEP, WINDOW, n=n)
        assert_closed_form_from_one_half_shot(pair, shots, 5.0, 0.0, 1.0, WINDOW, n)

    # phi is sup-normalized over the nodes, and for odd n the middle is not
    # a node, so the reference is normalized the same way
    @pytest.mark.parametrize("n, bound", [(65, 3e-4), (257, 6e-5)])
    @pytest.mark.parametrize("p", [5.0, 7.0])
    def test_eigenfunction_matches_sin_p(self, p, n, bound):
        # sin_p(s)^p = I^{-1}(1/p, 1 - 1/p; 2 s / pi_p), the inverse of the
        # regularized incomplete beta function, which keeps its digits near
        # the ends, where sin_p(s) ~ s
        phi = principal_eigenvalue(p, ZERO, STEP, WINDOW, n=n).phi
        x = phi.grid.nodes
        t = np.clip(2.0 * np.minimum(x - WINDOW.a, WINDOW.b - x) / WINDOW.length(), 0.0, 1.0)
        ref = betaincinv(1.0 / p, 1.0 - 1.0 / p, t) ** (1.0 / p)
        assert np.max(np.abs(phi.values - ref / np.max(ref))) <= bound

    def test_degenerate_window_raises_a_typed_error(self):
        # lambda1 = 7 (pi_8 / 1e-40)^8 overflows a double; no RuntimeWarning
        I = Interval(0.0, 1e-40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigenError, match="closed-form lambda1 overflows a double"):
                principal_eigenvalue(8.0, Weight.constant(0.0, I), Weight.constant(1.0, I), I, n=64)


def march_reference(K, h, pm1, ipm1):
    # the recursion written with an index loop and multiplied signs, kept as
    # the reference that eigen._march must reproduce bit for bit
    n = len(K) + 1
    u = [0.0] * (n + 1)
    f = 1.0
    for i in range(n):
        u[i + 1] = u[i] + h * abs(f) ** ipm1 * (1.0 if f >= 0 else -1.0)
        if i + 1 < n:
            f = f - K[i] * abs(u[i + 1]) ** pm1 * (1.0 if u[i + 1] >= 0 else -1.0)
    return u, f


class TestKernel:
    # (weight, multiple of lambda1, crosses, u(1) >= 0): below lambda1, above
    # it, and above it with TWO_BUMPS, where the march crosses and comes
    # back; crossings are read at the nodes, as principal_eigenvalue reads
    # them
    CASES = [
        (ONE, 0.5, False, True),
        (ONE, 1.5, True, False),
        (TWO_BUMPS, 2.0, True, True),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)), ids=["below", "above", "crossed-twice"])
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 7.0])
    def test_matches_reference_bit_for_bit(self, p, case):
        m, factor, crosses, end_nonneg = self.CASES[case]
        n = 100
        c = Weight.constant(0.3, UNIT)
        lam = factor * principal_eigenvalue(p, c, m, UNIT, n=n).lambda1
        # lam mhat - chat at the interior nodes, each cell's exact mass split
        # evenly between its nodes
        nodes = np.linspace(0.0, 1.0, n + 1)
        cell_m, cell_c = np.diff(m.antiderivative()(nodes)), np.diff(c.antiderivative()(nodes))
        K = (0.5 * lam * (cell_m[:-1] + cell_m[1:]) - 0.5 * (cell_c[:-1] + cell_c[1:])).tolist()
        args = (K, 1.0 / n, p - 1.0, 1.0 / (p - 1.0))
        out, f = eigen._march(*args)
        ref_out, ref_f = march_reference(*args)
        assert out == ref_out
        assert f == ref_f
        out = np.array(out)
        assert (bool(np.any(out[1:] <= 0.0)), out[-1] >= 0.0) == (crosses, end_nonneg)

    @pytest.mark.parametrize("p", [1.5, 2.0, 5.0])
    @pytest.mark.parametrize("m", [ONE, TWO_BUMPS], ids=["constant", "two-bump"])
    def test_newton_step_is_exact(self, p, m):
        # by the discrete Wronskian, g = u_n / phi_p^{-1}(f_{n-1}) has
        # dg/dlambda = mass / ((p-1) |f_{n-1}|^{p'}); a central difference of g
        # agrees to its own truncation error
        n = 100
        shot = eigen._shooter(p, ZERO, m, UNIT, n)
        pp = p / (p - 1.0)

        def g(lam):
            u, f, _ = shot(lam)
            return u[-1] / (np.sign(f) * abs(f) ** (pp - 1.0))

        lam = 0.9 * principal_eigenvalue(p, ZERO, m, UNIT, n=n).lambda1
        _, f, mass = shot(lam)
        d = 1e-5 * lam
        assert (g(lam + d) - g(lam - d)) / (2.0 * d) == pytest.approx(mass / ((p - 1.0) * abs(f) ** pp), rel=1e-6)
