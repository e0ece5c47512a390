import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import betaincinv

from plap1d import eigen
from plap1d.core_types import (
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
    def test_rayleigh_cross_check(self, p):
        m = step_weight(UNIT, Interval(0.2, 0.9), 2.0, 0.5)
        c = Weight.constant(0.3, UNIT)
        pair = principal_eigenvalue(p, c, m, UNIT)
        rayleigh = eigen.rayleigh_quotient(p, c, m, UNIT, pair.phi)
        assert abs(rayleigh - pair.lambda1) <= 1e-4 * pair.lambda1

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
    """Record the substep count of every shot, by wrapping the RK4 kernel
    each one calls once; shot_work reads the record."""
    substeps = []
    original = eigen._rk4_full

    def counted(K, KH, *rest):
        substeps.append(len(KH))
        return original(K, KH, *rest)

    monkeypatch.setattr(eigen, "_rk4_full", counted)
    return substeps


def shot_work(substeps, n, p):
    """Integration work in full-window shots on n cells: the substeps of
    every shot, coarse-level seeding shots included, over the n * nsub of
    one shot across the whole window, so a shot over half of it counts 0.5."""
    return sum(substeps) / (n * eigen._substeps(p))


def assert_bracket_invariant(pair, p, c, m, I, n, tol=1e-8):
    # the final bracket is within tol * lambda1 of lambda1: below it the shot
    # stays positive to the right endpoint, above it it crosses inside
    _, zero = shoot(pair.lambda1 * (1.0 - 2.0 * tol), p, c, m, I, n=n)
    assert zero is None or zero == I.b
    _, zero = shoot(pair.lambda1 * (1.0 + 2.0 * tol), p, c, m, I, n=n)
    assert zero is not None and zero < I.b


class TestEigenBracket:
    @pytest.mark.parametrize("c", [0.0, 0.7])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_step_weight_needs_few_shots(self, p, c, monkeypatch):
        shots = count_shots(monkeypatch)
        principal_eigenvalue(p, Weight.constant(c, UNIT), STEP, WINDOW, n=512)
        assert shot_work(shots, 512, p) <= 8

    @pytest.mark.parametrize("c", [0.0, 0.7])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_step_weight_closes_from_the_seed(self, p, c, monkeypatch):
        # the closed form is exact for constant c and m on the window, so the
        # only shot is the eigenfunction's, over the left n // 2 cells
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
        assert shot_work(shots, n, 2.0) <= 3

    def test_scaled_weight_scales_lambda1_and_its_shots(self, monkeypatch):
        # m -> s m maps every probe to lambda / s
        shots = count_shots(monkeypatch)
        runs = []
        for s in (1.0, 1e6, 1e9):
            start = len(shots)
            pair = principal_eigenvalue(2.0, ZERO, STEP.affine(s), WINDOW, n=512)
            runs.append((pair.lambda1 * s, shot_work(shots[start:], 512, 2.0)))
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
        cw = Weight.constant(c, UNIT)
        pair = principal_eigenvalue(p, cw, STEP, WINDOW, n=512)
        assert_bracket_invariant(pair, p, cw, STEP, WINDOW, 512)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_two_bump_weight_closes_in_few_shots(self, p, monkeypatch):
        # the mean of m is 0.1, so the closed-form seed sits far below
        # lambda1 and the Newton probes climb from it; Illinois regula falsi
        # took 16 and 23 shots
        shots = count_shots(monkeypatch)
        pair = principal_eigenvalue(p, ZERO, TWO_BUMPS, UNIT, n=512)
        assert shot_work(shots, 512, p) <= {2.0: 10, 3.0: 13}[p]
        assert_bracket_invariant(pair, p, ZERO, TWO_BUMPS, UNIT, 512)

    def test_small_end_flux_is_not_taken_for_convergence(self):
        # c is tuned so that the seed's shot ends with w(x1) within 1e-19 of
        # zero while u(x1) sits near its peak: that shot's Newton step is
        # tiny, yet the seed is 20 % below lambda1
        m = step_weight(UNIT, Interval(0.0, 0.25), 1.0, 0.0)
        c = 0.008626475442568006
        cw = Weight.constant(c, UNIT)
        pair = principal_eigenvalue(2.0, cw, m, UNIT, n=512)
        assert pair.lambda1 > 1.2 * (np.pi**2 + c) / 0.25
        rayleigh = eigen.rayleigh_quotient(2.0, cw, m, UNIT, pair.phi)
        assert abs(rayleigh - pair.lambda1) <= 1e-3 * pair.lambda1
        assert_bracket_invariant(pair, 2.0, cw, m, UNIT, 512)


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
    """lambda1 bisected on whether the shot crosses zero before I.b, from
    lam * (1 -+ rel), which must bracket it: to within rel / 2**steps."""
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
    pair = principal_eigenvalue(p, ZERO, m, I, n=n)
    assert shot_work(shots, n, p) <= ILLINOIS_SHOTS[name][GRID_P.index(p)][GRID_N.index(n)]
    if name in CONSTANT_WINDOWS:
        assert_closed_form_from_one_half_shot(pair, shots, p, 0.0, 1.0, I, n)
        return
    assert_bracket_invariant(pair, p, ZERO, m, I, n)
    # a Newton stop lands far closer; the bracket fallback's midpoint is
    # within half its width, _TOL / 2
    assert pair.lambda1 == pytest.approx(bisection_reference(pair.lambda1, p, m, I, n), rel=6e-9)


class TestCoarseSeed:
    @pytest.mark.parametrize("p", [1.6, 2.0, 3.0])
    def test_non_constant_weight_closes_in_one_fine_shot(self, p, monkeypatch):
        # the coarse levels (256 cells, 32 stops the recursion) bring the
        # first full-resolution probe within reach of one Newton step
        m, I = GRID_WEIGHTS["sin-power"]
        n = 2048
        shots = count_shots(monkeypatch)
        pair = principal_eigenvalue(p, ZERO, m, I, n=n)
        assert shot_work(shots, n, p) <= 2
        monkeypatch.undo()
        assert pair.lambda1 == pytest.approx(bisection_reference(pair.lambda1, p, m, I, n), rel=6e-9)

    @pytest.mark.parametrize("p", [1.1, 2.0, 7.0])
    def test_constant_window_runs_no_coarse_level(self, p, monkeypatch):
        # the closed form is exact there: one shot, over the left n // 2 cells
        shots = count_shots(monkeypatch)
        principal_eigenvalue(p, Weight.constant(0.7, UNIT), STEP, WINDOW, n=4096)
        nsub = 8 if (p < 1.2 or p > 6.0) else 4
        assert shots == [2048 * nsub]

    def test_levels_coarsen_by_eight_down_to_64_cells(self, monkeypatch):
        shots = count_shots(monkeypatch)
        principal_eigenvalue(2.0, ZERO, GRID_WEIGHTS["sin-power"][0], UNIT, n=8192)
        assert sorted({s // 4 for s in shots}) == [128, 1024, 8192]
        assert shots[-1] == 8192 * 4


def closed_form(p, c, m, length):
    # lambda1 of constant c and m on an interval, in principal_eigenvalue's
    # order of operations
    return float((lambda1_constant(p, length) + c) / m)


def assert_closed_form_from_one_half_shot(pair, shots, p, c, m, I, n):
    # lambda1 is the closed form of constant c and m on I, and the only shot
    # is the eigenfunction's, over the left n // 2 of the n cells
    assert shots == [(n // 2) * eigen._substeps(p)]
    assert pair.lambda1 == closed_form(p, c, m, I.length())


class TestConstantWindow:
    # p = 1.1 and 7 take 8 substeps, p = 2 takes 4; an even and an odd cell
    # count, fine enough that the grid's shot agrees with the closed form
    @pytest.mark.parametrize("n", [4096, 4097])
    @pytest.mark.parametrize("p", [1.1, 2.0, 7.0])
    def test_closed_form_from_one_half_window_shot(self, p, n, monkeypatch):
        shots = count_shots(monkeypatch)
        pair = principal_eigenvalue(p, ZERO, STEP, WINDOW, n=n)
        monkeypatch.undo()
        assert_closed_form_from_one_half_shot(pair, shots, p, 0.0, 1.0, WINDOW, n)
        ref = bisection_reference(pair.lambda1, p, STEP, WINDOW, n)
        assert pair.lambda1 == pytest.approx(ref, rel=1e-8)
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
        # at p = 5 on 64 cells the grid's own shooting eigenvalue is about
        # 1.5e-6 from the closed form; lambda1 is still the closed form
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


def rk4_full_reference(K, KH, hsub, pm1, ipm1, nsub, out, wmid):
    # the single-loop kernel with index tests and multiplied signs, kept as
    # the reference that eigen._rk4_full must reproduce bit for bit
    u = 0.0
    w = 1.0
    half = nsub // 2
    out[0] = 0.0
    for j in range(len(KH)):
        k1u = abs(w) ** ipm1 * (1.0 if w >= 0 else -1.0)
        k1w = K[j] * abs(u) ** pm1 * (1.0 if u >= 0 else -1.0)
        au = u + 0.5 * hsub * k1u
        aw = w + 0.5 * hsub * k1w
        k2u = abs(aw) ** ipm1 * (1.0 if aw >= 0 else -1.0)
        k2w = KH[j] * abs(au) ** pm1 * (1.0 if au >= 0 else -1.0)
        au = u + 0.5 * hsub * k2u
        aw = w + 0.5 * hsub * k2w
        k3u = abs(aw) ** ipm1 * (1.0 if aw >= 0 else -1.0)
        k3w = KH[j] * abs(au) ** pm1 * (1.0 if au >= 0 else -1.0)
        au = u + hsub * k3u
        aw = w + hsub * k3w
        k4u = abs(aw) ** ipm1 * (1.0 if aw >= 0 else -1.0)
        k4w = K[j + 1] * abs(au) ** pm1 * (1.0 if au >= 0 else -1.0)
        u += hsub / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        w += hsub / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        if (j + 1) % nsub == 0:
            out[(j + 1) // nsub] = u
        elif (j + 1) % nsub == half:
            wmid[(j + 1) // nsub] = w


class TestKernel:
    # (weight, multiple of lambda1, crosses, u(1) >= 0): below lambda1, above
    # it, and above it with TWO_BUMPS, where the shot crosses and comes back;
    # crossings are read at the nodes, as principal_eigenvalue reads them
    CASES = [
        (ONE, 0.5, False, True),
        (ONE, 1.5, True, False),
        (TWO_BUMPS, 2.0, True, True),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)), ids=["below", "above", "crossed-twice"])
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 7.0])
    def test_matches_reference_bit_for_bit(self, p, case):
        m, factor, crosses, end_nonneg = self.CASES[case]
        # at n = 100, hsub/6 and hsub*(1/6) are different doubles
        n = 100
        c = Weight.constant(0.3, UNIT)
        lam = factor * principal_eigenvalue(p, c, m, UNIT, n=n).lambda1
        # nsub = 8 for p = 1.1 and p = 7, 4 otherwise, as in eigen._shooter;
        # the stage coefficient c - lam*m at the substep nodes and midpoints
        nsub = 8 if (p < 1.2 or p > 6.0) else 4
        xs = np.linspace(0.0, 1.0, n * nsub + 1)
        half = 0.5 * (xs[:-1] + xs[1:])
        K, KH = (c(xs) - lam * m(xs)).tolist(), (c(half) - lam * m(half)).tolist()
        args = (K, KH, 1.0 / (n * nsub), p - 1.0, 1.0 / (p - 1.0), nsub)
        out, wmid = np.empty(n + 1), np.empty(n)
        ref_out, ref_wmid = np.empty(n + 1), np.empty(n)
        eigen._rk4_full(*args, out, wmid)
        rk4_full_reference(*args, ref_out, ref_wmid)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(wmid, ref_wmid)
        assert (bool(np.any(out[1:] <= 0.0)), out[-1] >= 0.0) == (crosses, end_nonneg)
