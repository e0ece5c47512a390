import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plap1d import (
    Certificate,
    EpsTooLargeError,
    GlueError,
    Grid,
    GridFunction,
    Interval,
    NoSupersolutionError,
    Problem,
    TauTooLargeError,
    Weight,
    build_subsolution,
    build_supersolution,
    build_u1_exp,
    build_u1_linear,
    build_u1_power,
    build_u1_sinh,
    build_u3_exp,
    build_u3_linear,
    build_u3_power,
    build_u3_sinh,
    c_pq,
    default_eps,
    enforce_ordering,
    glue,
    step_weight,
    tau_interval,
    window_eigenpair,
)
from plap1d.conditions import TAU_CAP_FACTOR
from plap1d.subsuper import _junction, _profile_params
from plap1d.verify import check_weak_subsolution, check_weak_supersolution

UNIT = Interval(0.0, 1.0)
WIN = Interval(0.25, 0.75)


def step_problem(p, q, mu, csup=0.0, window=WIN):
    m = step_weight(UNIT, window, 1.0, -mu)
    return Problem(
        p=p, q=q, domain=UNIT, m=m, c=Weight.constant(csup, UNIT), window=window
    )


def subsolution(prob, theorem, grid):
    return build_subsolution(prob, theorem, grid, window_eigenpair(prob, grid))


class TestPowerPieces:
    def test_variant_a_p2_parameters(self):
        prob = step_problem(2.0, 0.5, 0.1)
        k, sigma = _profile_params("thm1_i", prob, 6.0)
        assert k == 2.0
        assert sigma == pytest.approx(3.0, rel=1e-12)

    def test_closed_form_ramp_without_negative_mass(self):
        # m >= 0 leaves only the eps inflation: u1 = (sigma eps (x-a)^2/2)^k
        prob = step_problem(2.5, 1.0, 0.0)
        tau, eps = 5.0, 1e-3
        u1 = build_u1_power(prob, tau, eps, "A", n=64)
        k, sigma = _profile_params("thm1_i", prob, tau)
        x = u1.grid.nodes
        expected = (sigma * eps * x**2 / 2.0) ** k
        assert np.allclose(u1.values, expected, rtol=1e-12, atol=1e-300)

    def test_left_piece_vanishes_at_a_and_rises(self):
        prob = step_problem(2.5, 1.0, 0.1)
        u1 = build_u1_power(prob, 10.0, 1e-3, "A")
        assert u1.values[0] == 0.0
        assert np.all(np.diff(u1.values) > 0.0)

    def test_right_piece_vanishes_at_b_and_falls(self):
        prob = step_problem(2.5, 1.0, 0.1)
        u3 = build_u3_power(prob, 10.0, 1e-3, "A")
        assert u3.values[-1] == 0.0
        assert np.all(np.diff(u3.values) < 0.0)

    def test_reflection_symmetry(self):
        prob = step_problem(1.75, 0.5, 0.2)
        u1 = build_u1_power(prob, 3.0, 1e-3, "B", n=80)
        u3 = build_u3_power(prob, 3.0, 1e-3, "B", n=80)
        assert np.allclose(u3.values, u1.values[::-1], rtol=1e-12)

    def test_overgrown_profile_rejected(self):
        prob = step_problem(2.5, 1.0, 0.5)
        with pytest.raises(TauTooLargeError):
            build_u1_power(prob, 1e9, 1e-2, "A")

    def test_variant_preconditions(self):
        with pytest.raises(ValueError, match=r"thm1_i: requires p >= 2 and q in"):
            build_u1_power(step_problem(1.5, 0.25, 0.1), 1.0, 1e-3, "A")
        with pytest.raises(ValueError, match="thm1_ii: requires p <= 2"):
            build_u1_power(step_problem(2.5, 1.0, 0.1), 1.0, 1e-3, "B")
        with pytest.raises(ValueError, match="unknown condition name"):
            build_u1_power(step_problem(2.0, 0.5, 0.1), 1.0, 1e-3, "C")


class TestHyperbolicPieces:
    def test_sinh_amplitude_reference(self):
        # ||c|| = 1, ||m^-|| = 0.5, tau = 40: peak f = sqrt(20) sinh(3/(4 sqrt 12))
        prob = step_problem(2.0, 0.5, 0.5, csup=1.0)
        u1 = build_u1_sinh(prob, 40.0)
        f_peak = math.sqrt(20.0) * math.sinh(0.75 / math.sqrt(12.0))
        assert f_peak <= 1.0
        k = 2.0 / 0.5
        assert u1.values.max() == pytest.approx(f_peak**k, rel=1e-10)
        assert u1.values[0] == 0.0

    def test_exp_dominates_sinh_pointwise(self):
        prob = step_problem(2.0, 0.5, 0.3, csup=1.0)
        us = build_u1_sinh(prob, 10.0, n=64)
        ue = build_u1_exp(prob, 10.0, n=64)
        assert np.all(ue.values >= us.values)

    def test_exp_profile_allows_small_p(self):
        prob = step_problem(1.5, 0.25, 0.1, csup=1.0)
        u1 = build_u1_exp(prob, 2.0)
        assert u1.values[0] == 0.0
        assert np.all(np.diff(u1.values) > 0.0)

    def test_sinh_requires_large_p(self):
        with pytest.raises(ValueError, match="p >= 2"):
            build_u1_sinh(step_problem(1.5, 0.25, 0.1, csup=1.0), 1.0)

    def test_hyperbolic_profiles_require_c(self):
        with pytest.raises(ValueError, match="c"):
            build_u1_sinh(step_problem(2.0, 0.5, 0.1), 1.0)
        with pytest.raises(ValueError, match="c"):
            build_u1_exp(step_problem(2.0, 0.5, 0.1), 1.0)

    def test_linear_profile_requires_c_free(self):
        with pytest.raises(ValueError, match="c"):
            build_u1_linear(step_problem(2.0, 0.5, 0.1, csup=1.0), 1.0)

    def test_linear_profile_closed_form(self):
        prob = step_problem(2.0, 0.5, 0.5)
        tau = 20.0
        u1 = build_u1_linear(prob, tau, n=32)
        slope = (tau * 0.5 / 12.0) ** 0.5
        assert np.allclose(u1.values, (slope * u1.grid.nodes) ** 4.0, rtol=1e-12)

    def test_oversized_sinh_rejected(self):
        prob = step_problem(2.0, 0.5, 0.5, csup=1.0)
        with pytest.raises(TauTooLargeError):
            build_u1_sinh(prob, 1e6)


def triangle(interval, n, peak=1.0):
    g = Grid.uniform(interval, n)
    mid = 0.5 * (interval.a + interval.b)
    half = 0.5 * interval.length()
    vals = peak * (1.0 - np.abs(g.nodes - mid) / half)
    return GridFunction(g, vals)


class TestGlue:
    def test_coinciding_pieces_join_at_first_overlap_node(self):
        u2 = triangle(WIN, 32)
        g1 = Grid.uniform(Interval(0.0, 0.75), 48)
        u1 = GridFunction(g1, u2(g1.nodes))
        u3 = GridFunction(Grid.uniform(Interval(0.25, 1.0), 48), u2(np.linspace(0.25, 1.0, 49)))
        glued, x_lo, x_hi = glue(u1, u2, u3)
        assert x_lo == 0.25
        assert x_hi == 0.75

    def test_missing_pieces_return_window_edges(self):
        u2 = triangle(WIN, 32)
        glued, x_lo, x_hi = glue(None, u2, None)
        assert (x_lo, x_hi) == (WIN.a, WIN.b)
        assert np.array_equal(glued.values, u2.values)

    def test_never_crossing_piece_fails(self):
        u2 = triangle(WIN, 32)
        g1 = Grid.uniform(Interval(0.0, 0.75), 48)
        u1 = GridFunction(g1, u2(g1.nodes) + 0.5)
        with pytest.raises(GlueError, match="left"):
            glue(u1, u2, None)

    def test_glued_function_is_continuous_and_bounded(self):
        prob = step_problem(2.0, 0.5, 0.5)
        cert = subsolution(prob, "cor", Grid.uniform(UNIT, 512))
        u = cert.u
        s = cert.construction["rescale"]
        assert np.all(np.diff(u.grid.nodes) > 0)
        assert u.values.max() <= s * (1.0 + 1e-12)
        assert u.values[0] == 0.0 and u.values[-1] == 0.0

    def test_symmetric_problem_gives_symmetric_junctions(self):
        prob = step_problem(2.0, 0.5, 0.5)
        cert = subsolution(prob, "cor", Grid.uniform(UNIT, 1024))
        lo = cert.construction["junction_lo"]
        hi = cert.construction["junction_hi"]
        assert lo + hi == pytest.approx(1.0, abs=1e-6)


class TestRescale:
    def test_reference_factor(self):
        # p=2, q=1/2: exponent 1/(p-1-q) = 2, so the glued function, whose
        # peak is the eigenfunction's 1, is scaled by tau_effective^-2
        prob = step_problem(2.0, 0.5, 0.5)
        cert = subsolution(prob, "cor", Grid.uniform(UNIT, 512))
        s = cert.construction["rescale"]
        assert s == pytest.approx(cert.construction["tau_effective"] ** -2.0, rel=1e-15)
        assert cert.u.values.max() == pytest.approx(s, rel=1e-12)

    def test_rescaled_certificate_still_verifies(self):
        # a subsolution for m is one for (tau m)/tau; rescaling moves it to
        # the weight m/tau without spending any slack
        prob = step_problem(2.0, 0.5, 0.5)
        cert = subsolution(prob, "cor", Grid.uniform(UNIT, 1024))
        tau = 4.0
        m_small = prob.m.affine(1.0 / tau)
        prob_small = Problem(
            p=2.0, q=0.5, domain=UNIT, m=m_small, c=prob.c, window=WIN
        )
        moved = cert.u.scaled(tau ** (-1.0 / (prob.p - 1.0 - prob.q)))
        rep = check_weak_subsolution(moved, prob_small)
        assert rep.passed


# one problem per theorem, each inside its theorem's range
FAMILIES = [
    ("thm1_i", 2.5, 1.0, 0.2, 0.1),
    ("thm1_ii", 1.75, 0.5, 0.1, 0.1),
    ("thm2_i", 2.5, 1.0, 0.5, 0.5),
    ("thm2_ii", 1.6, 0.3, 0.5, 0.2),
    ("cor", 2.0, 0.5, 0.0, 0.5),
]


def outer_pieces(theorem, prob, tau, eps, n):
    """(u1, u3) of the theorem through the public builders."""
    if theorem in ("thm1_i", "thm1_ii"):
        variant = "A" if theorem == "thm1_i" else "B"
        return (
            build_u1_power(prob, tau, eps, variant, n),
            build_u3_power(prob, tau, eps, variant, n),
        )
    left, right = {
        "thm2_i": (build_u1_sinh, build_u3_sinh),
        "thm2_ii": (build_u1_exp, build_u3_exp),
        "cor": (build_u1_linear, build_u3_linear),
    }[theorem]
    return left(prob, tau, n), right(prob, tau, n)


@pytest.mark.parametrize("theorem, p, q, csup, mu", FAMILIES)
def test_right_profile_mirrors_left_on_symmetric_window(theorem, p, q, csup, mu):
    prob = step_problem(p, q, mu, csup=csup)
    grid = Grid.uniform(UNIT, 256)
    eps = default_eps(prob.m)
    ti = tau_interval(theorem, prob, window_eigenpair(prob, grid), eps)
    u1, u3 = outer_pieces(theorem, prob, math.sqrt(ti.lo * ti.hi), eps, 96)
    assert u1.values.max() > 1e-6
    assert np.allclose(u3.grid.nodes, 1.0 - u1.grid.nodes[::-1], rtol=0.0, atol=1e-15)
    assert np.allclose(u3.values, u1.values[::-1], rtol=1e-10, atol=0.0)


@pytest.mark.parametrize(
    "theorem, p, q, csup, window",
    [("thm1_i", 2.5, 1.0, 0.0, WIN), ("thm1_ii", 1.75, 0.5, 0.0, WIN),
     ("thm2_i", 2.5, 0.5, 0.5, WIN), ("thm2_ii", 1.75, 0.5, 0.5, WIN),
     ("cor", 1.75, 0.5, 0.0, WIN), ("thm1_i", 2.5, 1.0, 0.0, Interval(0.2, 0.6)),
     ("thm1_ii", 1.75, 0.5, 0.0, Interval(0.2, 0.6))],
)
def test_tau_range_ends_where_the_taller_piece_reaches_one(theorem, p, q, csup, window):
    # tau_interval and the builders state the same bound: at hi the taller
    # outer piece peaks at 1, and just above hi the builders refuse tau
    prob = step_problem(p, q, 0.1, csup=csup, window=window)
    eig = window_eigenpair(prob, Grid.uniform(UNIT, 256))
    eps = 1e-3
    ti = tau_interval(theorem, prob, eig, eps)
    assert ti.hi < TAU_CAP_FACTOR * max(eig.lambda1, ti.lo)
    u1, u3 = outer_pieces(theorem, prob, ti.hi, eps, 96)
    assert max(u1.values.max(), u3.values.max()) == pytest.approx(1.0, rel=0.0, abs=1e-12)
    with pytest.raises(TauTooLargeError):
        outer_pieces(theorem, prob, ti.hi * (1.0 + 1e-9), eps, 96)


def glue_reference(u1, u2, u3, x_lo, x_hi):
    """The part-list assembly at the given junctions, which re-interpolated
    every kept node on its own piece; `glue` must match it bit for bit."""
    I = u2.grid.interval
    left_end = u1.grid.nodes[0] if u1 is not None else I.a
    right_end = u3.grid.nodes[-1] if u3 is not None else I.b
    pad = 1e-13 * (right_end - left_end)
    parts_x, parts_v = [], []
    if u1 is not None:
        xs = u1.grid.nodes[u1.grid.nodes < x_lo - pad]
        parts_x.append(xs)
        parts_v.append(u1(xs))
    mid = u2.grid.nodes[(u2.grid.nodes > x_lo + pad) & (u2.grid.nodes < x_hi - pad)]
    parts_x.extend([[x_lo], mid, [x_hi]])
    parts_v.extend([[float(u2(x_lo))], u2(mid), [float(u2(x_hi))]])
    if u3 is not None:
        xs = u3.grid.nodes[u3.grid.nodes > x_hi + pad]
        parts_x.append(xs)
        parts_v.append(u3(xs))
    nodes = np.concatenate([np.atleast_1d(np.asarray(x, float)) for x in parts_x])
    vals = np.concatenate([np.atleast_1d(np.asarray(v, float)) for v in parts_v])
    return nodes, vals


@pytest.mark.parametrize("theorem, p, q, csup, mu", FAMILIES)
@pytest.mark.parametrize("sides", ["both", "left", "right"])
def test_glue_matches_part_list_reference(theorem, p, q, csup, mu, sides):
    prob = step_problem(p, q, mu, csup=csup)
    grid = Grid.uniform(UNIT, 512)
    eig = window_eigenpair(prob, grid)
    eps = default_eps(prob.m)
    ti = tau_interval(theorem, prob, eig, eps)
    u1, u3 = outer_pieces(theorem, prob, math.sqrt(ti.lo * ti.hi), eps, 384)
    u1 = None if sides == "right" else u1
    u3 = None if sides == "left" else u3
    glued, x_lo, x_hi = glue(u1, eig.phi, u3)
    nodes, vals = glue_reference(u1, eig.phi, u3, x_lo, x_hi)
    assert np.array_equal(glued.grid.nodes, nodes)
    assert np.array_equal(glued.values, vals)


def concave_kinks(u, lo, hi):
    """Nodes in [lo, hi] where the slope of the grid function u drops."""
    nodes = u.grid.nodes
    s = np.diff(u.values) / np.diff(nodes)
    left, right = s[:-1], s[1:]
    tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(left), np.abs(right)))
    x = nodes[1:-1]
    return x[(x >= lo) & (x <= hi) & (left > right + tol)]


@pytest.mark.parametrize(
    "theorem, p, q, csup, mu, window",
    [(*family, WIN) for family in FAMILIES]
    + [("cor", 2.0, 0.5, 0.0, 0.0, Interval(0.2, 0.65))],
)
def test_junction_kinks_are_convex(theorem, p, q, csup, mu, window):
    # the weak subsolution inequality needs u'(x-) <= u'(x+) at each kink.
    # The outer profiles are convex, so the certificate is convex from each
    # domain end up to and including its junction.  mu = 0 leaves the outer
    # profiles zero, glued at the window edges.
    prob = step_problem(p, q, mu, csup=csup, window=window)
    cert = subsolution(prob, theorem, Grid.uniform(UNIT, 512))
    lo, hi = cert.construction["junction_lo"], cert.construction["junction_hi"]
    assert lo in cert.u.grid.nodes and hi in cert.u.grid.nodes
    assert concave_kinks(cert.u, UNIT.a, lo).size == 0
    assert concave_kinks(cert.u, hi, UNIT.b).size == 0


def bisected_junction(side, u_out, u2, xm, iters=80):
    """The crossing segment `_junction` picks, and the root of u_out - u2 on
    it by the 80-step bisection `_junction` made before it took the root of
    the linear difference in closed form."""
    I = u2.grid.interval
    left = side == "left"
    X = np.union1d(u_out.grid.nodes, u2.grid.nodes)
    X = X[(X >= I.a) & (X <= xm)] if left else X[(X >= xm) & (X <= I.b)]
    D = u_out(X) - u2(X)
    if left:
        i = np.flatnonzero((D[:-1] > 0.0) & (D[1:] < 0.0))[-1]
    else:
        i = np.flatnonzero((D[:-1] < 0.0) & (D[1:] > 0.0))[0]
    lo, hi = float(X[i]), float(X[i + 1])
    a, b = lo, hi
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        if (float(u_out(mid) - u2(mid)) >= 0.0) == left:
            a = mid
        else:
            b = mid
    return lo, hi, 0.5 * (a + b)


@pytest.mark.parametrize("theorem, p, q, csup, mu", FAMILIES)
@pytest.mark.parametrize("side", ["left", "right"])
def test_junction_is_the_root_on_the_crossing_segment(theorem, p, q, csup, mu, side):
    prob = step_problem(p, q, mu, csup=csup)
    grid = Grid.uniform(UNIT, 512)
    eig = window_eigenpair(prob, grid)
    eps = default_eps(prob.m)
    ti = tau_interval(theorem, prob, eig, eps)
    u1, u3 = outer_pieces(theorem, prob, math.sqrt(ti.lo * ti.hi), eps, 384)
    u_out = u1 if side == "left" else u3
    u2 = eig.phi
    xm = float(u2.grid.nodes[np.argmax(u2.values)])
    x = _junction(side, u_out, u2, xm)
    lo, hi, ref = bisected_junction(side, u_out, u2, xm)
    assert lo <= x <= hi
    scale = max(u_out.sup_norm(), u2.sup_norm())
    assert abs(float(u_out(x) - u2(x))) <= 1e-13 * scale
    assert abs(x - ref) <= 1e-15 * UNIT.length()


class TestBuildSubsolution:
    def test_window_covering_domain_skips_gluing(self):
        m = Weight.constant(1.0, UNIT)
        prob = Problem(
            p=2.0, q=0.5, domain=UNIT, m=m, c=Weight.constant(0.0, UNIT), window=UNIT
        )
        cert = subsolution(prob, "cor", Grid.uniform(UNIT, 512))
        assert cert.construction["junction_lo"] == 0.0
        assert cert.construction["junction_hi"] == 1.0
        s = cert.construction["rescale"]
        assert cert.u.values.max() == pytest.approx(s, rel=1e-12)
        assert check_weak_subsolution(cert.u, prob).passed

    @pytest.mark.parametrize("theorem, p, q, csup, mu", FAMILIES)
    def test_families_verify_on_their_own_grid(self, theorem, p, q, csup, mu):
        prob = step_problem(p, q, mu, csup=csup)
        cert = subsolution(prob, theorem, Grid.uniform(UNIT, 1024))
        rep = check_weak_subsolution(cert.u, prob)
        assert rep.passed, f"worst {rep.worst_value} at x={rep.worst_x}"
        assert cert.kind == "subsolution"
        for key in ("theorem", "tau", "tau_effective", "eps", "k", "sigma",
                    "junction_lo", "junction_hi", "rescale", "lambda1"):
            assert key in cert.construction

    def test_schedule_starts_at_default_eps_and_log_midpoint(self):
        # feasible at the first eps, and the geometric-mean tau glues
        prob = step_problem(2.0, 0.5, 0.5)
        grid = Grid.uniform(UNIT, 512)
        eig = window_eigenpair(prob, grid)
        cert = build_subsolution(prob, "cor", grid, eig)
        assert cert.construction["eps"] == default_eps(prob.m)
        ti = tau_interval("cor", prob, eig, default_eps(prob.m))
        assert cert.construction["tau"] == pytest.approx(math.sqrt(ti.lo * ti.hi), rel=1e-12)

    def test_infeasible_weight_raises(self):
        prob = step_problem(2.0, 0.5, 1.0)
        with pytest.raises(EpsTooLargeError):
            subsolution(prob, "cor", Grid.uniform(UNIT, 256))

    def test_unknown_theorem_rejected(self):
        prob = step_problem(2.0, 0.5, 0.1)
        with pytest.raises(ValueError, match="theorem"):
            subsolution(prob, "thm3", Grid.uniform(UNIT, 64))

    def test_certificate_positive_inside_window(self):
        prob = step_problem(2.0, 0.5, 0.5)
        cert = subsolution(prob, "cor", Grid.uniform(UNIT, 512))
        nodes = cert.u.grid.nodes
        inside = (nodes > WIN.a) & (nodes < WIN.b)
        assert np.all(cert.u.values[inside] > 0.0)


class TestBuildSupersolution:
    def test_reference_k_for_unit_weight(self):
        m = Weight.constant(1.0, UNIT)
        prob = Problem(
            p=2.0, q=0.5, domain=UNIT, m=m, c=Weight.constant(0.0, UNIT), window=UNIT
        )
        cert = build_supersolution(prob, Grid.uniform(UNIT, 1024))
        assert cert.construction["k"] == pytest.approx(9.0 / 8.0, rel=1e-8)
        assert cert.construction["v_sup"] == pytest.approx(1.0 / 8.0, rel=1e-8)
        rep = check_weak_supersolution(cert.u, prob)
        assert rep.worst_value >= -1e-6 and not rep.note

    @pytest.mark.parametrize("p", [1.5, 1.77, 1.78, 1.998])
    def test_step_weight_companion_matches_closed_form(self, p):
        # m^+ = 1 on (1/4, 3/4): integrating the flux, 1/4 outside the window
        # and 1/2 - x inside, gives max v = (1/4)^{p'} (1 + 1/p')
        prob = step_problem(p, 0.5 * (p - 1.0), 0.1)
        cert = build_supersolution(prob, prob.default_grid(2048))
        pc = p / (p - 1.0)
        exact = 0.25**pc * (1.0 + 1.0 / pc)
        assert cert.construction["v_sup"] == pytest.approx(exact, rel=1e-6)
        rep = check_weak_supersolution(cert.u, prob)
        assert rep.passed, f"worst {rep.worst_value} at x={rep.worst_x}"

    def test_floor_is_k(self):
        prob = step_problem(2.0, 0.5, 0.5)
        cert = build_supersolution(prob, Grid.uniform(UNIT, 512))
        assert cert.u.values.min() >= cert.construction["k"] - 1e-12
        assert cert.kind == "supersolution"

    def test_doubling_weight_doubles_companion_at_p2(self):
        base = step_problem(2.0, 0.5, 0.5)
        doubled = Problem(
            p=2.0, q=0.5, domain=UNIT, m=base.m.affine(2.0), c=base.c, window=WIN
        )
        g = Grid.uniform(UNIT, 512)
        v1 = build_supersolution(base, g).construction["v_sup"]
        v2 = build_supersolution(doubled, g).construction["v_sup"]
        assert v2 == pytest.approx(2.0 * v1, rel=1e-7)

    def test_sign_changing_c_mode_builds_when_companion_nonnegative(self):
        # the companion problem leaves c out, so v >= 0 and the construction
        # goes through; whether w certifies the negative c is for the
        # weak-form check to decide
        prob = Problem(
            p=2.0,
            q=0.5,
            domain=UNIT,
            m=step_weight(UNIT, WIN, 1.0, -0.1),
            c=Weight.constant(-1.0, UNIT),
            window=WIN,
            allow_sign_changing_c=True,
        )
        sup = build_supersolution(prob, Grid.uniform(UNIT, 256))
        k = sup.construction["k"]
        assert float(np.min(sup.u.values)) >= k - 1e-12
        assert k > 1.0


class TestEnforceOrdering:
    def test_ordered_pair_passes_through(self):
        prob = step_problem(2.0, 0.5, 0.5)
        g = Grid.uniform(UNIT, 512)
        sub = subsolution(prob, "cor", g)
        sup = build_supersolution(prob, g)
        out = enforce_ordering(sub, sup)
        assert out is sub

    def test_halving_restores_order(self):
        prob = step_problem(2.0, 0.5, 0.5)
        g = Grid.uniform(UNIT, 256)
        sup = build_supersolution(prob, g)
        tall = Certificate("subsolution", triangle(UNIT, 256, peak=40.0), {})
        out = enforce_ordering(tall, sup)
        factor = out.construction["ordering_factor"]
        assert factor < 1.0
        assert math.log2(1.0 / factor) == int(math.log2(1.0 / factor))
        X = np.union1d(out.u.grid.nodes, sup.u.grid.nodes)
        assert np.all(out.u(X) <= sup.u(X))
        # one halving fewer would still violate somewhere
        assert np.any(2.0 * factor * tall.u(X) > sup.u(X))


class TestExponentIdentities:
    @given(p=st.floats(2.0, 4.0), frac=st.floats(0.01, 0.99))
    def test_variant_a_bookkeeping(self, p, frac):
        q = (p - 2.0) + frac * (1.0 - 1e-9)
        if not 0.0 < q < p - 1.0:
            return
        prob = step_problem(p, q, 0.1)
        k, _ = _profile_params("thm1_i", prob, 1.0)
        l = (k - 1.0) * (p - 1.0)
        assert l - 1.0 + p == pytest.approx(k * (p - 1.0), rel=1e-10)
        assert l + p - 2.0 == pytest.approx(k * q, rel=1e-10)

    @given(p=st.floats(1.1, 4.0), frac=st.floats(0.05, 0.95))
    def test_hyperbolic_bookkeeping(self, p, frac):
        q = frac * (p - 1.0)
        k = p / (p - 1.0 - q)
        l = (k - 1.0) * (p - 1.0)
        assert l - 1.0 == pytest.approx(k * q, rel=1e-9)
        assert k ** (p - 1.0) * l == pytest.approx(c_pq(p, q), rel=1e-9)
