import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plap1d import (
    EigenPair,
    EpsTooLargeError,
    Grid,
    GridFunction,
    Interval,
    Problem,
    TauInterval,
    Weight,
    c_pq,
    check,
    check_all,
    default_eps,
    gamma,
    outer_bound,
    principal_eigenvalue,
    step_weight,
    tau_interval,
)
from plap1d.conditions import outer_profile

UNIT = Interval(0.0, 1.0)
WINDOW = Interval(0.25, 0.75)
FOUR_PI_SQ = 4.0 * math.pi**2


def fake_eig(lam):
    g = Grid.uniform(UNIT, 4)
    return EigenPair(lam, GridFunction(g, np.ones(5)))


def step_problem(p, q, mu, csup=0.0, window=WINDOW):
    m = step_weight(UNIT, window, 1.0, -mu)
    c = Weight.constant(csup, UNIT)
    return Problem(p=p, q=q, domain=UNIT, m=m, c=c, window=window)


def m_script(prob):
    """The source's script M_p, the max over the two reaches of
    M^{2-p} (int M)^{p-1} at eps = 0: the thm1_ii bound over its constant A."""
    return outer_bound("thm1_ii", prob) / outer_profile("thm1_ii", prob).A


class TestGamma:
    @pytest.mark.parametrize(
        "window, expected",
        [
            (Interval(0.25, 0.75), 0.75),
            (Interval(0.0, 1.0), 1.0),
            (Interval(0.5, 0.9), 0.9),
        ],
    )
    def test_reach_lengths(self, window, expected):
        assert gamma(UNIT, window) == expected


class TestMScript:
    def test_nonnegative_weight_gives_zero(self):
        m = Weight.constant(1.0, UNIT)
        prob = Problem(p=2.0, q=0.5, domain=UNIT, m=m, c=Weight.constant(0.0, UNIT), window=WINDOW)
        assert outer_bound("thm1_i", prob) == outer_bound("thm1_ii", prob) == 0.0

    # m = -1 left of the window (1/2, 1): M_a(1) = 1/2 and int_0^1 M_a = 3/8;
    # the right side has no negative mass and contributes 0
    @pytest.mark.parametrize("p, expected", [(2.0, 0.375), (1.5, math.sqrt(0.5 * 0.375))])
    def test_window_at_the_right_end(self, p, expected):
        prob = step_problem(p, 0.25, 1.0, window=Interval(0.5, 1.0))
        assert m_script(prob) == pytest.approx(expected, rel=1e-12)

    def test_step_weight_oracle(self):
        mu = 0.3
        # each side: mass mu/4 at the far window edge, running integral 5mu/32
        expected = (mu / 4.0) ** 0.5 * (5.0 * mu / 32.0) ** 0.5
        assert m_script(step_problem(1.5, 0.25, mu)) == pytest.approx(
            expected, rel=1e-12
        )

    # the bound reads the domain, window and weight from a Problem, which
    # refuses a weight on another domain and a window outside the domain
    def test_domain_mismatch_rejected(self):
        m = Weight.constant(-1.0, UNIT)
        with pytest.raises(ValueError, match="weight m must cover exactly the domain"):
            Problem(p=2.0, q=0.5, domain=Interval(0.0, 2.0), m=m,
                    c=Weight.constant(0.0, Interval(0.0, 2.0)), window=Interval(0.5, 1.0))

    def test_window_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="window must sit inside the domain"):
            step_problem(2.0, 0.5, 1.0, window=Interval(0.5, 1.5))


class TestCpq:
    def test_reference_value(self):
        assert c_pq(2.0, 0.5) == pytest.approx(12.0, abs=1e-12)

    def test_p3(self):
        assert c_pq(3.0, 1.0) == pytest.approx(36.0, rel=1e-12)

    def test_blows_up_near_critical_exponent(self):
        assert c_pq(2.0, 1.0 - 1e-6) > 1e10

    @pytest.mark.parametrize("p, q", [(2.0, 1.0), (2.0, 0.0), (2.0, -0.5), (1.0, 0.5)])
    def test_invalid_exponents(self, p, q):
        with pytest.raises(ValueError, match="invalid exponent"):
            c_pq(p, q)


class TestThm1i:
    def test_nonnegative_weight_holds(self):
        prob = step_problem(2.0, 0.5, 0.0)
        rep = check("thm1_i", prob, fake_eig(FOUR_PI_SQ))
        assert rep.applicable and rep.holds
        assert rep.auxiliary["i1_lhs"] == 0.0

    @pytest.mark.parametrize("mu, expected", [(0.1, True), (0.3, True), (0.33, False)])
    def test_step_threshold(self, mu, expected):
        # (i1) flips at mu = 16 / (5 pi^2), about 0.3242: each reach's
        # running integral is 5 mu / 32 and A = p - 1 - q = 1/2
        prob = step_problem(2.0, 0.5, mu)
        rep = check("thm1_i", prob, fake_eig(FOUR_PI_SQ))
        assert rep.holds is expected
        assert rep.auxiliary["i1_lhs"] == pytest.approx(0.5 * 5.0 * mu / 32.0, rel=1e-12)
        assert rep.auxiliary["i1_rhs"] == 1.0 / FOUR_PI_SQ

    def test_binding_part_is_tighter_inequality(self):
        prob = step_problem(2.0, 0.5, 0.1)
        rep = check("thm1_i", prob, fake_eig(FOUR_PI_SQ))
        assert rep.lhs == rep.auxiliary["i1_lhs"]
        assert rep.rhs == rep.auxiliary["i1_rhs"]
        assert rep.margin == rep.rhs - rep.lhs

    def test_zero_order_part_p3(self):
        m = Weight.constant(1.0, UNIT)
        c = Weight.constant(1.0, UNIT)
        prob = Problem(p=3.0, q=1.5, domain=UNIT, m=m, c=c, window=UNIT)
        rep = check("thm1_i", prob, fake_eig(10.0))
        assert rep.auxiliary["i2_rhs"] == pytest.approx(8.0, rel=1e-12)
        assert rep.auxiliary["i2_lhs"] == pytest.approx(1.0, rel=1e-12)
        assert rep.holds

    def test_zero_order_part_binds_and_fails(self):
        m = Weight.constant(1.0, UNIT)
        c = Weight.constant(4.0, UNIT)
        prob = Problem(p=2.0, q=0.5, domain=UNIT, m=m, c=c, window=WINDOW)
        rep = check("thm1_i", prob, fake_eig(1.0))
        assert not rep.holds
        assert rep.lhs == rep.auxiliary["i2_lhs"] == pytest.approx(0.75**2 * 4.0)
        assert rep.margin < 0.0

    def test_not_applicable_below_p2(self):
        prob = step_problem(1.5, 0.25, 0.1)
        rep = check("thm1_i", prob, fake_eig(1.0))
        assert not rep.applicable and not rep.holds
        assert "p >= 2" in rep.reason

    def test_not_applicable_small_q(self):
        prob = step_problem(3.0, 0.5, 0.1)
        rep = check("thm1_i", prob, fake_eig(1.0))
        assert not rep.applicable
        assert "q" in rep.reason


class TestThm1ii:
    @pytest.mark.parametrize("p", [1.5, 1.75, 2.0])
    def test_nonnegative_weight_holds(self, p):
        prob = step_problem(p, 0.25, 0.0)
        rep = check("thm1_ii", prob, fake_eig(FOUR_PI_SQ))
        assert rep.applicable and rep.holds

    @pytest.mark.parametrize("mu, expected", [(0.08, True), (0.1, False)])
    def test_step_threshold_p15(self, mu, expected):
        # (i3) flips at mu = 2^{-1/2} / (lam * sqrt(5/128)), about 0.0906
        prob = step_problem(1.5, 0.25, mu)
        rep = check("thm1_ii", prob, fake_eig(FOUR_PI_SQ))
        assert rep.holds is expected

    def test_gradient_part_reference(self):
        prob = step_problem(1.5, 0.25, 0.0, csup=0.1)
        rep = check("thm1_ii", prob, fake_eig(FOUR_PI_SQ))
        assert rep.auxiliary["i4_rhs"] == pytest.approx(2.0**1.5 / 4.0, rel=1e-12)

    def test_not_applicable_above_p2(self):
        prob = step_problem(2.5, 1.0, 0.1)
        rep = check("thm1_ii", prob, fake_eig(1.0))
        assert not rep.applicable and not rep.holds

    def test_p2_coincides_with_first_branch(self):
        prob = step_problem(2.0, 0.5, 0.2, csup=0.3)
        eig = fake_eig(FOUR_PI_SQ)
        ri = check("thm1_i", prob, eig)
        rii = check("thm1_ii", prob, eig)
        assert ri.holds == rii.holds
        for a, b in (("i1", "i3"), ("i2", "i4")):
            assert ri.auxiliary[f"{a}_lhs"] == pytest.approx(
                rii.auxiliary[f"{b}_lhs"], abs=1e-12
            )
            assert ri.auxiliary[f"{a}_rhs"] == pytest.approx(
                rii.auxiliary[f"{b}_rhs"], abs=1e-12
            )


class TestThm2:
    @pytest.mark.parametrize("csup", [1.0, 3e6, 1e8])
    def test_no_negative_mass_holds(self, csup):
        # A = ||m^-||/||c|| = 0, so the bound is 0 even where g_end^r
        # overflows at a large c (it was 0 * inf = NaN, with a warning)
        prob = step_problem(2.0, 0.5, 0.0, csup=csup)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reps = [check(name, prob, fake_eig(FOUR_PI_SQ)) for name in ("thm2_i", "thm2_ii")]
        for rep in reps:
            assert rep.holds
            assert rep.lhs == 0.0

    @pytest.mark.parametrize("mu, expected", [(0.52, True), (0.55, False)])
    def test_sinh_threshold(self, mu, expected):
        # ||c|| = 1, gamma = 3/4, lam = 4 pi^2: flips near mu = 0.532
        prob = step_problem(2.0, 0.5, mu, csup=1.0)
        rep = check("thm2_i", prob, fake_eig(FOUR_PI_SQ))
        assert rep.holds is expected

    def test_exp_threshold_is_lower(self):
        # near mu = 0.43, so between the two thresholds only sinh passes
        prob = step_problem(2.0, 0.5, 0.45, csup=1.0)
        eig = fake_eig(FOUR_PI_SQ)
        assert check("thm2_i", prob, eig).holds
        assert not check("thm2_ii", prob, eig).holds

    def test_exp_implies_sinh_here(self):
        prob = step_problem(2.0, 0.5, 0.43, csup=1.0)
        eig = fake_eig(FOUR_PI_SQ)
        assert check("thm2_ii", prob, eig).holds
        assert check("thm2_i", prob, eig).holds

    def test_sinh_not_applicable_below_p2(self):
        prob = step_problem(1.8, 0.5, 0.1, csup=1.0)
        assert not check("thm2_i", prob, fake_eig(1.0)).applicable
        assert check("thm2_ii", prob, fake_eig(1.0)).applicable

    def test_vanishing_c_defers_to_c_free_condition(self):
        prob = step_problem(2.0, 0.5, 0.1)
        for rep in (
            check("thm2_i", prob, fake_eig(1.0)),
            check("thm2_ii", prob, fake_eig(1.0)),
        ):
            assert not rep.applicable
            assert "c" in rep.reason

    def test_small_c_limit_matches_c_free_lhs(self):
        mu = 0.4
        prob = step_problem(2.0, 0.5, mu, csup=1e-8)
        eig = fake_eig(FOUR_PI_SQ)
        limit = mu * 0.75**2 / 12.0
        assert check("thm2_i", prob, eig).lhs == pytest.approx(limit, rel=1e-8)
        assert check("thm2_ii", prob, eig).lhs == pytest.approx(limit, rel=1e-4)

    @pytest.mark.parametrize("csup", [3e6, 1e8])
    def test_overflowing_profile_fails_without_a_warning(self, csup):
        # at the reach's far end g^2 overflows from about c = 2.7e6, and g =
        # sinh or expm1 itself from about 1.1e7; the bound is then infinite
        # and the condition fails
        prob = step_problem(2.0, 0.5, 0.5, csup=csup)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = principal_eigenvalue(2.0, prob.c, prob.m, WINDOW, n=128)
            reps = {rep.name: rep for rep in check_all(prob, eig)}
        for name in ("thm2_i", "thm2_ii"):
            assert reps[name].applicable and not reps[name].holds
            assert reps[name].margin == -math.inf


class TestCor:
    @pytest.mark.parametrize("mu, expected", [(0.53, True), (0.55, False)])
    def test_threshold(self, mu, expected):
        # flips at mu = 12 / ((9/16) * 4 pi^2), about 0.5404
        prob = step_problem(2.0, 0.5, mu)
        rep = check("cor", prob, fake_eig(FOUR_PI_SQ))
        assert rep.holds is expected

    def test_lhs_monotone_in_negative_mass(self):
        eig = fake_eig(FOUR_PI_SQ)
        lhs = [
            check("cor", step_problem(2.0, 0.5, mu), eig).lhs for mu in (0.1, 0.3, 0.6)
        ]
        assert lhs[0] < lhs[1] < lhs[2]

    def test_with_computed_eigenvalue(self):
        prob = step_problem(2.0, 0.5, 0.5)
        lam = principal_eigenvalue(2.0, prob.c, prob.m, WINDOW, n=512).lambda1
        assert lam == pytest.approx(FOUR_PI_SQ, rel=1e-3)
        assert check("cor", prob, fake_eig(lam)).holds

    def test_not_applicable_with_c(self):
        prob = step_problem(2.0, 0.5, 0.1, csup=1.0)
        rep = check("cor", prob, fake_eig(1.0))
        assert not rep.applicable and not rep.holds

    def test_check_all_names(self):
        prob = step_problem(2.0, 0.5, 0.1)
        reports = check_all(prob, fake_eig(FOUR_PI_SQ))
        assert [r.name for r in reports] == [
            "thm1_i",
            "thm1_ii",
            "thm2_i",
            "thm2_ii",
            "cor",
        ]


def test_check_all_reuses_the_reach_mass_antiderivatives(monkeypatch):
    # m^- + eps and its antiderivatives are built once per weight and eps:
    # the first check_all makes F and G, a repeat reads them from the memo
    prob = step_problem(2.0, 0.5, 0.1)
    eig = principal_eigenvalue(2.0, prob.c, prob.m, WINDOW, n=512)
    calls = []
    original = Weight._antiderivative

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Weight, "_antiderivative", counted)
    first = check_all(prob, eig)
    assert len(calls) == 2
    calls.clear()
    # repr, since a report that does not apply carries lhs = nan
    assert repr(check_all(prob, eig)) == repr(first)
    assert calls == []


class TestTauInterval:
    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="invalid tau interval"):
            TauInterval(2.0, 1.0)

    def test_unknown_name_rejected(self):
        prob = step_problem(2.0, 0.5, 0.1)
        with pytest.raises(ValueError, match="unknown condition"):
            tau_interval("thm9", prob, fake_eig(1.0), 1e-3)

    def test_nonpositive_eps_rejected(self):
        prob = step_problem(2.0, 0.5, 0.1)
        with pytest.raises(ValueError, match="eps"):
            tau_interval("cor", prob, fake_eig(1.0), 0.0)

    def test_no_negative_mass_hits_cap(self):
        prob = step_problem(2.0, 0.5, 0.0)
        eig = fake_eig(FOUR_PI_SQ)
        ti = tau_interval("cor", prob, eig, 1e-8)
        assert ti.lo == FOUR_PI_SQ
        assert ti.hi == 1e6 * FOUR_PI_SQ

    def test_power_range_oracle_no_negative_mass(self):
        prob = step_problem(2.0, 0.5, 0.0)
        eps = 1e-6
        ti = tau_interval("thm1_i", prob, fake_eig(FOUR_PI_SQ), eps)
        # running eps-mass integral on each side is eps * 0.75^2 / 2
        expected_hi = 1.0 / (0.5 * eps * 0.28125)
        assert ti.lo == FOUR_PI_SQ
        assert ti.hi == pytest.approx(expected_hi, rel=1e-12)

    def test_c_free_interval_contains_padded_eigenvalue(self):
        prob = step_problem(2.0, 0.5, 0.5)
        ti = tau_interval("cor", prob, fake_eig(FOUR_PI_SQ), 1e-4)
        assert ti.lo <= 1.0001 * FOUR_PI_SQ <= ti.hi

    def test_infeasible_weight_raises_at_every_eps(self):
        prob = step_problem(2.0, 0.5, 1.0)
        eig = fake_eig(FOUR_PI_SQ)
        for eps in (1e-2, 1e-4, 1e-8):
            with pytest.raises(EpsTooLargeError):
                tau_interval("cor", prob, eig, eps)

    def test_shrinking_eps_nests_power_range(self):
        prob = step_problem(2.0, 0.5, 0.1)
        eig = fake_eig(FOUR_PI_SQ)
        tis = [tau_interval("thm1_i", prob, eig, eps) for eps in (1e-2, 1e-3, 1e-4)]
        assert tis[0].lo == tis[1].lo == tis[2].lo
        assert tis[0].hi < tis[1].hi < tis[2].hi

    def test_shrinking_eps_nests_small_p_range(self):
        prob = step_problem(1.75, 0.5, 0.1)
        eig = fake_eig(FOUR_PI_SQ)
        tis = [tau_interval("thm1_ii", prob, eig, eps) for eps in (1e-2, 1e-3, 1e-4)]
        assert tis[0].lo == tis[1].lo == tis[2].lo
        assert tis[0].hi < tis[1].hi < tis[2].hi

    def test_small_p_range_oracle(self):
        mu, eps = 0.1, 1e-3
        prob = step_problem(1.75, 0.5, mu)
        ti = tau_interval("thm1_ii", prob, fake_eig(FOUR_PI_SQ), eps)
        edge_mass = mu / 4.0 + 0.75 * eps
        run_int = 5.0 * mu / 32.0 + 0.28125 * eps
        assert ti.lo == FOUR_PI_SQ
        assert ti.hi == pytest.approx(
            0.75**1.75 / (0.25**0.75 * edge_mass**0.25 * run_int**0.75), rel=1e-12
        )

    def test_small_p_range_takes_each_reach_on_its_own(self):
        # window (0.2, 0.6): the left reach has edge mass 0.2 mu + 0.6 eps and
        # running integral 0.1 mu + 0.18 eps, the right one 0.4 mu + 0.8 eps
        # and 0.24 mu + 0.32 eps; A = 0.25^0.75 / 0.75^1.75
        mu, eps = 0.1, 1e-3
        prob = step_problem(1.75, 0.5, mu, window=Interval(0.2, 0.6))
        ti = tau_interval("thm1_ii", prob, fake_eig(FOUR_PI_SQ), eps)
        A = 0.25**0.75 / 0.75**1.75
        sides = [(0.2 * mu + 0.6 * eps, 0.1 * mu + 0.18 * eps),
                 (0.4 * mu + 0.8 * eps, 0.24 * mu + 0.32 * eps)]
        L = max(A * M**0.25 * I**0.75 for M, I in sides)
        assert ti.hi == pytest.approx(1.0 / L, rel=1e-12)

    @pytest.mark.parametrize(
        "theorem, p, csup",
        [("thm1_i", 2.5, 0.0), ("thm1_ii", 1.75, 0.0), ("thm2_i", 2.5, 0.5),
         ("thm2_ii", 1.75, 0.5), ("cor", 1.75, 0.0)],
    )
    def test_scale_is_the_thm1_ii_edge_mass_power(self, theorem, p, csup):
        # an off-centre window, so the two reaches' edge masses differ: 0.2 mu
        # + 0.6 eps on the left reach and 0.4 mu + 0.8 eps on the right, with
        # running integrals 0.1 mu + 0.18 eps and 0.24 mu + 0.32 eps at their
        # far ends; q = (p-1)/2 lies in every theorem's q range.  Every range
        # starts at lambda1, and only thm1_ii scales a reach
        window, eps = Interval(0.2, 0.6), 1e-3
        prob = step_problem(p, (p - 1.0) / 2.0, 0.1, csup=csup, window=window)
        assert tau_interval(theorem, prob, fake_eig(1.0), eps).lo == 1.0
        prof = outer_profile(theorem, prob, eps)
        ends = (("left", window.b, 0.02 + 0.6 * eps, 0.01 + 0.18 * eps),
                ("right", window.a, 0.04 + 0.8 * eps, 0.024 + 0.32 * eps))
        for side, x, M, I in ends:
            s, g = prof.on_reach(prob, eps, side, x)
            if theorem == "thm1_ii":
                assert s == pytest.approx(M ** (2.0 - p), rel=1e-12)
            else:
                assert s == 1.0
            if theorem.startswith("thm1"):
                assert g == pytest.approx(I, rel=1e-12)

    def test_hyperbolic_ranges_need_c(self):
        prob = step_problem(2.0, 0.5, 0.1)
        with pytest.raises(ValueError, match="c vanishes"):
            tau_interval("thm2_i", prob, fake_eig(1.0), 1e-3)

    def test_default_eps_scales_with_mass(self):
        m = step_weight(UNIT, WINDOW, 1.0, -0.5)
        assert default_eps(m) == pytest.approx(1e-3 * 1.75, rel=1e-12)


class TestProperties:
    @given(
        p=st.floats(2.0, 4.0),
        frac=st.floats(0.2, 0.8),
        mu=st.floats(0.0, 3.0),
        csup=st.floats(0.05, 5.0),
        lam=st.floats(1.0, 50.0),
    )
    def test_exp_condition_implies_sinh_condition(self, p, frac, mu, csup, lam):
        prob = step_problem(p, frac * (p - 1.0), mu, csup=csup)
        eig = fake_eig(lam)
        if check("thm2_ii", prob, eig).holds:
            assert check("thm2_i", prob, eig).holds

    @given(
        p=st.floats(1.2, 3.0),
        frac=st.floats(0.2, 0.8),
        left=st.floats(0.0, 2.0),
        right=st.floats(0.0, 2.0),
        x0=st.floats(0.05, 0.6),
        width=st.floats(0.1, 0.3),
        lam=st.floats(1.0, 50.0),
    )
    def test_lambda1_part_holds_where_a_small_eps_leaves_a_tau(
        self, p, frac, left, right, x0, width, lam
    ):
        # unequal negative masses on the two reaches; the lambda1 part and
        # the tau range read one bound, so they agree up to the eps inflation
        window = Interval(x0, x0 + width)
        m = Weight([0.0, window.a, window.b, 1.0], [[-left], [1.0], [-right]])
        prob = Problem(p=p, q=frac * (p - 1.0), domain=UNIT, m=m,
                       c=Weight.constant(0.0, UNIT), window=window)
        eig = fake_eig(lam)
        for rep in check_all(prob, eig):
            if not rep.applicable:
                continue
            part = {"thm1_i": "i1", "thm1_ii": "i3"}.get(rep.name)
            lhs = rep.auxiliary[f"{part}_lhs"] if part else rep.lhs
            if lhs * lam < 1.0 - 1e-6:
                assert tau_interval(rep.name, prob, eig, 1e-12).lo == lam
            elif lhs * lam > 1.0 + 1e-6:
                with pytest.raises(EpsTooLargeError):
                    tau_interval(rep.name, prob, eig, 1e-12)

    @given(p=st.floats(1.6, 3.5), frac=st.floats(0.2, 0.8), mu=st.floats(0.01, 2.0))
    def test_reports_carry_consistent_margin(self, p, frac, mu):
        prob = step_problem(p, frac * (p - 1.0), mu)
        for rep in check_all(prob, fake_eig(10.0)):
            if rep.applicable and not math.isnan(rep.lhs):
                assert rep.margin == rep.rhs - rep.lhs
                if rep.holds:
                    assert rep.margin >= 0.0
