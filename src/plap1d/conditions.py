"""Sufficient-condition inequalities and the tau ranges they make feasible.

Each checker evaluates one printed inequality with exact piecewise-polynomial
integrals and the eigenvalue supplied by the caller, and reports the numbers
it compared so downstream code can apply its own slack.  Comparisons are the
printed ones: strict where the source inequality is strict, non-strict
otherwise, in plain IEEE arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_types import EpsTooLargeError, Interval, Problem, Weight
from .eigen import EigenPair

CONDITION_NAMES = ("thm1_i", "thm1_ii", "thm2_i", "thm2_ii", "cor")

TAU_CAP_FACTOR = 1e6


@dataclass
class ConditionReport:
    """Outcome of one sufficient condition.

    lhs/rhs are the binding part for two-part conditions; every part's numbers
    sit in auxiliary under its own keys.  holds is false whenever the
    condition is not applicable, with reason saying why.
    """

    name: str
    holds: bool
    lhs: float
    rhs: float
    margin: float
    applicable: bool
    reason: str
    auxiliary: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TauInterval:
    """Feasible [lo, hi] for tau; the profiles certify the weight
    tau * scale * m, with scale = M_eps^{p-2} for thm1_ii and 1 otherwise."""

    lo: float
    hi: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.lo <= self.hi:
            raise ValueError(f"invalid tau interval [{self.lo}, {self.hi}]")


def gamma(domain: Interval, window: Interval) -> float:
    """max of the two overlapping reach lengths, max(x1 - a, b - x0)."""
    return max(window.b - domain.a, domain.b - window.a)


def c_pq(p: float, q: float) -> float:
    """(p/(p-1-q))^{p-1} * (p-1)(q+1)/(p-1-q); blows up as q -> p-1."""
    if p <= 1.0:
        raise ValueError(f"invalid exponent: p must be > 1, got {p}")
    if not 0.0 < q < p - 1.0:
        raise ValueError(
            f"invalid exponent: q must lie in (0, p-1) = (0, {p - 1}), got {q}"
        )
    d = p - 1.0 - q
    return (p / d) ** (p - 1.0) * (p - 1.0) * (q + 1.0) / d


def _mass_integrals(m: Weight, eps: float):
    """Antiderivative pair (F, G) of the eps-inflated negative part m^- + eps.

    F(y) = int_a^y (m^- + eps) and G(y) = int_a^y F, both exact piecewise
    polynomials; the tail integrals follow as F(b) - F(z) and
    F(b) (b - z) - (G(b) - G(z)).
    """
    F = m.neg_part().affine(1.0, eps).antiderivative()
    return F, F.antiderivative()


def _side_masses(m: Weight, eps: float, x0: float, x1: float):
    """Exact one-sided negative-mass data at inflation eps.

    Returns (M_a(x1), int_a^{x1} M_a, M_b(x0), int_{x0}^b M_b) where
    M_a(y) = int_a^y (m^- + eps) and M_b(z) = int_z^b (m^- + eps).
    """
    F, G = _mass_integrals(m, eps)
    a, b = m.domain.a, m.domain.b
    Ma = float(F(x1))
    Ia = float(G(x1) - G(a))
    total = float(F(b))
    Mb = total - float(F(x0))
    Ib = total * (b - x0) - float(G(b) - G(x0))
    return Ma, Ia, Mb, Ib


def m_script(p: float, prob: Problem) -> float:
    """max over the two sides of M^-(edge)^{2-p} (int M^-)^{p-1}, at eps = 0.

    A side with no negative mass contributes 0, reading 0^{2-p} * 0^{p-1} as
    the limit value 0.
    """
    Ma, Ia, Mb, Ib = _side_masses(prob.m, 0.0, prob.window.a, prob.window.b)

    def side(mass, integral):
        if mass <= 0.0 or integral <= 0.0:
            return 0.0
        return mass ** (2.0 - p) * integral ** (p - 1.0)

    return max(side(Ma, Ia), side(Mb, Ib))


def _report(name, lhs, rhs, holds, reason, aux):
    # reason is empty exactly when the condition applies
    return ConditionReport(
        name=name,
        holds=bool(not reason and holds),
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        applicable=not reason,
        reason=reason,
        auxiliary=aux,
    )


def _two_part_report(name, parts, reason, aux):
    # parts: (label, lhs, rhs, strict); the binding part (smallest normalized
    # margin, ties to the strict one) provides the headline lhs/rhs
    def norm_margin(part):
        _, lhs, rhs, strict = part
        return ((rhs - lhs) / max(1.0, abs(rhs)), not strict)

    for label, lhs, rhs, strict in parts:
        aux[f"{label}_lhs"] = lhs
        aux[f"{label}_rhs"] = rhs
    _, lhs, rhs, _ = min(parts, key=norm_margin)
    all_hold = all((l < r) if s else (l <= r) for _, l, r, s in parts)
    return _report(name, lhs, rhs, all_hold, reason, aux)


_NO_C = "c vanishes; use the c-free condition"
_HAS_C = "requires c identically zero"


def applicability(which: str, prob: Problem) -> str:
    """Why the named condition does not apply to prob, or "" where it does:
    the text the reports print and `outer_profile` raises."""
    if which not in CONDITION_NAMES:
        raise ValueError(f"unknown condition name {which!r}, not a theorem of {CONDITION_NAMES}")
    p, q = prob.p, prob.q
    has_c = prob.c_plus.sup_norm() > 0.0
    if which == "thm1_i" and not (p >= 2.0 and q > p - 2.0):
        return "requires p >= 2 and q in (p-2, p-1)"
    if which == "thm1_ii" and p > 2.0:
        return "requires p <= 2"
    if which in ("thm2_i", "thm2_ii") and not has_c:
        return _NO_C
    if which == "thm2_i" and p < 2.0:
        return "requires p >= 2"
    if which == "cor" and has_c:
        return _HAS_C
    return ""


@dataclass(frozen=True)
class OuterProfile:
    """One theorem's outer profile f^k, f = sigma(tau) g(d), sigma = (A tau)^e.

    d is the distance from the reach's outer end.  g is the eps-inflated
    negative mass between that end and x for thm1_* (shape "power", built in
    `subsuper._profile`), d for cor, sinh(rate d) for thm2_i and
    expm1(rate d) for thm2_ii.  f peaks at the reach's far end, so a tau is
    admissible while sigma(tau) g_end <= 1, the rule of `tau_interval`.
    """

    shape: str
    k: float
    A: float
    e: float
    rate: float = 0.0

    def sigma(self, tau: float) -> float:
        return (self.A * tau) ** self.e

    def g(self, d):
        hyperbolic = {"sinh": np.sinh, "exp": np.expm1}.get(self.shape)
        return d if hyperbolic is None else hyperbolic(self.rate * d)


def outer_profile(which: str, prob: Problem, eps: float = 0.0, check: bool = True) -> OuterProfile:
    """The constants of the named theorem's outer profile; for cor and
    thm2_* A floors ||m^-|| at eps, so a weight with no negative part still
    has a finite tau range.  Raises ValueError naming the `applicability`
    reason where the theorem does not apply to prob, unless check is False."""
    reason = applicability(which, prob) if check else ""
    if reason:
        raise ValueError(f"{which}: {reason}")
    p, q = prob.p, prob.q
    d = p - 1.0 - q
    if which == "thm1_i":
        A = gamma(prob.domain, prob.window) ** (p - 2.0) * d ** (p - 1.0) / (p - 1.0)
        return OuterProfile("power", 1.0 / d, A, 1.0)
    if which == "thm1_ii":
        A = d ** (p - 1.0) / (p - 1.0) ** p
        return OuterProfile("power", (p - 1.0) / d, A, 1.0 / (p - 1.0))
    mminus = max(prob.m.neg_part().sup_norm(), eps)
    C = c_pq(p, q)
    if which == "cor":
        return OuterProfile("linear", p / d, mminus / C, 1.0 / p)
    cn = prob.c_plus.sup_norm()
    shape = "sinh" if which == "thm2_i" else "exp"
    return OuterProfile(shape, p / d, mminus / cn, 1.0 / p, (cn / C) ** (1.0 / p))


def check_thm1_i(prob: Problem, eig: EigenPair) -> ConditionReport:
    """Power-profile condition for p >= 2, q in (p-2, p-1): parts (i1), (i2)."""
    p, q = prob.p, prob.q
    gam = gamma(prob.domain, prob.window)
    d = p - 1.0 - q
    M2 = m_script(2.0, prob)
    i1_lhs = gam ** (p - 2.0) * M2
    i1_rhs = (p - 1.0) / (d ** (p - 1.0) * eig.lambda1)
    i2_lhs = gam**p * prob.c_plus.sup_norm()
    i2_rhs = (2.0 - p + q) * (p - 1.0) / d**p
    return _two_part_report(
        "thm1_i",
        [("i1", i1_lhs, i1_rhs, True), ("i2", i2_lhs, i2_rhs, False)],
        applicability("thm1_i", prob),
        {"M_2": M2},
    )


def check_thm1_ii(prob: Problem, eig: EigenPair) -> ConditionReport:
    """Power-profile condition for 1 < p <= 2: parts (i3), (i4).

    (i3) bounds the max over the two sides of M^{2-p} (int M)^{p-1}, one
    side at a time, while `tau_interval` needs a tau for both sides at once.
    Where one side has the larger edge mass and the other the larger
    integral, this condition can hold and the construction still fail
    (CHANGES.md FOUND: thm1_ii condition and construction disagree).
    """
    p, q = prob.p, prob.q
    gam = gamma(prob.domain, prob.window)
    d = p - 1.0 - q
    Mp = m_script(p, prob)
    i3_rhs = (p - 1.0) ** p / (d ** (p - 1.0) * eig.lambda1)
    i4_lhs = gam**p * prob.c_plus.sup_norm()
    i4_rhs = ((p - 1.0) / d) ** p * q
    return _two_part_report(
        "thm1_ii",
        [("i3", Mp, i3_rhs, True), ("i4", i4_lhs, i4_rhs, False)],
        applicability("thm1_ii", prob),
        {"M_p": Mp},
    )


def _profile_report(name: str, prob: Problem, eig: EigenPair) -> ConditionReport:
    """cor, thm2_i, thm2_ii: A g(gamma)^p <= 1/lambda1, with the constants of
    the theorem's outer profile at eps = 0."""
    reason = applicability(name, prob)
    aux = {"C_pq": c_pq(prob.p, prob.q)}
    lhs = math.nan
    # a profile of the other c family has no left side
    if reason not in (_NO_C, _HAS_C):
        prof = outer_profile(name, prob, check=False)
        lhs = prof.A * float(prof.g(gamma(prob.domain, prob.window))) ** prob.p
        mminus = prob.m.neg_part().sup_norm()
        if prof.rate:
            aux.update(lambda_tilde=prof.rate, m_minus_sup=mminus, c_sup=prob.c_plus.sup_norm())
        else:
            aux["m_minus_sup"] = mminus
    rhs = 1.0 / eig.lambda1
    return _report(name, lhs, rhs, lhs <= rhs, reason, aux)


def check_thm2_i(prob: Problem, eig: EigenPair) -> ConditionReport:
    """sinh-profile condition, p >= 2 with c not identically zero."""
    return _profile_report("thm2_i", prob, eig)


def check_thm2_ii(prob: Problem, eig: EigenPair) -> ConditionReport:
    """exp-profile condition, any p > 1 with c not identically zero."""
    return _profile_report("thm2_ii", prob, eig)


def check_cor(prob: Problem, eig: EigenPair) -> ConditionReport:
    """c-free condition: ||m^-|| gamma^p / C_pq <= 1/lambda1."""
    return _profile_report("cor", prob, eig)


def check_all(prob: Problem, eig: EigenPair) -> list[ConditionReport]:
    """Every condition's report, in CONDITION_NAMES order."""
    checks = (check_thm1_i, check_thm1_ii, check_thm2_i, check_thm2_ii, check_cor)
    return [check(prob, eig) for check in checks]


def tau_interval(which: str, prob: Problem, eig: EigenPair, eps: float) -> TauInterval:
    """The tau range the chosen proof admits at negative-mass inflation eps.

    The upper end has one rule, sigma(hi) g_end = 1, with sigma and g from
    `outer_profile(which, prob, eps)`, so the tallest outer piece the
    builders accept peaks at exactly 1.  g_end is max(Ia, Ib), the larger
    side's integrated eps-inflated mass, for thm1_* (one tau serves both
    sides; see `check_thm1_ii`) and g(gamma) otherwise.  The upper end is
    capped at TAU_CAP_FACTOR times max(lambda1, lo) so a problem with no
    negative mass still gets a finite range.  A condition that does not
    apply raises ValueError naming its `applicability` reason; an empty
    range raises EpsTooLargeError, and the caller is expected to shrink eps
    and retry.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    prof = outer_profile(which, prob, eps)
    lam1 = eig.lambda1
    lo, scale = lam1, 1.0
    if prof.shape == "power":
        Ma, Ia, Mb, Ib = _side_masses(prob.m, eps, prob.window.a, prob.window.b)
        g_end = max(Ia, Ib)
        if which == "thm1_ii":
            M_eps = max(Ma, Mb)
            lo = lam1 * M_eps ** (2.0 - prob.p)
            scale = M_eps ** (prob.p - 2.0)
    else:
        g_end = float(prof.g(gamma(prob.domain, prob.window)))
    denom = prof.A * g_end ** (1.0 / prof.e)
    hi = math.inf if denom == 0.0 else 1.0 / denom
    hi = min(hi, TAU_CAP_FACTOR * max(lam1, lo))
    if not lo <= hi:
        raise EpsTooLargeError(
            f"feasible tau range for {which} empty at eps={eps:g}: "
            f"lo={lo:g} > hi={hi:g}"
        )
    return TauInterval(lo=lo, hi=hi, scale=scale)


def default_eps(m: Weight) -> float:
    """Starting eps for the inflation schedule, 1e-3 * (1 + total |m| mass)."""
    total = m.pos_part().integral() + m.neg_part().integral()
    return 1e-3 * (1.0 + total)
