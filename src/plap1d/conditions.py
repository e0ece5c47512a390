"""Sufficient-condition inequalities and the tau ranges they make feasible.

One function, `OuterProfile.on_reach`, states each theorem's outer profile
f = sigma(tau s) g on either reach beside the window; `outer_bound` reads
it at the reach ends and `subsuper` samples it at the reach nodes.  That
bound, L(eps), states each theorem's lambda1 inequality: the condition
holds where L(0) <= 1/lambda1, and the subsolution builder takes tau from
[lambda1, 1/L(eps)].  `check` compares L(0) with 1/lambda1 (and,
for thm1_*, the c part) in plain IEEE arithmetic, strict where the source
inequality is strict, and reports the numbers it compared so downstream
code can apply its own slack.
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
    """Feasible [lo, hi] for tau; the glued profiles certify the weight tau m."""

    lo: float
    hi: float

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


def _two_part_report(name, parts, reason):
    # parts: (label, lhs, rhs, strict); the binding part (smallest normalized
    # margin, ties to the strict one) provides the headline lhs/rhs
    def norm_margin(part):
        _, lhs, rhs, strict = part
        return ((rhs - lhs) / max(1.0, abs(rhs)), not strict)

    aux = {}
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
    """One theorem's outer profile f^k, f = sigma(tau s) g, sigma(t) = (A t)^{1/r}.

    `on_reach` gives s and g on either reach, for every theorem.  f peaks
    at the reach's far end, so a tau is admissible while A tau s g_end^r <= 1
    on both reaches, the bound `outer_bound` states.  shape names g: "power"
    for thm1_*, "linear" for cor, "sinh" for thm2_i and "exp" for thm2_ii.
    """

    shape: str
    k: float
    A: float
    r: float
    rate: float = 0.0
    scale_power: float = 0.0

    def sigma(self, t: float) -> float:
        return (self.A * t) ** (1.0 / self.r)

    def on_reach(self, prob: Problem, eps: float, side: str, x):
        """(s, g(x)) on the left reach [a, window.b] or the right reach
        [window.a, b], side "left" or "right", at a point or an array of
        points x.

        For thm1_* g is the eps-inflated negative mass integrated from the
        reach's outer end, int_a^x M_a or int_x^b M_b with M_a(y) =
        int_a^y (m^- + eps) and M_b(z) = int_z^b (m^- + eps), exactly, and s
        is the reach's whole such mass to the power scale_power: 2 - p for
        thm1_ii, since the profile's M^{p-2} factor is smallest at the
        window edge for p <= 2, and 0, so s = 1, for thm1_i; a reach with no
        mass gets s = 0.  For the other theorems s = 1 and g is d,
        sinh(rate d) or expm1(rate d) at the distance d from the reach's
        outer end.
        """
        a, b = prob.domain.a, prob.domain.b
        left = side == "left"
        if self.shape != "power":
            d = x - a if left else b - x
            g = {"sinh": np.sinh, "exp": np.expm1}.get(self.shape)
            return 1.0, d if g is None else g(self.rate * d)
        F, G = _mass_integrals(prob.m, eps)
        if left:
            edge, g = F(prob.window.b), G(x) - G(a)
        else:
            total = F(b)
            edge, g = total - F(prob.window.a), total * (b - x) - (G(b) - G(x))
        return (edge**self.scale_power if edge > 0.0 else 0.0), g


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
        return OuterProfile("power", (p - 1.0) / d, A, p - 1.0, scale_power=2.0 - p)
    mminus = max(prob.m.neg_part().sup_norm(), eps)
    C = c_pq(p, q)
    if which == "cor":
        return OuterProfile("linear", p / d, mminus / C, p)
    cn = prob.c_plus.sup_norm()
    shape = "sinh" if which == "thm2_i" else "exp"
    return OuterProfile(shape, p / d, mminus / cn, p, (cn / C) ** (1.0 / p))


def outer_bound(which: str, prob: Problem, eps: float = 0.0, check: bool = True) -> float:
    """L(eps), the max over the two reaches of A s g_end^r.

    A and r come from `outer_profile(which, prob, eps, check)`, and s and
    g_end, g at the reach's far end, from its `OuterProfile.on_reach`; a
    reach with g_end = 0 or A s = 0 bounds nothing, even where g_end^r
    overflows (thm2_* with no negative mass and a large c).  The
    condition's lambda1 part is
    L(0) <= 1/lambda1 (`check`) and the tau range is [lambda1, 1/L(eps)]
    (`tau_interval`).
    """
    prof = outer_profile(which, prob, eps, check)
    w = prob.window
    with np.errstate(over="ignore"):  # a large c overflows g or g^r: L = inf
        ends = (prof.on_reach(prob, eps, "left", w.b), prof.on_reach(prob, eps, "right", w.a))
        return max(prof.A * s * g**prof.r if g > 0.0 and prof.A * s > 0.0 else 0.0 for s, g in ends)


def check(name: str, prob: Problem, eig: EigenPair) -> ConditionReport:
    """The named condition at the eigenvalue eig.lambda1.

    Its lambda1 part is `outer_bound`'s L(0) <= 1/lambda1, strict for
    thm1_*; thm1_* add a c part, (i2) gamma^p ||c^+|| <= (2-p+q)(p-1)/d^p or
    (i4) gamma^p ||c^+|| <= ((p-1)/d)^p q with d = p-1-q.  For cor and
    thm2_* a weight c of the other family leaves no left side, so lhs is NaN.
    """
    reason = applicability(name, prob)
    p, q = prob.p, prob.q
    rhs = 1.0 / eig.lambda1
    lhs = math.nan if reason in (_NO_C, _HAS_C) else outer_bound(name, prob, check=False)
    if name in ("thm1_i", "thm1_ii"):
        d = p - 1.0 - q
        c_lhs = gamma(prob.domain, prob.window) ** p * prob.c_plus.sup_norm()
        if name == "thm1_i":
            parts = [("i1", lhs, rhs, True), ("i2", c_lhs, (2.0 - p + q) * (p - 1.0) / d**p, False)]
        else:
            parts = [("i3", lhs, rhs, True), ("i4", c_lhs, ((p - 1.0) / d) ** p * q, False)]
        return _two_part_report(name, parts, reason)
    aux = {"C_pq": c_pq(p, q)}
    if not math.isnan(lhs):
        mminus = prob.m.neg_part().sup_norm()
        if name == "cor":
            aux["m_minus_sup"] = mminus
        else:
            rate = outer_profile(name, prob, check=False).rate
            aux.update(lambda_tilde=rate, m_minus_sup=mminus, c_sup=prob.c_plus.sup_norm())
    return _report(name, lhs, rhs, lhs <= rhs, reason, aux)


def check_all(prob: Problem, eig: EigenPair) -> list[ConditionReport]:
    """Every condition's report, in CONDITION_NAMES order."""
    return [check(name, prob, eig) for name in CONDITION_NAMES]


def tau_interval(which: str, prob: Problem, eig: EigenPair, eps: float) -> TauInterval:
    """The tau range the chosen proof admits at negative-mass inflation eps:
    [lambda1, 1/L(eps)], with L from `outer_bound(which, prob, eps)`.

    tau >= lambda1 lets the window eigenfunction certify the weight tau m,
    and tau <= 1/L(eps) keeps both outer pieces at or below 1, so the
    tallest piece the builders accept peaks at exactly 1.  One tau serves
    both reaches and the rescale.  The upper end is capped at
    TAU_CAP_FACTOR lambda1 so a problem with no negative mass still gets a
    finite range.  A condition that does not apply raises ValueError naming
    its `applicability` reason; an empty range raises EpsTooLargeError, and
    the caller is expected to shrink eps and retry.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    L = outer_bound(which, prob, eps)
    lo = eig.lambda1
    hi = min(math.inf if L == 0.0 else 1.0 / L, TAU_CAP_FACTOR * lo)
    if not lo <= hi:
        raise EpsTooLargeError(
            f"feasible tau range for {which} empty at eps={eps:g}: "
            f"lo={lo:g} > hi={hi:g}"
        )
    return TauInterval(lo=lo, hi=hi)


def default_eps(m: Weight) -> float:
    """Starting eps for the inflation schedule, 1e-3 * (1 + total |m| mass)."""
    total = m.pos_part().integral() + m.neg_part().integral()
    return 1e-3 * (1.0 + total)
