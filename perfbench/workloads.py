"""Problem lists of the three benchmark workloads, drawn from a seed.

A problem is one CLI call (`solve` or `certify`) on one JSON config.  The
seed draws the parameters from the values and ranges below and sets the
order of the problems; the program only ever sees the generated configs.
Every problem of a workload's list is attempted once per round.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

UNIT = [0.0, 1.0]
WINDOW = [0.25, 0.75]

# Grid sizes.  The CLI default is n = 2048; every workload runs below it so
# that a run holds several rounds of its problem list (see README.md).
STEP_SOLVE_N = 512
CERTIFY_N = 1024
# At the CLI default tol 1e-8 some draws get a report whose residual, read by
# verify's quadrature, sits above tol although the solver met it; a failure
# that depends on the seed cannot stay in a workload, so step solves ask for
# 1e-7.
STEP_TOL = 1e-7
# The manufactured problem is solved at the CLI's default tol, plus once at
# tol 1e-9, which fails every time today: the CLI exits 0 with a reported
# residual of 3.3e-9 at n = 512.
MANUFACTURED = ((512, 1e-8), (512, 1e-9))

# The companion solve in bvp.solve_g fails with "residual stalled" at
# scattered p, both below and just above p = 2 (at n = 1024, c = 0 it fails
# at p = 2.011).  Its outcome depends only on p, c and n, not on q or mu, so p
# and c are drawn from fixed values on which it succeeds for the workload's
# n, while q and mu are drawn from intervals.
P_LOW = (1.75, 1.8, 1.85, 1.9, 1.95)
P_HIGH = (2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6)

# solve-step: one step-weight problem per certificate family.  q is drawn as
# a share theta of its admissible interval; policy None means the CLI's
# `auto` picks the family by itself.  A solve gets cheaper as p drops below
# 2 (about 3.0 s at p = 1.9 against 3.6 s at p = 2 for n = 512), so the p < 2
# families draw p near 2 to keep the cost of a round steady across seeds.
STEP_FAMILIES = {
    # family: (p values, q interval as a function of p, c values, policy)
    "cor": (P_HIGH, lambda p: (0.0, p - 1.0), (0.0,), None),
    "thm1_i": (P_HIGH[1:], lambda p: (p - 2.0, p - 1.0), (0.2, 0.3, 0.4, 0.5, 0.6), "thm1_i"),
    "thm1_ii": ((1.9, 1.95, 2.0), lambda p: (0.0, p - 1.0), (0.0, 0.1, 0.2, 0.3), "thm1_ii"),
    "thm2_i": (P_HIGH, lambda p: (0.0, p - 1.0), (0.5, 0.6, 0.7, 0.8, 0.9, 1.0), None),
    "thm2_ii": ((1.9, 1.95), lambda p: (0.0, p - 1.0), (0.3, 0.4, 0.5, 0.6, 0.7, 0.8), None),
}
THETA = (0.3, 0.5)
MU = (0.05, 0.12)

# certify-scan: (p values, c values) per group; every group gets
# MU_PER_GROUP cells that differ only in mu, i.e. only outside the window.
SCAN_GROUPS = (
    (P_LOW, (0.0,)),
    ((2.0, 2.1, 2.2, 2.3, 2.4, 2.5), (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)),
    ((2.5, 2.6, 2.7, 2.8, 2.9, 3.0), (0.0,)),
)
MU_PER_GROUP = 2
SCAN_MU = (0.04, 0.1)
# Fixed, seed-independent cells: today both fail in bvp.solve_g with
# "residual stalled" (the delta-ladder quantization floor at p = 1.5).
P15_CELLS = ((1.5, 0.2, 0.15), (1.5, 0.3, 0.25))


@dataclass
class Problem:
    """One CLI call with what the checks need to know about it."""

    name: str
    command: str
    config: dict
    policy: str | None = None
    # what the checks compare against: closed forms, the exact solution,
    # the certificate family; a check whose key is absent does not apply
    expect: dict = field(default_factory=dict)

    def argv(self, config_path: str, out_dir: str, seed: int) -> list[str]:
        argv = [self.command, config_path, "--out", out_dir, "--seed", str(seed)]
        if self.policy:
            argv += ["--policy", self.policy]
        return argv


def pi_p(p: float) -> float:
    """pi_p = 2 pi / (p sin(pi/p)), the half-period of the p-sine."""
    return 2.0 * math.pi / (p * math.sin(math.pi / p))


def step_lambda1(p: float, c: float, inside: float = 1.0) -> float:
    """Principal eigenvalue on the window for constant c and m = inside there."""
    length = WINDOW[1] - WINDOW[0]
    return ((p - 1.0) * (pi_p(p) / length) ** p + c) / inside


def step_v_sup(p: float) -> float:
    """max v for -(phi_p(v'))' = 1 on (1/4, 3/4), 0 elsewhere, v(0) = v(1) = 0.

    Integrating the flux, which is 1/4 outside the window and 1/2 - x inside,
    gives (1/4)^{p'} (1 + 1/p') with p' = p / (p - 1).
    """
    pc = p / (p - 1.0)
    return 0.25**pc * (1.0 + 1.0 / pc)


def step_config(p, q, mu, c, n, tol=STEP_TOL) -> dict:
    return {
        "p": p,
        "q": q,
        "domain": UNIT,
        "window": WINDOW,
        "m": {"preset": "step", "inside": 1.0, "outside": -mu},
        "c": {"preset": "constant", "value": c},
        "n": n,
        "tol": tol,
    }


def step_problem(name, command, p, q, mu, c, n, policy=None) -> Problem:
    expect = {"lambda1": step_lambda1(p, c)}
    if c == 0.0:
        expect["v_sup"] = step_v_sup(p)
    return Problem(name, command, step_config(p, q, mu, c, n), policy, expect)


def solve_step(rng: random.Random) -> list[Problem]:
    out = []
    for family, (ps, qint, cs, policy) in STEP_FAMILIES.items():
        p = rng.choice(ps)
        qlo, qhi = qint(p)
        q = qlo + rng.uniform(*THETA) * (qhi - qlo)
        mu = rng.uniform(*MU)
        c = rng.choice(cs)
        prob = step_problem(family, "solve", p, q, mu, c, STEP_SOLVE_N, policy)
        prob.expect["theorem"] = family
        out.append(prob)
    return out


def certify_scan(rng: random.Random) -> list[Problem]:
    out = []
    for g, (ps, cs) in enumerate(SCAN_GROUPS):
        p = rng.choice(ps)
        q = rng.uniform(*THETA) * (p - 1.0)
        c = rng.choice(cs)
        for k in range(MU_PER_GROUP):
            mu = rng.uniform(*SCAN_MU)
            out.append(step_problem(f"g{g}-mu{k}", "certify", p, q, mu, c, CERTIFY_N))
    for k, (p, q, mu) in enumerate(P15_CELLS):
        out.append(step_problem(f"p1.5-{k}", "certify", p, q, mu, 0.0, CERTIFY_N))
    return out


def manufactured_config(n: int, tol: float) -> dict:
    """p = 2, q = 1/2, c = 0, m = pi^2 sin^{1/2}(pi x): u = sin(pi x) solves it."""
    return {
        "p": 2.0,
        "q": 0.5,
        "domain": UNIT,
        "window": UNIT,
        "m": {
            "preset": "sin-power",
            "exponent": 0.5,
            "amplitude": math.pi**2,
            "npieces": 128,
        },
        "c": {"preset": "constant", "value": 0.0},
        "n": n,
        "tol": tol,
    }


def solve_manufactured(rng: random.Random) -> list[Problem]:
    return [
        Problem(f"n{n}-tol{tol:g}", "solve", manufactured_config(n, tol), None, {"exact": "sin(pi x)"})
        for n, tol in MANUFACTURED
    ]


WORKLOADS = {
    "solve-step": solve_step,
    "certify-scan": certify_scan,
    "solve-manufactured": solve_manufactured,
}


def repeat_share(problems: list[Problem]) -> float:
    """Share of problems whose window problem an earlier problem already had.

    The eigenpair and the companion solve of a step problem depend only on
    p, c, the window and the grid (m is 1 on the window for all of them).
    """
    seen = set()
    repeats = 0
    for prob in problems:
        cfg = prob.config
        key = (cfg["p"], cfg["c"]["value"], cfg["n"], tuple(cfg["window"]))
        repeats += key in seen
        seen.add(key)
    return repeats / len(problems)


def problems(workload: str, seed: int) -> list[Problem]:
    """The workload's problem list for this seed, in the seed's order."""
    rng = random.Random(f"{workload}:{seed}")
    out = WORKLOADS[workload](rng)
    rng.shuffle(out)
    return out
