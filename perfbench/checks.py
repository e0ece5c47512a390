"""Checks on the reports and CSVs a CLI call wrote.

Two kinds, both read only the files the user gets:

- `unmet` lists what the report itself says was not delivered: a
  certificate that did not pass, or, for `solve`, ordering_ok false, a
  residual above the requested tol or a nonpositive interior minimum.  Such
  a call exited 0 without being certified, and counts as failed.
- `check_outputs` compares what was delivered with values computed apart
  from the program (closed forms) and with properties the method must have
  (ordering and positivity at the CSV nodes).  A violation makes the run
  incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

LAMBDA1_RTOL = 1e-6
V_SUP_RTOL = 1e-4
EXACT_ATOL = 1e-5


def read_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return data[:, 0], data[:, 1]


def read_outputs(command: str, out_dir: str) -> tuple[dict, dict]:
    """(report, {csv name: (x, values)}) as the CLI wrote them."""
    with open(os.path.join(out_dir, f"{command}.json")) as fh:
        report = json.load(fh)
    names = ("sub", "super") + (("u",) if command == "solve" else ())
    csvs = {name: read_csv(os.path.join(out_dir, f"{name}.csv")) for name in names}
    return report, csvs


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def unmet(problem, report: dict) -> list[str]:
    """What the report says was asked for and not delivered; empty when certified."""
    bad = []
    for kind in ("sub", "super"):
        verified = report[kind]["verified"]
        if not (verified and verified["passed"]):
            bad.append(f"{kind} certificate not passed: {verified}")
    if problem.command == "solve":
        tol = problem.config["tol"]
        if report["ordering_ok"] is not True:
            bad.append("ordering_ok is not true")
        residual = report["residual"]
        if residual is None or not residual <= tol:
            bad.append(f"residual {residual!r} above tol {tol:g}")
        min_interior = report["min_interior"]
        if min_interior is None or not min_interior > 0.0:
            bad.append(f"min_interior {min_interior!r} not positive")
    return bad


def check_outputs(problem, report: dict, csvs: dict) -> list[str]:
    """Every violated check, as one line each; empty when all hold."""
    bad = []
    expect = problem.expect
    if "theorem" in expect and report.get("theorem") != expect["theorem"]:
        bad.append(f"theorem {report.get('theorem')} != {expect['theorem']}")
    if "lambda1" in expect:
        lam = report["sub"]["construction"]["lambda1"]
        err = _rel(lam, expect["lambda1"])
        if not err <= LAMBDA1_RTOL:
            bad.append(f"lambda1 {lam!r} off the closed form by {err:.2e} relative")
    if "v_sup" in expect:
        v_sup = report["super"]["construction"]["v_sup"]
        err = _rel(v_sup, expect["v_sup"])
        if not err <= V_SUP_RTOL:
            bad.append(f"v_sup {v_sup!r} off the closed form by {err:.2e} relative")
    if problem.command == "solve":
        bad += _check_solution(problem, csvs)
    return bad


def _check_solution(problem, csvs: dict) -> list[str]:
    bad = []
    x, u = csvs["u"]
    if not float(np.min(u[1:-1])) > 0.0:
        bad.append("u.csv has a nonpositive interior node")
    # the box the solver works in is sub <= u <= super at the solution nodes
    sub = np.interp(x, *csvs["sub"])
    sup = np.interp(x, *csvs["super"])
    slack = 1e-12 * max(1.0, float(np.max(np.abs(sup))))
    if np.any(sub > u + slack):
        bad.append(f"u below sub at {int(np.sum(sub > u + slack))} nodes")
    if np.any(u > sup + slack):
        bad.append(f"u above super at {int(np.sum(u > sup + slack))} nodes")
    if "exact" in problem.expect:
        err = float(np.max(np.abs(u - np.sin(math.pi * x))))
        if not err <= EXACT_ATOL:
            bad.append(f"max |u - sin(pi x)| = {err:.2e} above {EXACT_ATOL:g}")
    return bad
