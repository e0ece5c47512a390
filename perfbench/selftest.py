"""Self-test of the benchmark's checks and failure counting, on tiny grids.

Usage, from the root of the repository::

    python3 perfbench/selftest.py

It solves one step-weight problem (n = 128) and the manufactured problem
(n = 512), confirms that their real outputs pass every check, then perturbs
the outputs one way at a time and confirms that the matching check rejects
each perturbed answer.  It confirms that a call which exits 0 with a report
that is not certified counts as failed, and that a wrong answer in its
outputs is still found.  It then solves the step problem with the tracer
installed and confirms that the wrappers count and are all removed after.
Last it runs a round in which one CLI call raises and one problem fails in
the program, and confirms that both count as failed while the round goes
on.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import tempfile

import numpy as np

import checks
import run
import tracer
import workloads

TINY_N = 128
# the manufactured solution is second-order accurate: 5e-5 off sin(pi x) at
# n = 128, 3e-6 at n = 512, so its 1e-5 check needs the finer grid
MANUFACTURED_N = 512


def outputs(cli, problem):
    with tempfile.TemporaryDirectory(dir=run.TMP) as tmp:
        out = os.path.join(tmp, "out")
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(problem.config, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(problem.argv(path, out, 0))
        assert rc == 0, f"{problem.name}: exit {rc}"
        return checks.read_outputs(problem.command, out)


def perturbations(report, csvs):
    """(what is wrong, the words its violation must contain, report, csvs)."""

    def edit(fn):
        r, c = copy.deepcopy(report), {k: (x.copy(), v.copy()) for k, (x, v) in csvs.items()}
        fn(r, c)
        return r, c

    x, u = csvs["u"]
    mid = len(u) // 2
    sub_at_mid = np.interp(x[mid], *csvs["sub"])
    sup_at_mid = np.interp(x[mid], *csvs["super"])

    def set_u(value):
        def fn(r, c):
            c["u"][1][mid] = value

        return fn

    yield "sub not passed", "sub certificate", *edit(lambda r, c: r["sub"]["verified"].update(passed=False))
    yield "super not passed", "super certificate", *edit(lambda r, c: r["super"]["verified"].update(passed=False))
    yield "other theorem", "theorem", *edit(lambda r, c: r.update(theorem="thm2_ii"))
    yield "lambda1 off", "lambda1", *edit(
        lambda r, c: r["sub"]["construction"].update(lambda1=r["sub"]["construction"]["lambda1"] * (1 + 1e-5))
    )
    yield "ordering_ok false", "ordering_ok", *edit(lambda r, c: r.update(ordering_ok=False))
    yield "residual above tol", "residual", *edit(lambda r, c: r.update(residual=1e-6))
    yield "min_interior zero", "min_interior", *edit(lambda r, c: r.update(min_interior=0.0))
    yield "u zero inside", "nonpositive interior", *edit(set_u(0.0))
    yield "u below sub", "below sub", *edit(set_u(sub_at_mid * (1 - 1e-6) - 1e-9))
    yield "u above super", "above super", *edit(set_u(sup_at_mid * (1 + 1e-6)))


def violations(problem, report, csvs):
    return checks.unmet(problem, report) + checks.check_outputs(problem, report, csvs)


def expect_rejected(problem, what, words, report, csvs):
    bad = violations(problem, report, csvs)
    assert any(words in line for line in bad), f"{problem.name}: '{what}' not rejected: {bad}"


def check_tracer(cli, problem):
    """The wrappers are in place while tracing, count, and are gone after."""
    from plap1d import solver
    from plap1d.core_types import AssemblyPlan

    watched = [
        (cli, "main"),
        (solver, "solve_between"),
        (solver, "principal_eigenvalue"),
        (AssemblyPlan, "__init__"),
        (AssemblyPlan, "load_vector"),
    ]
    before = [getattr(owner, name) for owner, name in watched]
    with tracer.Tracer() as tr:
        assert all(getattr(o, n) is not b for (o, n), b in zip(watched, before)), "not wrapped"
        record = run.run_problem(cli, problem, 0)
    assert all(getattr(o, n) is b for (o, n), b in zip(watched, before)), "not restored"
    assert not record["failed"] and not record["violations"], record
    metrics = tr.metrics()
    assert metrics["eigen.principal_eigenvalue.calls"] == 2, metrics
    assert metrics["solver.solve_between.load_vector_calls"] > 0, metrics
    assert metrics["cli.main.self_s"] > 0.0, metrics


def check_uncertified_outputs(cli, problem):
    """A call that exits 0 uncertified is failed, and its outputs are still checked."""
    original = cli.main

    def uncertified_and_wrong(argv):
        rc = original(argv)
        out = argv[argv.index("--out") + 1]
        path = os.path.join(out, f"{problem.command}.json")
        with open(path) as fh:
            report = json.load(fh)
        report["residual"] = 1e-3
        with open(path, "w") as fh:
            json.dump(report, fh)
        x, u = checks.read_csv(os.path.join(out, "u.csv"))
        u[len(u) // 2] = 0.0
        rows = np.column_stack([x, u])
        np.savetxt(os.path.join(out, "u.csv"), rows, delimiter=",", header="x,u", comments="")
        return rc

    cli.main = uncertified_and_wrong
    try:
        record = run.run_problem(cli, problem, 0)
    finally:
        cli.main = original
    assert record["exit"] == 0 and record["failed"], record
    assert "not certified" in record["error"], record["error"]
    assert any("nonpositive interior" in v for v in record["violations"]), record["violations"]


def main() -> int:
    cli = run.import_program()
    os.makedirs(run.TMP, exist_ok=True)

    step = workloads.step_problem("tiny-step", "solve", 2.0, 0.5, 0.1, 0.0, TINY_N)
    step.expect["theorem"] = "cor"
    manu = workloads.Problem(
        "tiny-manufactured", "solve", workloads.manufactured_config(MANUFACTURED_N, 1e-8), None, {"exact": "sin"}
    )
    for problem in (step, manu):
        report, csvs = outputs(cli, problem)
        bad = violations(problem, report, csvs)
        assert not bad, f"{problem.name}: real outputs rejected: {bad}"
        for what, words, r, c in perturbations(report, csvs):
            if words == "theorem" and "theorem" not in problem.expect:
                continue
            if words == "lambda1" and "lambda1" not in problem.expect:
                continue
            expect_rejected(problem, what, words, r, c)
        if problem is step:
            r = copy.deepcopy(report)
            r["super"]["construction"]["v_sup"] *= 1 + 1e-3
            expect_rejected(problem, "v_sup off", "v_sup", r, csvs)
        else:
            c = dict(csvs)
            x, u = csvs["u"]
            c["u"] = (x, u + 2e-5 * np.sin(np.pi * x))
            expect_rejected(problem, "u off sin(pi x)", "sin(pi x)", report, c)
        print(f"selftest: {problem.name}: passes its checks and rejects every perturbation")

    check_uncertified_outputs(cli, step)
    print("selftest: an uncertified exit-0 call counts as failed and its outputs are still checked")

    check_tracer(cli, step)
    print("selftest: the tracer wraps every layer, counts, and restores the originals")

    # a CLI call that raises, then a problem the program fails on (the p = 1.5
    # companion solve at n = 512); the round must go on to its last problem
    failing = workloads.step_problem("p1.5", "certify", 1.5, 0.2, 0.15, 0.0, 512)
    original = cli.main
    calls = []

    def raising(argv):
        calls.append(argv)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return original(argv)

    cli.main = raising
    try:
        records = run.run_round(cli, [step, failing, step], 0)
    finally:
        cli.main = original
    exits = [r["exit"] for r in records]
    assert exits == [None, 1, 0], exits
    assert [r["failed"] for r in records] == [True, True, False], records
    assert "RuntimeError" in records[0]["error"], records[0]["error"]
    assert "SolverError" in records[1]["error"], records[1]["error"]
    assert not records[2]["violations"], records[2]["violations"]
    print("selftest: a failing and a raising problem count as failed; the round goes on")
    return 0


if __name__ == "__main__":
    sys.exit(main())
