"""Paired timing of two checkouts' CLI on one benchmark workload, in one process.

Both trees' src/plap1d are imported into this one interpreter, each under
its own package name (plap1d_base, plap1d_change; every import inside the
package is relative, so the two copies share no module).  The problem list
is the one perfbench/workloads.py draws for --workload and --seed, read from
the base checkout.  Its configs are written once to a temporary directory.
A round runs the whole list through each tree's `cli.main`, as the
benchmark's rounds do, and times it; which tree runs first alternates from
round to round, so a drift in the machine's speed falls on both sides
alike.  One untimed round per tree comes first.

It prints each round's seconds for both trees and their ratio, then the
median and quartiles of each side's round seconds, the median ratio, and
in how many rounds the change was faster.  It also reports any problem
whose exit code differs between the trees.  --seed takes several seeds:
each seed's list gets its own rounds and summary, and a last line pools
the paired rounds of all seeds into one median ratio and win count.

Usage (from the repository root)::

    python3 scripts/ab_rounds.py /path/to/base . --workload certify-scan --rounds 20
    python3 scripts/ab_rounds.py /path/to/base . --workload solve-step --seed 0 1 2 3 --rounds 16
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time


def import_module(name: str, path: str, package_dir: str | None = None):
    """The module at path, registered as name (a package when package_dir
    is given)."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [package_dir]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def import_cli(root: str, name: str):
    """The tree's plap1d.cli, imported as the package `name`."""
    pkg = os.path.join(root, "src", "plap1d")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        sys.exit(f"ab_rounds: no program at {pkg}")
    import_module(name, os.path.join(pkg, "__init__.py"), pkg)
    return importlib.import_module(f"{name}.cli")


def run_list(cli, calls) -> tuple[float, list]:
    """Seconds of one pass over the calls, and their exit codes."""
    codes, total = [], 0.0
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                codes.append(cli.main(argv))
            except Exception as exc:  # a raising call is timed and recorded like the benchmark's
                codes.append(type(exc).__name__)
            total += time.perf_counter() - t0
    return total, codes


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summarize(seconds: dict, label: str = "") -> None:
    """The median change/base ratio of paired rounds and the change's wins."""
    ratios = [c / b for b, c in zip(seconds["base"], seconds["change"])]
    wins = sum(c < b for b, c in zip(seconds["base"], seconds["change"]))
    print(f"{label}median change/base {statistics.median(ratios):.3f}; "
          f"change faster in {wins} of {len(ratios)} rounds")


def run_seed(workloads, sides: dict, workload: str, seed: int, rounds: int) -> dict:
    """Each side's round seconds on one seed's problem list; prints the rounds
    and their summary."""
    problems = workloads.problems(workload, seed)
    with tempfile.TemporaryDirectory() as tmp:
        calls, out_dir = [], os.path.join(tmp, "out")
        for i, prob in enumerate(problems):
            path = os.path.join(tmp, f"problem{i}.json")
            with open(path, "w") as fh:
                json.dump(prob.config, fh)
            calls.append(prob.argv(path, out_dir, seed))
        codes = {side: run_list(cli, calls)[1] for side, cli in sides.items()}
        seconds = {side: [] for side in sides}
        print(f"{workload} seed {seed}: {len(calls)} problems per round")
        for r in range(rounds):
            order = ("base", "change") if r % 2 == 0 else ("change", "base")
            for side in order:
                seconds[side].append(run_list(sides[side], calls)[0])
            b, c = seconds["base"][-1], seconds["change"][-1]
            print(f"round {r + 1:3d} ({order[0]} first): base {b:.4f} s  change {c:.4f} s  "
                  f"change/base {c / b:.3f}")

    for side in sides:
        q1, med, q3 = quartiles(seconds[side])
        print(f"{side:6s} median {med:.4f} s  quartiles {q1:.4f}-{q3:.4f} s")
    summarize(seconds)
    differ = [prob.name for prob, a, b in zip(problems, codes["base"], codes["change"]) if a != b]
    print(f"exit codes differ on {len(differ)} of {len(calls)} problems" + (f": {differ}" if differ else ""))
    return seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="base checkout")
    ap.add_argument("change", help="changed checkout")
    ap.add_argument("--workload", default="certify-scan")
    ap.add_argument("--seed", type=int, nargs="+", default=[0])
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    workloads = import_module("ab_workloads", os.path.join(args.base, "perfbench", "workloads.py"))
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    sides = {"base": import_cli(args.base, "plap1d_base"),
             "change": import_cli(args.change, "plap1d_change")}
    pooled = {side: [] for side in sides}
    for seed in args.seed:
        for side, secs in run_seed(workloads, sides, args.workload, seed, args.rounds).items():
            pooled[side] += secs
    if len(args.seed) > 1:
        summarize(pooled, f"pooled over seeds {' '.join(map(str, args.seed))}: ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
