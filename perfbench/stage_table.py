"""Stage table of one traced CLI `solve`, for the ROADMAP's reference case.

Usage, from the root of the repository::

    python3 perfbench/stage_table.py

The case is a step weight with m = 1 on (1/4, 3/4) and -0.3 outside, c = 0,
p = 2, q = 0.5 on the ROADMAP's reference grid of n = 2048 cells, solved
once through `plap1d.cli.main` with the wrappers of tracer.py installed.
A stage is a traced call made directly inside `cli.main` (the `solve_full`
steps, since solve_full itself is not traced); the eigensolve inside
`build_subsolution` is counted in that stage.
"""

from __future__ import annotations

import os
import sys

import run
import tracer
import workloads

N = 2048


def main() -> int:
    cli = run.import_program()
    os.makedirs(run.TMP, exist_ok=True)
    problem = workloads.step_problem("roadmap", "solve", 2.0, 0.5, 0.3, 0.0, N)
    with tracer.Tracer() as tr:
        record = run.run_problem(cli, problem, 0)
    if record["failed"] or record["violations"]:
        sys.exit(f"stage_table: the solve did not pass: {record}")

    total = tr.stats["cli.main"]["s"]
    stages = {k[1]: v for k, v in tr.edges.items() if k[0] == "cli.main"}
    print(f"n = {N}: cli solve {total:.2f} s")
    print("| Stage | Time | Calls |")
    print("|---|---|---|")
    for label, edge in sorted(stages.items(), key=lambda kv: -kv[1]["s"]):
        print(f"| `{label}` | {edge['s']:.2f} s | {edge['calls']} |")
    rest = total - sum(edge["s"] for edge in stages.values())
    print(f"| everything else | {rest:.2f} s | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
