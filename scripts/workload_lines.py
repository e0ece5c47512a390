"""Statements of the plap1d package that the benchmark workloads never run.

Every problem that the three workloads of perfbench/workloads.py draw at the
given seeds goes through `plap1d.cli.main` once, in this process, under a
`sys.settrace` line tracer that is installed before the package is imported,
so module-level code counts too.  perfbench is only read: its workloads
module is imported with bytecode writing off and is never changed.

A statement counts as run when any line of its own text ran, up to its first
nested statement for compound ones.  Statements whose lines hold no bytecode
(`try:`, `global`) are not counted.  For each module of the package the
script prints how many statements never ran and lists each with its line
number and first line, then one line per workload and seed with the exit
codes of its calls.  Dead code shows up as a listed line; a line that only
tier-1 tests or other inputs reach shows up too, so read the list as "not
measured by the benchmark", not as "unreachable".

Usage (from the repository root)::

    python3 scripts/workload_lines.py --seeds 0 1 2
"""

from __future__ import annotations

import argparse
import ast
import collections
import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "plap1d")


def executable_lines(code) -> set[int]:
    """Line numbers that carry bytecode in code or any code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def statements(path: str) -> list[tuple[int, range]]:
    """(first line, own lines) of every statement in the file that holds bytecode."""
    with open(path) as fh:
        source = fh.read()
    live = executable_lines(compile(source, path, "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        nested = [
            child.lineno
            for field in ("body", "orelse", "finalbody", "handlers")
            for child in getattr(node, field, ())
        ]
        own = range(node.lineno, min(nested, default=node.end_lineno + 1))
        if not own:  # a one-line compound statement such as `if x: y`
            own = range(node.lineno, node.lineno + 1)
        if live.intersection(own):
            out.append((node.lineno, own))
    return sorted(out)


def trace_workloads(seeds: list[int]) -> tuple[dict[str, set[int]], list[str]]:
    """Lines run per package file, and one exit-code line per workload and seed."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    ran: dict[str, set[int]] = collections.defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    exits = []
    sys.settrace(tracer)
    try:
        from plap1d import cli

        for workload in sorted(workloads.WORKLOADS):
            for seed in seeds:
                codes = collections.Counter()
                for prob in workloads.problems(workload, seed):
                    with tempfile.TemporaryDirectory() as tmp:
                        config = os.path.join(tmp, "config.json")
                        with open(config, "w") as fh:
                            json.dump(prob.config, fh)
                        quiet = io.StringIO()
                        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                            codes[cli.main(prob.argv(config, os.path.join(tmp, "out"), seed))] += 1
                summary = ", ".join(f"{n} x exit {rc}" for rc, n in sorted(codes.items()))
                exits.append(f"{workload} seed {seed}: {summary}")
    finally:
        sys.settrace(None)
    return ran, exits


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = ap.parse_args()

    ran, exits = trace_workloads(args.seeds)
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            text = fh.read().splitlines()
        stmts = statements(path)
        missed = [first for first, own in stmts if not ran[path].intersection(own)]
        print(f"{name}: {len(missed)} of {len(stmts)} statements never ran")
        for line in missed:
            print(f"  {line:4d}  {text[line - 1].strip()}")
    print("\n".join(exits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
