"""Byte-identity check of the plap1d CLI between two checkouts.

The configs are those the three benchmark workloads of perfbench/workloads.py
draw at the given seeds (read from the first checkout, never changed), each
distinct config once, plus the BASE config of tests/test_cli.py and five
variants of it (VARIANTS) that reach cases that no workload reaches: three
constant windows (an odd window cell count; p = 7 on 4096 window cells; and
p = 5 on a 64-cell window, the fewest cells `window_eigenpair` gives, where
the closed form's half-window march runs on 32 cells), a window inside
which m jumps, where lambda1 has no closed form, and a c that jumps inside
the window, off the grid and off m's breaks, which the Rayleigh quotient's
c term and the solver's c plan integrate.  On every config the script runs CLI check, eigen, certify
and solve in both checkouts, then verify on the
sub.csv, super.csv and u.csv that checkout's solve call wrote.  Certify and solve get the workload's --policy, if any.  Once per run
it also calls sweep --jobs 1 on the BASE config over two values of q, and
--help of the program and of each of the six subcommands, so the parser is
compared too.  Each call runs in a fresh interpreter with that checkout's
src/ first on the path, and the script compares exit codes, stdout, stderr
and every file the call wrote to its --out directory.

It prints one line per call and a summary, and exits 1 if any call's
outputs differ, 0 if every output is byte-identical.  Under each call that
differs it prints how far its numbers moved: the largest relative difference
|a - b| / max(|a|, |b|) over the float fields the two JSON reports share (with
the file and field where it occurs), and, for each numeric column that
differs in a CSV both calls wrote, that per-entry difference next to
max|a - b| / max|a|, the move relative to the base column's sup norm.  An
entry near zero dominates the first; the second says how far the grid
function moved as a whole.  After the summary line it prints how many calls
changed their exit code and, for each report field and CSV column that
moved, the largest of these differences over all calls, and last the line
total of each checkout's src/plap1d.

Usage (from the repository root)::

    python3 scripts/compare_cli.py /path/to/base . --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

COMMANDS = ("check", "eigen", "certify", "solve", "verify")
SUBCOMMANDS = ("check", "eigen", "certify", "solve", "verify", "sweep")

# (name, changes to BASE): 258 cells put 129 in the window; p = 7 on 4096
# window cells; p = 5 on 64 window cells is the coarsest window, where the
# closed form's half march has 32 cells; m = 2 on (0.2, 0.5) and 0.7 on
# (0.5, 0.9) jumps inside the window (0.2, 0.9), so lambda1 is the
# Rayleigh quotient of the probe loop's eigenfunction; c = 0.3 on (0, 0.37)
# and 0.6 + 0.2 (x - 0.37) on (0.37, 1) jumps at a point that is neither a
# node nor a break of m
VARIANTS = (
    ("test_cli-base-odd-window", {"n": 258}),
    ("test_cli-base-p7", {"p": 7.0, "n": 8192}),
    ("test_cli-base-p5-coarse", {"p": 5.0, "n": 128}),
    ("test_cli-base-window-jump", {"window": [0.2, 0.9], "m": {"pieces": [
        {"from": 0.0, "to": 0.2, "poly": [-0.5]},
        {"from": 0.2, "to": 0.5, "poly": [2.0]},
        {"from": 0.5, "to": 0.9, "poly": [0.7]},
        {"from": 0.9, "to": 1.0, "poly": [-0.5]},
    ]}}),
    ("test_cli-base-c-jump", {"c": {"pieces": [
        {"from": 0.0, "to": 0.37, "poly": [0.3]},
        {"from": 0.37, "to": 1.0, "poly": [0.6, 0.2]},
    ]}}),
)

CHILD = "import sys; sys.path.insert(0, sys.argv[1]); from plap1d.cli import main; sys.exit(main(sys.argv[2:]))"


def base_config(root: str) -> dict:
    """The BASE config literal of tests/test_cli.py, read without importing it."""
    with open(os.path.join(root, "tests", "test_cli.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BASE" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    sys.exit(f"compare_cli: no BASE config in {root}/tests/test_cli.py")


def cases(root: str, seeds: list[int]) -> list[tuple[str, dict, str | None, int]]:
    """(name, config, policy, seed) for the test base, its variants and every
    distinct workload config."""
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads

    base = base_config(root)
    out = [("test_cli-base", base, None, 0)]
    out += [(name, {**base, **change}, None, 0) for name, change in VARIANTS]
    seen = {(json.dumps(cfg, sort_keys=True), None) for _, cfg, _, _ in out}
    for seed in seeds:
        for workload in sorted(workloads.WORKLOADS):
            for prob in workloads.problems(workload, seed):
                key = (json.dumps(prob.config, sort_keys=True), prob.policy)
                if key not in seen:
                    seen.add(key)
                    out.append((f"{workload}-s{seed}-{prob.name}", prob.config, prob.policy, seed))
    return out


def calls(todo) -> list[tuple[str, str, list[str], str | None]]:
    """(command, label, argv, --out directory) of every CLI call to compare."""
    out = []
    for name, _, policy, seed in todo:
        for command in COMMANDS:
            out_dir = f"out-{command}-{name}"
            argv = [command, f"{name}.json", "--out", out_dir, "--seed", str(seed)]
            if policy and command in ("certify", "solve"):
                argv += ["--policy", policy]
            if command == "verify":
                for flag, fname in (("--sub", "sub.csv"), ("--super", "super.csv"), ("--u", "u.csv")):
                    argv += [flag, os.path.join(f"out-solve-{name}", fname)]
            out.append((command, name, argv, out_dir))
    base = todo[0][0]
    argv = ["sweep", f"{base}.json", "q=0.4:0.6:2", "--jobs", "1", "--out", "out-sweep"]
    out.append(("sweep", base, argv, "out-sweep"))
    out.append(("help", "plap1d", ["--help"], None))
    out.extend(("help", command, [command, "--help"], None) for command in SUBCOMMANDS)
    return out


def run(root: str, work: str, argv: list[str], out_dir: str | None):
    """One CLI call in a fresh interpreter; (exit code, stdout, stderr, {file: bytes})."""
    src = os.path.join(os.path.abspath(root), "src")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, src, *argv], cwd=work, capture_output=True
    )
    files = {}
    if out_dir:
        full = os.path.join(work, out_dir)
        for dirpath, _, names in os.walk(full):
            for fname in names:
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, full)] = fh.read()
    # warnings name the source file; the checkout's location is not an output
    strip = lambda b: b.replace(src.encode(), b"<src>")
    return proc.returncode, strip(proc.stdout), strip(proc.stderr), files


def json_floats(obj, path=""):
    """(path, value) of every float leaf of a parsed JSON value."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from json_floats(val, f"{path}/{key}")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from json_floats(val, f"{path}/{i}")
    elif isinstance(obj, float):
        yield path, obj


def rel_diff(x: float, y: float) -> float:
    return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))


def sup_diff(x, y) -> float:
    """max|x - y| / max|x|, the move relative to the base column's sup norm."""
    top = max(map(abs, x), default=0.0)
    worst = max((abs(a - b) for a, b in zip(x, y)), default=0.0)
    return worst / top if top else (0.0 if worst == 0.0 else math.inf)


def csv_columns(data: bytes) -> dict[str, list[float | None]]:
    """The numeric columns of a CSV by header, with None for an empty cell
    (a NaN in sweep.csv); a column with a cell that is neither a number nor
    empty (a sweep status) is left out."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    out = {}
    for i, name in enumerate(rows[0] if rows else []):
        try:
            out[name] = [float(row[i]) if row[i] else None for row in rows[1:]]
        except (IndexError, ValueError):
            continue
    return out


def numbers(a: dict, b: dict):
    """(file, field, base numbers, changed numbers) of every float field of
    the JSON reports and every numeric CSV column, over the files both calls
    wrote that differ.  A CSV column keeps the rows where both calls wrote a
    number when the row counts agree, and all its cells otherwise."""
    for fname in sorted(set(a) & set(b)):
        if a[fname] == b[fname]:
            continue
        if fname.endswith(".json"):
            x = dict(json_floats(json.loads(a[fname])))
            y = dict(json_floats(json.loads(b[fname])))
            for path in sorted(x.keys() & y.keys()):
                yield fname, path, (x[path],), (y[path],)
        elif fname.endswith(".csv"):
            x, y = csv_columns(a[fname]), csv_columns(b[fname])
            for col in [col for col in x if col in y]:
                if len(x[col]) != len(y[col]):
                    yield fname, col, x[col], y[col]
                    continue
                both = [(u, v) for u, v in zip(x[col], y[col]) if u is not None and v is not None]
                yield fname, col, tuple(u for u, _ in both), tuple(v for _, v in both)


def moved(a: dict, b: dict) -> list[str]:
    """Largest relative differences between two calls' output files."""
    parts = []
    worst, where = 0.0, ""
    reports = any(f.endswith(".json") and a[f] != b[f] for f in set(a) & set(b))
    for fname, field, xs, ys in numbers(a, b):
        if fname.endswith(".json"):
            d = rel_diff(xs[0], ys[0])
            if d > worst:
                worst, where = d, f" at {fname} {field}"
        elif len(xs) != len(ys):
            parts.append(f"{fname} {field}: {len(xs)}/{len(ys)} rows")
        elif xs != ys:
            parts.append(
                f"{fname} {field} {max(map(rel_diff, xs, ys)):.3g} per entry, "
                f"{sup_diff(xs, ys):.3g} of sup"
            )
    if reports:
        parts.insert(0, f"report {worst:.3g}{where}")
    return parts


def summary(results) -> list[str]:
    """Closing lines over (base, change) results of run(): the calls whose
    exit code changed, then for each report field (list indices shown as *)
    and CSV column that moved, the largest relative move over all calls, per
    entry and, for a CSV column, of the base column's sup norm."""
    changed = sum(a[0] != b[0] for a, b in results)
    worst = {}
    for a, b in results:
        for fname, field, xs, ys in numbers(a[3], b[3]):
            if len(xs) == len(ys) and xs != ys:
                key = fname, re.sub(r"/\d+(?=/|$)", "/*", field)
                old = worst.get(key, (0.0, 0.0))
                worst[key] = (max(old[0], *map(rel_diff, xs, ys)), max(old[1], sup_diff(xs, ys)))
    lines = [f"{changed} of {len(results)} calls changed their exit code"]
    for (fname, field), (d, sup) in sorted(worst.items()):
        lines.append(f"largest move of {fname} {field}: {d:.3g}" + (
            "" if fname.endswith(".json") else f" per entry, {sup:.3g} of sup"))
    return lines


def src_lines(root: str) -> int:
    """Line total of the .py files of root's src/plap1d, as wc -l counts."""
    pkg = os.path.join(root, "src", "plap1d")
    total = 0
    for fname in os.listdir(pkg):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def line_delta(base: str, change: str) -> str:
    """The closing line: each checkout's src/plap1d line total and the change."""
    a, b = src_lines(base), src_lines(change)
    return f"src/plap1d lines: {a} base, {b} change ({b - a:+d})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="root of the reference checkout")
    ap.add_argument("change", help="root of the checkout to compare")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()

    todo = cases(args.base, args.seeds)
    planned = calls(todo)
    print(f"{len(todo)} configs x {len(COMMANDS)} commands, 1 sweep, "
          f"{len(SUBCOMMANDS) + 1} help texts", flush=True)
    diffs, results = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        works = {}
        for label in ("base", "change"):
            works[label] = os.path.join(tmp, label)
            os.makedirs(works[label])
            for name, cfg, _, _ in todo:
                with open(os.path.join(works[label], f"{name}.json"), "w") as fh:
                    json.dump(cfg, fh)
        for command, name, argv, out_dir in planned:
            a = run(args.base, works["base"], argv, out_dir)
            b = run(args.change, works["change"], argv, out_dir)
            found = [
                what
                for what, x, y in (("exit code", a[0], b[0]), ("stdout", a[1], b[1]), ("stderr", a[2], b[2]))
                if x != y
            ]
            for fname in sorted(set(a[3]) | set(b[3])):
                if a[3].get(fname) != b[3].get(fname):
                    found.append(fname)
            status = "differs in " + ", ".join(found) if found else "identical"
            print(f"{command:8s} {name:40s} exit {a[0]}/{b[0]}  {status}", flush=True)
            if found:
                parts = moved(a[3], b[3])
                if parts:
                    print(f"{'':8s} largest relative difference: {', '.join(parts)}", flush=True)
            results.append((a, b))
            diffs += bool(found)
    print(f"{diffs} of {len(planned)} calls differ")
    print("\n".join(summary(results)))
    print(line_delta(args.base, args.change))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
