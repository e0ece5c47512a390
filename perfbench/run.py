"""Benchmark of the certify-and-solve pipeline, run through the plap1d CLI.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload solve-step --seed 0 --seconds 10 --trace 0

Each problem of the workload is one in-process call of `plap1d.cli.main`
(`solve` or `certify`, with `--out` in a temporary directory under
perfbench/tmp/), timed from the call to its exit code; its report and CSVs are
then checked (checks.py).  One process runs one problem at a time: a closed
loop with a single caller.  A run repeats whole rounds of the workload's
problem list until --seconds have passed.  With --trace 1 each round is run
once untraced and once with the per-layer wrappers of tracer.py installed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; every run also writes it, with the seed, the
per-problem records and the environment, to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
TMP = os.path.join(HERE, "tmp")

SETUPS = 7
SETUP_TIMEOUT_S = 60

# What a fresh interpreter does before its first problem can begin: import
# the CLI with its dependencies, then shoot once on a tiny grid, which is the
# JIT compile of the RK4 kernels when numba is installed.
WARMUP = """
from plap1d.core_types import Interval, Weight
from plap1d.eigen import shoot
I = Interval(0.0, 1.0)
shoot(0.0, 2.0, Weight.constant(0.0, I), Weight.constant(1.0, I), I, n=8)
"""
SETUP_CHILD = f"""
import sys
sys.path.insert(0, {SRC!r})
import plap1d.cli
{WARMUP}
print("ready", flush=True)
"""

WARMUP_PROBLEM = workloads.step_problem("warm-up", "solve", 2.0, 0.5, 0.1, 0.0, 128)

END_TO_END_UNITS = {"problem_s": "s", "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """plap1d.cli from this checkout's src/; exits with a message when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "plap1d", "cli.py")):
        sys.exit(f"perfbench: no program to measure: {SRC}/plap1d/cli.py is missing")
    sys.path.insert(0, SRC)
    import plap1d.cli

    if not os.path.abspath(plap1d.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported plap1d from {plap1d.cli.__file__}, not {SRC}")
    exec(WARMUP, {})
    return plap1d.cli


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter until it reports ready."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            # a child that hangs before 'ready' is killed, which ends the read
            timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                line = proc.stdout.readline()
                times.append(time.perf_counter() - t0)
                proc.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"perfbench: set-up interpreter failed (exit {proc.returncode})")
    return times


def run_problem(cli, problem, seed: int) -> dict:
    """One CLI call, timed, then checked.

    The call fails when it raises, exits non-zero, or exits 0 with a report
    that is not certified (checks.unmet).  The outputs of every call that
    exited 0 go through checks.check_outputs, certified or not, so a call
    can be both failed and incorrect.
    """
    with tempfile.TemporaryDirectory(dir=TMP) as tmp:
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w") as fh:
            json.dump(problem.config, fh)
        out_dir = os.path.join(tmp, "out")
        err = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(problem.argv(config_path, out_dir, seed))
        except Exception as exc:  # the run goes on; the problem counts as failed
            rc = None
            err.write(f"raised {type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - t0
        record = {
            "problem": problem.name,
            "seconds": seconds,
            "cpu_seconds": time.process_time() - c0,
            "exit": rc,
            "failed": rc != 0,
            "error": err.getvalue().strip(),
            "violations": [],
        }
        if rc != 0:
            return record
        try:
            report, csvs = checks.read_outputs(problem.command, out_dir)
            unmet = checks.unmet(problem, report)
            record["violations"] = checks.check_outputs(problem, report, csvs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            record["violations"] = [f"outputs missing or malformed: {exc!r}"]
            return record
        record["report"] = {k: report.get(k) for k in ("theorem", "residual", "min_interior")}
        if unmet:
            record["failed"] = True
            record["error"] = "exit 0 but not certified: " + "; ".join(unmet)
    return record


def run_round(cli, problems, seed: int) -> list[dict]:
    return [run_problem(cli, problem, seed) for problem in problems]


def round_seconds(records: list[dict]) -> float:
    """Time of a whole problem list, failed problems included (run_s)."""
    return sum(r["seconds"] for r in records)


def layer_metrics(per_round: list[dict]) -> dict:
    """Median over traced rounds; counts take an observed value (median_low)."""
    out = {}
    for name, (_label, _what, unit) in tracer.METRICS.items():
        values = [m[name] for m in per_round]
        value = statistics.median_low(values) if unit == "count" else statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    return out


def environment() -> dict:
    import importlib.util

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build info varies by version
        blas = None
    thread_vars = (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMBA_NUM_THREADS",
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in thread_vars},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_program()
    os.makedirs(TMP, exist_ok=True)
    setup_times = measure_setup()
    problems = workloads.problems(args.workload, args.seed)
    # one untimed solve on a tiny grid first, so that no timed call pays for
    # a first use (lazy imports, cold caches)
    run_problem(cli, WARMUP_PROBLEM, args.seed)

    untraced, traced, layer_rounds = [], [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(run_round(cli, problems, args.seed))
        if args.trace:
            with tracer.Tracer() as tr:
                traced.append(run_round(cli, problems, args.seed))
            layer_rounds.append(tr.metrics())

    records = [r for rnd in untraced + traced for r in rnd]
    violations = [f"{r['problem']}: {v}" for r in records for v in r["violations"]]
    failures = [f"{r['problem']}: exit {r['exit']}: {r['error']}" for r in records if r["failed"]]

    untraced_ok = [r["seconds"] for rnd in untraced for r in rnd if not r["failed"]]
    if not untraced_ok:
        print("\n".join(failures), file=sys.stderr)
        sys.exit("perfbench: every problem failed, so there is no problem_s to report")
    run_s = statistics.median(round_seconds(rnd) for rnd in untraced)
    end_to_end = {
        "problem_s": statistics.median(untraced_ok),
        "run_s": run_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    end_to_end = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    per_layer = {}
    if args.trace:
        per_layer = layer_metrics(layer_rounds)
        traced_run_s = statistics.median(round_seconds(rnd) for rnd in traced)
        per_layer["trace.overhead_s"] = {"value": traced_run_s - run_s, "unit": "s"}

    result = {
        "correct": not violations,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": per_layer if args.trace else end_to_end,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    )
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "rounds": len(untraced),
                "attempted": result["attempted"],
                "failed": result["failed"],
                "correct": result["correct"],
                "repeat_share": workloads.repeat_share(problems),
                "setup_times_s": setup_times,
                "end_to_end": end_to_end,
                "per_layer": per_layer,
                "violations": violations,
                "failures": failures,
                "problems": [vars(p) for p in problems],
                "records": {"untraced": untraced, "traced": traced},
                "environment": environment(),
            },
            fh,
            indent=1,
        )
    for line in violations + failures:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
