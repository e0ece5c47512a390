"""Smoke test of the research scripts under scripts/.

Each script runs in its own interpreter with src/ on the path, at a small
size, and writes its outputs into the test's tmp dir.  This catches a script
that imports a name the package no longer has.
"""

import csv
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_threshold_scan(tmp_path):
    out = tmp_path / "thresholds.csv"
    proc = run_script(
        "threshold_scan.py", "--num", "5", "--n", "256", "--out", str(out), cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert len(csv_rows(out)) == 1 + 5


def test_refinement_study(tmp_path):
    out = tmp_path / "refinement.csv"
    proc = run_script(
        "refinement_study.py", "--levels", "64", "128", "--tol", "1e-8", "--out", str(out),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert [r[0] for r in csv_rows(out)[1:]] == ["64", "128"]


def test_compare_cli_measures_how_far_outputs_moved():
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        import compare_cli
    finally:
        sys.path.pop(0)
    base = {
        "eigen.json": b'{"lambda1": 10.0, "n": 4, "note": "a", "conditions": [{"mu": 2.0}]}',
        "phi.csv": b"x,u\n0,0\n0.5,1\n1,0\n",
        "tail.csv": b"x,u,status\n0,1,ok\n1,0.001,ok\n2,,error\n",
        "same.csv": b"x,u\n0,0\n1,0\n",
    }
    change = {
        "eigen.json": b'{"lambda1": 10.5, "n": 5, "note": "b", "conditions": [{"mu": 2.0}]}',
        "phi.csv": b"x,u\n0,0\n0.5,0.75\n1,0\n",
        "tail.csv": b"x,u,status\n0,1,ok\n1,0.002,error\n2,,error\n",
        "same.csv": b"x,u\n0,0\n1,0\n",
    }
    parts = compare_cli.moved(base, change)
    # ints and strings are not floats; unchanged files and columns, and
    # empty cells, are skipped; an entry near zero dominates the per-entry
    # difference only
    assert parts == [
        "report 0.0476 at eigen.json /lambda1",
        "phi.csv u 0.25 per entry, 0.25 of sup",
        "tail.csv u 0.5 per entry, 0.001 of sup",
    ]


def test_compare_cli_summarizes_moves_over_all_calls():
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        import compare_cli
    finally:
        sys.path.pop(0)
    # (exit code, stdout, stderr, files) of two calls in each checkout
    eigen_base = (0, b"", b"", {
        "eigen.json": b'{"lambda1": 10.0, "conditions": [{"mu": 2.0}, {"mu": 4.0}]}',
        "phi.csv": b"x,u\n0,0\n0.5,1\n1,0\n",
    })
    eigen_change = (0, b"", b"", {
        "eigen.json": b'{"lambda1": 10.5, "conditions": [{"mu": 2.0}, {"mu": 5.0}]}',
        "phi.csv": b"x,u\n0,0\n0.5,0.75\n1,0\n",
    })
    solve_base = (0, b"", b"", {
        "solve.json": b'{"residual": 1e-9}',
        "u.csv": b"x,u\n0,0\n1,0.001\n2,1\n",
    })
    solve_change = (2, b"", b"", {
        "solve.json": b'{"residual": 3e-9}',
        "u.csv": b"x,u\n0,0\n1,0.002\n2,1\n",
    })
    results = [(eigen_base, eigen_change), (solve_base, solve_change), (solve_base, solve_base)]
    # list indices fold into one field, which keeps its largest move; a
    # field or column that did not move is not listed
    assert compare_cli.summary(results) == [
        "1 of 3 calls changed their exit code",
        "largest move of eigen.json /conditions/*/mu: 0.2",
        "largest move of eigen.json /lambda1: 0.0476",
        "largest move of phi.csv u: 0.25 per entry, 0.25 of sup",
        "largest move of solve.json /residual: 0.667",
        "largest move of u.csv u: 0.5 per entry, 0.001 of sup",
    ]


def test_compare_cli_reports_each_checkouts_line_total(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        import compare_cli
    finally:
        sys.path.pop(0)
    # only the .py files of src/plap1d count, every line of them
    for root, files in (("base", {"a.py": "x\ny\n", "b.py": "z\n"}),
                        ("change", {"a.py": "x\n", "notes.txt": "1\n2\n3\n"})):
        pkg = tmp_path / root / "src" / "plap1d"
        pkg.mkdir(parents=True)
        for name, text in files.items():
            (pkg / name).write_text(text)
    line = compare_cli.line_delta(str(tmp_path / "base"), str(tmp_path / "change"))
    assert line == "src/plap1d lines: 3 base, 1 change (-2)"


def test_workload_lines(tmp_path):
    proc = run_script("workload_lines.py", "--seeds", "0", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    modules = sorted(n for n in os.listdir(os.path.join(ROOT, "src", "plap1d")) if n.endswith(".py"))
    heads = [ln for ln in lines if not ln.startswith(" ") and " statements never ran" in ln]
    assert [ln.split(":")[0] for ln in heads] == modules
    eigen = next(ln for ln in heads if ln.startswith("eigen.py"))
    missed, _, total = eigen.split(": ")[1].split()[:3]
    assert 0 < int(missed) < int(total)
    # no workload eigensolve runs into the bracket cap
    assert any(ln.strip().endswith('raise BracketError("bracket expansion exceeded its cap")')
               for ln in lines)
    assert [ln.split(":")[0] for ln in lines[-3:]] == [
        "certify-scan seed 0", "solve-manufactured seed 0", "solve-step seed 0"
    ]


def test_bench_layers_counts_match_the_committed_file(tmp_path):
    # counts do not depend on the machine: a count that moves fails here
    # until BENCH_layers.json is regenerated and the move is explained
    out = tmp_path / "layers.json"
    proc = run_script("bench_layers.py", "--n", "512", "--repeats", "1", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr

    def counts(path, n):
        with open(path) as fh:
            rows = json.load(fh)["cases"]
        return {
            (row["case"], layer): {k: v for k, v in row[layer].items() if k != "s"}
            for row in rows
            if row["n"] == n
            for layer in ("principal_eigenvalue", "solve_g", "solve_full", "solve_between",
                          "weak_form_values")
        }

    committed = counts(os.path.join(ROOT, "BENCH_layers.json"), 512)
    assert len(committed) == 20
    # the Newton and fallback step counts of solve_between are gated too
    assert all({"newton_steps", "fallback_steps"} <= committed[case, "solve_between"].keys()
               for case in ("manufactured", "step", "step-p1.5", "two-bump"))
    assert counts(out, 512) == committed


def test_ab_rounds_times_two_trees_in_one_process(tmp_path):
    # the same tree twice: each copy is imported under its own package name
    # and both give every problem the same exit code
    proc = run_script("ab_rounds.py", ROOT, ROOT, "--workload", "certify-scan", "--rounds", "2",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "certify-scan seed 0: 8 problems per round"
    assert [ln.split(":")[0] for ln in lines[1:3]] == ["round   1 (base first)", "round   2 (change first)"]
    assert lines[3].startswith("base   median ") and lines[4].startswith("change median ")
    assert lines[-1] == "exit codes differ on 0 of 8 problems"
    assert os.listdir(tmp_path) == []
    # several seeds: each gets its own rounds and summary, and the last line
    # pools them
    proc = run_script("ab_rounds.py", ROOT, ROOT, "--workload", "certify-scan", "--seed", "0", "1",
                      "--rounds", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    heads = [ln for ln in lines if " problems per round" in ln]
    assert [ln.split(":")[0] for ln in heads] == ["certify-scan seed 0", "certify-scan seed 1"]
    summaries = [ln for ln in lines if ln.startswith("median change/base ")]
    assert len(summaries) == 2 and all(ln.endswith(" of 2 rounds") for ln in summaries)
    assert sum(ln.startswith("exit codes differ on 0 of ") for ln in lines) == 2
    assert lines[-1].startswith("pooled over seeds 0 1: median change/base ")
    assert lines[-1].endswith(" of 4 rounds")
    assert os.listdir(tmp_path) == []
