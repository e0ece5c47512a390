"""Import budget: which heavy modules each entry point loads.

scipy serves only the Newton solve's tridiagonal system and multiprocessing
only a sweep over several workers, so importing the package, and the CLI
subcommands that never solve, must load neither.  Each case runs in a fresh
interpreter with src/ on the path, so that no other test's imports count.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WATCHED = ("scipy", "scipy.linalg", "multiprocessing")

# the step weight of the CLI tests, on a coarse grid
STEP = {
    "p": 2.0,
    "q": 0.5,
    "domain": [0.0, 1.0],
    "window": [0.25, 0.75],
    "m": {"preset": "step", "inside": 1.0, "outside": -0.5},
    "c": {"preset": "constant", "value": 0.0},
    "n": 64,
    "tol": 1e-8,
}


def run_child(body, cwd):
    """Run body in a fresh interpreter; its last stdout line reports the
    watched modules it loaded, and any exit code it set."""
    code = (
        "import json, sys\n"
        "exit_code = None\n"
        f"{body}\n"
        f"loaded = [m for m in {WATCHED!r} if m in sys.modules]\n"
        "print(json.dumps({'exit': exit_code, 'loaded': loaded}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def run_cli(argv, cwd, prelude=""):
    body = f"{prelude}\nfrom plap1d.cli import main\nexit_code = main({argv!r})"
    return run_child(body, cwd)


@pytest.fixture
def step_config(tmp_path):
    path = tmp_path / "step.json"
    path.write_text(json.dumps(STEP))
    return str(path)


@pytest.mark.parametrize("module", ["plap1d", "plap1d.cli"])
def test_import_loads_neither_scipy_nor_multiprocessing(tmp_path, module):
    result, _ = run_child(f"import {module}", tmp_path)
    assert result["loaded"] == []


@pytest.mark.parametrize("command", ["check", "eigen", "certify"])
def test_subcommand_without_a_solve_loads_neither(tmp_path, step_config, command):
    result, err = run_cli([command, step_config, "--out", str(tmp_path / "out")], tmp_path)
    assert result["exit"] == 0, err
    assert result["loaded"] == []


def test_verify_loads_neither(tmp_path, step_config):
    out = tmp_path / "out"
    result, err = run_cli(["certify", step_config, "--out", str(out)], tmp_path)
    assert result["exit"] == 0, err
    result, err = run_cli(
        ["verify", step_config, "--sub", str(out / "sub.csv"),
         "--super", str(out / "super.csv"), "--out", str(tmp_path / "verify")],
        tmp_path,
    )
    assert result["exit"] == 0, err
    assert result["loaded"] == []


def test_solve_takes_the_lapack_path(tmp_path, step_config):
    result, err = run_cli(["solve", step_config, "--out", str(tmp_path / "out")], tmp_path)
    assert result["exit"] == 0, err
    assert "scipy.linalg" in result["loaded"]
    assert "multiprocessing" not in result["loaded"]


def test_solve_without_scipy_is_an_internal_error(tmp_path, step_config):
    # a missing scipy must surface as itself, not as a stalled Newton step
    result, err = run_cli(
        ["solve", step_config, "--out", str(tmp_path / "out")],
        tmp_path,
        prelude="sys.modules['scipy.linalg'] = None",
    )
    assert result["exit"] == 1, err
    assert "error: ModuleNotFoundError" in err or "error: ImportError" in err
    assert "residual stagnation" not in err
