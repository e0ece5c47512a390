"""Command-line front end over JSON problem configs.

Subcommands: check, eigen, certify, solve, verify, sweep.  Each reads a JSON
config describing the problem, writes a versioned JSON report (and CSV grid
functions where applicable) to --out, and echoes the report to stdout.

Exit codes: 0 success, 2 condition-not-satisfied (no sufficient condition,
failed verification, impossible certificate, uncertified solution) or solve
stalled above its tolerance, 1 internal error, 64 malformed config or command
line, such as a config key that is not read or a config number that is not a
finite JSON number (a boolean or a string is not).  All floats in reports are
rendered with 17 significant digits, so identical inputs give byte-identical
reports.

scipy is loaded only by the Newton solve behind `solve` and `sweep`, and
multiprocessing only by `sweep --jobs` above 1; the other subcommands load
neither.

The config field allow_sign_changing_c admits a c that is negative
somewhere, and reaches only part of the pipeline.  The conditions and the
window eigenvalue use c's positive part c+, and the supersolution ignores c
altogether, so neither accounts for where c < 0.  Only the independent
weak-form check decides whether the certificates hold; with c = -0.1 on the
step weight the supersolution fails it near x = 0.5, and the run exits 2.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .conditions import CONDITION_NAMES, check_all
from .core_types import (
    DEFAULT_N,
    CertificateError,
    EigenError,
    Grid,
    GridFunction,
    Interval,
    Problem,
    SolverError,
    Weight,
    sin_power_weight,
    step_weight,
)
from .eigen import rayleigh_quotient, window_eigenpair
from .solver import certify, select_theorem, solve_full, sweep
from .verify import (
    boundary_note,
    check_weak_subsolution,
    check_weak_supersolution,
    solution_residual,
)


class UsageError(Exception):
    """Bad command line or config; maps to exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_REQUIRED_KEYS = ("p", "q", "domain", "window", "m", "c")
_CONFIG_KEYS = {*_REQUIRED_KEYS, "n", "tol", "allow_sign_changing_c"}
# the keys each weight preset reads, besides "preset"
_PRESET_KEYS = {"constant": {"value"}, "step": {"inside", "outside"},
                "sin-power": {"exponent", "amplitude", "npieces"}}
# sin_power_weight fits all pieces in one batched least-squares solve, about
# 2 ms for the largest allowed count (0.1 ms for 128) on a 2-core x86 machine
_MAX_NPIECES = 4096


# ---------------------------------------------------------------------------
# config parsing

def _number(value, field: str, what: str = "a finite number", ok=lambda x: True) -> float:
    """float(value) for a JSON int or float that is finite and passes ok;
    anything else, a bool or a string included, is a UsageError naming field."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max and ok(float(value))):
        raise UsageError(f"{field} must be {what}, got {value!r}")
    return float(value)


def _numbers(value, field: str, what: str, count: int | None = None) -> list[float]:
    """A JSON list of finite numbers, of count entries if count is given."""
    if not isinstance(value, list) or count not in (None, len(value)):
        raise UsageError(f"{field} must be {what}, got {value!r}")
    return [_number(x, f"{field}[{i}]") for i, x in enumerate(value)]


def _known_fields(obj, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise UsageError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise UsageError(f"{where} has unknown fields: {', '.join(sorted(unknown))}")


def _interval(cfg, key):
    field = f"config field '{key}'"
    try:
        return Interval(*_numbers(cfg[key], field, "[a, b]", 2))
    except ValueError as exc:
        raise UsageError(f"{field} must be [a, b]: {exc}")


def weight_from_spec(spec, domain: Interval, window: Interval, field: str) -> Weight:
    """Weight from either a preset or an explicit piece list.

    Pieces are {"from", "to", "poly"} with poly the ascending coefficients in
    the local coordinate x - from; presets are constant {value}, step
    {inside, outside} over the window, and sin-power {exponent, amplitude,
    npieces}, with npieces an integer from 1 to 4096 (default 128).  A
    missing key, a key the preset or piece does not read, or an ill-typed
    value anywhere in the spec is a usage error that names the field.
    """
    if not isinstance(spec, dict) or ("preset" in spec) == ("pieces" in spec):
        raise UsageError(f"config field '{field}' must be an object with 'preset' or 'pieces'")
    where = f"'{field}' preset {spec['preset']!r}" if "preset" in spec else f"'{field}' pieces"
    try:
        if "pieces" in spec:
            pieces = spec["pieces"]
            if not isinstance(pieces, list) or not pieces:
                raise UsageError(f"{where} must be a non-empty list, got {pieces!r}")
            rows = []
            for i, pc in enumerate(pieces):
                _known_fields(pc, {"from", "to", "poly"}, f"'{field}' piece {i}")
                at = f"'{field}' piece {i} field"
                lo, hi = _number(pc["from"], f"{at} 'from'"), _number(pc["to"], f"{at} 'to'")
                rows.append((lo, hi, _numbers(pc["poly"], f"{at} 'poly'", "a list of numbers")))
            rows.sort(key=lambda row: row[0])
            if any(abs(b[0] - a[1]) > 1e-12 * domain.length() for a, b in zip(rows, rows[1:])):
                raise UsageError(f"'{field}' pieces do not tile the domain")
            return Weight([rows[0][0], *(hi for _, hi, _ in rows)], [poly for *_, poly in rows])
        preset = spec["preset"]
        if not isinstance(preset, str) or preset not in _PRESET_KEYS:
            raise UsageError(f"'{field}' has unknown preset {preset!r}")
        _known_fields(spec, {"preset", *_PRESET_KEYS[preset]}, where)
        spec = {"amplitude": 1.0, "npieces": 128, **spec}
        def num(key, *check):
            return _number(spec[key], f"{where} field '{key}'", *check)
        if preset == "constant":
            return Weight.constant(num("value"), domain)
        if preset == "step":
            return step_weight(domain, window, num("inside"), num("outside"))
        npieces = num("npieces", f"an integer from 1 to {_MAX_NPIECES}",
                      lambda x: x == int(x) and 1 <= x <= _MAX_NPIECES)
        w = sin_power_weight(domain, num("exponent"), npieces=int(npieces))
        amp = num("amplitude")
        return w if amp == 1.0 else w.affine(amp, 0.0)
    except KeyError as exc:
        raise UsageError(f"{where} is missing {exc}")
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}")


def problem_from_config(cfg: dict):
    """(Problem, grid cells, solver tol) from a parsed config dict."""
    _known_fields(cfg, _CONFIG_KEYS, "config")
    for key in _REQUIRED_KEYS:
        if key not in cfg:
            raise UsageError(f"config field '{key}' is required")
    domain, window = (_interval(cfg, key) for key in ("domain", "window"))
    m = weight_from_spec(cfg["m"], domain, window, "m")
    c = weight_from_spec(cfg["c"], domain, window, "c")
    flag = cfg.get("allow_sign_changing_c", False)
    if not isinstance(flag, bool):
        raise UsageError("config field 'allow_sign_changing_c' must be true or false, "
                         f"got {flag!r}")
    cfg = {"n": DEFAULT_N, "tol": 1e-8, **cfg}
    def num(key, *check):
        return _number(cfg[key], f"config field '{key}'", *check)
    try:
        prob = Problem(p=num("p"), q=num("q"), domain=domain, m=m, c=c, window=window,
                       allow_sign_changing_c=flag)
    except ValueError as exc:
        raise UsageError(str(exc))
    n = num("n", "an integer of at least 4", lambda x: x == int(x) and x >= 4)
    return prob, int(n), num("tol", "a positive number", lambda x: x > 0.0)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}")
    except ValueError as exc:
        raise UsageError(f"config is not valid JSON: {exc}")


# ---------------------------------------------------------------------------
# deterministic rendering

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(x, ".17g")


def render_json(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits and NaN as null."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {render_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(
            f"{pad}  {render_json(v, indent + 1)}" for v in obj
        )
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    return json.dumps(str(obj))


def write_report(report: dict, out_dir: str) -> None:
    """Write the report to <command>.json in out_dir and echo it to stdout."""
    text = render_json(report) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{report['command']}.json"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)


def _csv_cell(v) -> str:
    """One sweep.csv cell: empty for a missing value or NaN, a comma-bearing
    string quoted with its double quotes turned into single ones."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return "" if math.isnan(v) else format(float(v), ".17g")
    if isinstance(v, str) and "," in v:
        return '"' + v.replace('"', "'") + '"'
    return str(v)


def write_csv(path: str, u: GridFunction) -> None:
    pairs = np.column_stack((u.grid.nodes, u.values)).ravel().tolist()
    with open(path, "w") as fh:
        fh.write("x,u\n" + "%.17g,%.17g\n" * (len(pairs) // 2) % tuple(pairs))


def read_csv(path: str, domain: Interval) -> GridFunction:
    """Grid function from an 'x,u' CSV whose x increase strictly across domain.

    The weak form is tested on interior hats, so at least three rows.
    """
    try:
        with open(path) as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise UsageError(f"cannot read grid function: {exc}")
    if not rows or rows[0] != ["x", "u"]:
        raise UsageError(f"{path}: expected header 'x,u'")
    try:
        data = np.array([[float(a), float(b)] for a, b in rows[1:]]).reshape(-1, 2)
        u = GridFunction(Grid(data[:, 0]), data[:, 1])
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}")
    if u.grid.n < 2:
        raise UsageError(f"{path}: needs an interior node, so at least three rows")
    tol = 1e-12 * domain.length()
    if abs(u.grid.nodes[0] - domain.a) > tol or abs(u.grid.nodes[-1] - domain.b) > tol:
        raise UsageError(
            f"{path}: x runs from {u.grid.nodes[0]:g} to {u.grid.nodes[-1]:g}, "
            f"not across the domain [{domain.a:g}, {domain.b:g}]"
        )
    return u


# ---------------------------------------------------------------------------
# report pieces

_CONDITION_FIELDS = (
    "name", "applicable", "holds", "lhs", "rhs", "margin", "reason", "auxiliary",
)
_WEAK_FIELDS = ("kind", "passed", "worst_value", "worst_x", "tol", "note")


def _fields(obj, names):
    return None if obj is None else {name: getattr(obj, name) for name in names}


def _certificate_dict(cert):
    return {
        "kind": cert.kind,
        "construction": cert.construction,
        "verified": _fields(cert.verified, _WEAK_FIELDS),
    }


def _base_report(args) -> dict:
    return {"schema": 1, "command": args.subcommand, "seed": args.seed}


def _write_certified(args, theorem, conditions, sub, sup, **extra) -> None:
    """The certify/solve report and the two certificate CSVs."""
    report = _base_report(args)
    report["theorem"] = theorem
    report.update(extra)
    report["conditions"] = [_fields(rep, _CONDITION_FIELDS) for rep in conditions]
    report["sub"] = _certificate_dict(sub)
    report["super"] = _certificate_dict(sup)
    write_report(report, args.out)
    write_csv(os.path.join(args.out, "sub.csv"), sub.u)
    write_csv(os.path.join(args.out, "super.csv"), sup.u)


# ---------------------------------------------------------------------------
# subcommands

def _eigen_setup(args):
    """(Problem, grid, window eigenpair) of the config on the command line."""
    prob, n, _ = problem_from_config(load_config(args.config))
    grid = prob.default_grid(n)
    return prob, grid, window_eigenpair(prob, grid)


def cmd_check(args) -> int:
    prob, _, eig = _eigen_setup(args)
    conditions = check_all(prob, eig)
    report = _base_report(args)
    report["lambda1"] = float(eig.lambda1)
    report["conditions"] = [_fields(rep, _CONDITION_FIELDS) for rep in conditions]
    report["any_holds"] = any(rep.holds for rep in conditions)
    write_report(report, args.out)
    return 0 if report["any_holds"] else 2


def cmd_eigen(args) -> int:
    prob, _, eig = _eigen_setup(args)
    report = _base_report(args)
    report["lambda1"] = float(eig.lambda1)
    report["rayleigh"] = rayleigh_quotient(prob.p, prob.c_plus, prob.m, prob.window, eig.phi)
    report["window"] = [prob.window.a, prob.window.b]
    write_report(report, args.out)
    write_csv(os.path.join(args.out, "phi.csv"), eig.phi)
    return 0


def cmd_certify(args) -> int:
    prob, grid, eig = _eigen_setup(args)
    conditions = check_all(prob, eig)
    theorem = select_theorem(conditions, args.policy)
    sub, sup = certify(prob, theorem, grid, eig)
    _write_certified(args, theorem, conditions, sub, sup)
    return 0 if sub.verified.passed and sup.verified.passed else 2


def cmd_solve(args) -> int:
    prob, n, tol = problem_from_config(load_config(args.config))
    rep = solve_full(prob, grid=prob.default_grid(n), policy=args.policy, tol=tol)
    sub, sup = rep.certificates["sub"], rep.certificates["super"]
    _write_certified(
        args, sub.construction["theorem"], rep.conditions, sub, sup,
        residual=rep.residual, min_interior=rep.min_interior, ordering_ok=rep.ordering_ok,
    )
    write_csv(os.path.join(args.out, "u.csv"), rep.u)
    rep.require_certified(tol)
    return 0


def cmd_verify(args) -> int:
    prob, _, tol = problem_from_config(load_config(args.config))
    if not (args.sub or args.super or args.u):
        raise UsageError("verify needs at least one of --sub, --super, --u")
    report = _base_report(args)
    ok = True
    for key, check in (("sub", check_weak_subsolution), ("super", check_weak_supersolution)):
        if getattr(args, key):
            rep = check(read_csv(getattr(args, key), prob.domain), prob)
            report[key] = _fields(rep, _WEAK_FIELDS)
            ok = ok and rep.passed
    if args.u:
        u = read_csv(args.u, prob.domain)
        res = solution_residual(u, prob)
        note = boundary_note(u, "solution")
        u_ok = not note and res <= tol and u.interior_min() > 0.0
        report["u"] = {"residual": res, "tol": tol, "passed": u_ok}
        if note:
            report["u"]["note"] = note
        ok = ok and u_ok
    report["passed"] = ok
    write_report(report, args.out)
    return 0 if ok else 2


def _parse_range(text: str):
    name, _, rng = text.partition("=")
    parts = rng.split(":")
    if not name or len(parts) != 3:
        raise UsageError(f"range '{text}' is not NAME=start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"range '{text}': {exc}")
    if count < 1:
        raise UsageError(f"range '{text}': count must be at least 1")
    return name, [float(v) for v in np.linspace(start, stop, count)]


def _set_config_path(cfg: dict, path: str, value: float) -> None:
    keys = path.split(".")
    node = cfg
    for key in keys[:-1]:
        if not isinstance(node.get(key), dict):
            raise UsageError(f"config has no object at '{path}'")
        node = node[key]
    if keys[-1] not in node:
        raise UsageError(f"config has no field '{path}' to sweep")
    node[keys[-1]] = value


def _cell_problem(cfg: dict, /, **params):
    """(Problem, grid cells, solver tol) of one sweep cell, from the config
    with the cell's fields overridden."""
    cfg = copy.deepcopy(cfg)
    for path, value in params.items():
        _set_config_path(cfg, path, value)
    return problem_from_config(cfg)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if not args.ranges:
        raise UsageError("sweep needs at least one NAME=start:stop:count range")
    ranges = {}
    for text in args.ranges:
        name, values = _parse_range(text)
        if name in ranges:
            raise UsageError(f"range '{name}' given twice")
        ranges[name] = values
    if args.jobs < 0:
        raise UsageError(f"--jobs must be at least 0, got {args.jobs}")
    factory = functools.partial(_cell_problem, cfg)
    # validate the paths once up front so typos fail fast
    factory(**{name: values[0] for name, values in ranges.items()})
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    rows = sweep(factory, ranges, policy=args.policy, jobs=jobs)

    columns = [
        *ranges, "status", "lambda1",
        *(f"{cn}_{what}" for cn in CONDITION_NAMES for what in ("holds", "margin")),
        "theorem", "residual", "min_interior", "error",
    ]
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "sweep.csv"), "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row.get(col)) for col in columns) + "\n")

    report = _base_report(args)
    report["jobs"] = jobs
    report["ranges"] = ranges
    report["cells"] = len(rows)
    report["ok"] = sum(1 for row in rows if row["status"] == "ok")
    report["csv"] = "sweep.csv"
    write_report(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# wiring

_POLICY = ("--policy", {"default": "auto", "choices": ("auto", *CONDITION_NAMES)})

# name, help, handler, arguments after the common config/--out/--seed
_SUBCOMMANDS = (
    ("check", "evaluate every sufficient condition", cmd_check, ()),
    ("eigen", "principal eigenvalue on the window", cmd_eigen, ()),
    ("certify", "build and verify both certificates", cmd_certify, (_POLICY,)),
    ("solve", "certify, then solve between the certificates", cmd_solve, (_POLICY,)),
    ("verify", "re-check saved grid functions", cmd_verify, (
        ("--sub", {"help": "subsolution CSV"}),
        ("--super", {"help": "supersolution CSV"}),
        ("--u", {"help": "solution CSV"}),
    )),
    ("sweep", "solve over a parameter grid, emit a CSV atlas", cmd_sweep, (
        ("ranges", {"nargs": "*", "help": "NAME=start:stop:count"}),
        _POLICY,
        ("--jobs", {"type": int, "default": 0, "help": "worker count (default and cap: cores)"}),
    )),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; every parse_args
    call gets a fresh namespace with the defaults."""
    parser = _Parser(prog="plap1d", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text, func, arguments in _SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="JSON problem config")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
        for flag, kwargs in arguments:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (CertificateError, EigenError) as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"not solved: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failures keep their type visible
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
