"""Command-line front end over JSON problem configs.

Subcommands: check, eigen, certify, solve, verify, sweep.  Each reads a JSON
config describing the problem, writes a versioned JSON report (and CSV grid
functions where applicable) to --out, and echoes the report to stdout.

Exit codes: 0 success, 2 condition-not-satisfied (no sufficient condition,
failed verification, impossible certificate, uncertified solution) or solve
stalled above its tolerance, 1 internal error, 64 malformed config or command
line.  All floats in reports are rendered with 17 significant digits, so
identical inputs give byte-identical reports.
"""

from __future__ import annotations

import argparse
import copy
import csv
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
from .eigen import window_eigenpair
from .solver import certify, select_theorem, solve_full, sweep
from .verify import (
    check_weak_subsolution,
    check_weak_supersolution,
    solution_residual,
)


class UsageError(Exception):
    """Bad command line or config; maps to exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_CONFIG_KEYS = {
    "p", "q", "domain", "window", "m", "c", "n", "tol", "allow_sign_changing_c",
}


# ---------------------------------------------------------------------------
# config parsing

def _interval(cfg, key):
    try:
        a, b = cfg[key]
        return Interval(float(a), float(b))
    except KeyError:
        raise UsageError(f"config field '{key}' is required")
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config field '{key}' must be [a, b]: {exc}")


def weight_from_spec(spec, domain: Interval, window: Interval, field: str) -> Weight:
    """Weight from either a preset or an explicit piece list.

    Pieces are {"from", "to", "poly"} with poly the ascending coefficients in
    the local coordinate x - from; presets are constant {value}, step
    {inside, outside} over the window, and sin-power {exponent, amplitude,
    npieces}.
    """
    if not isinstance(spec, dict):
        raise UsageError(f"config field '{field}' must be an object")
    if "preset" in spec:
        preset = spec["preset"]
        try:
            if preset == "constant":
                return Weight.constant(float(spec["value"]), domain)
            if preset == "step":
                return step_weight(
                    domain, window, float(spec["inside"]), float(spec["outside"])
                )
            if preset == "sin-power":
                w = sin_power_weight(
                    domain,
                    float(spec["exponent"]),
                    npieces=int(spec.get("npieces", 128)),
                )
                amp = float(spec.get("amplitude", 1.0))
                return w if amp == 1.0 else w.affine(amp, 0.0)
        except KeyError as exc:
            raise UsageError(f"'{field}' preset '{preset}' is missing {exc}")
        except ValueError as exc:
            raise UsageError(f"'{field}' preset '{preset}': {exc}")
        raise UsageError(f"'{field}' has unknown preset '{preset}'")
    if "pieces" in spec:
        pieces = sorted(spec["pieces"], key=lambda pc: float(pc["from"]))
        if not pieces:
            raise UsageError(f"'{field}' has an empty piece list")
        breaks = [float(pieces[0]["from"])]
        coefs = []
        for pc in pieces:
            try:
                lo, hi, poly = float(pc["from"]), float(pc["to"]), pc["poly"]
            except KeyError as exc:
                raise UsageError(f"'{field}' piece is missing {exc}")
            if abs(lo - breaks[-1]) > 1e-12 * domain.length():
                raise UsageError(f"'{field}' pieces do not tile the domain")
            breaks.append(hi)
            coefs.append([float(a) for a in poly])
        try:
            return Weight(breaks, coefs)
        except ValueError as exc:
            raise UsageError(f"'{field}': {exc}")
    raise UsageError(f"'{field}' needs either 'preset' or 'pieces'")


def problem_from_config(cfg: dict):
    """(Problem, grid cells, solver tol) from a parsed config dict."""
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config fields: {', '.join(sorted(unknown))}")
    for key in ("p", "q"):
        if key not in cfg:
            raise UsageError(f"config field '{key}' is required")
    domain = _interval(cfg, "domain")
    window = _interval(cfg, "window")
    for key in ("m", "c"):
        if key not in cfg:
            raise UsageError(f"config field '{key}' is required")
    m = weight_from_spec(cfg["m"], domain, window, "m")
    c = weight_from_spec(cfg["c"], domain, window, "c")
    try:
        prob = Problem(
            p=float(cfg["p"]),
            q=float(cfg["q"]),
            domain=domain,
            m=m,
            c=c,
            window=window,
            allow_sign_changing_c=bool(cfg.get("allow_sign_changing_c", False)),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))
    n = _config_number(cfg, "n", DEFAULT_N)
    if not (math.isfinite(n) and n == int(n) and n >= 4):
        raise UsageError(
            f"config field 'n' must be an integer of at least 4, got {cfg['n']!r}"
        )
    tol = _config_number(cfg, "tol", 1e-8)
    if not (math.isfinite(tol) and tol > 0.0):
        raise UsageError(
            f"config field 'tol' must be finite and positive, got {cfg['tol']!r}"
        )
    return prob, int(n), tol


def _config_number(cfg: dict, key: str, default: float) -> float:
    try:
        return float(cfg.get(key, default))
    except (TypeError, ValueError):
        raise UsageError(f"config field '{key}' must be a number, got {cfg[key]!r}")


def load_config(path: str) -> dict:
    import json

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
    import json

    return json.dumps(str(obj))


def write_report(report: dict, out_dir: str, name: str) -> None:
    text = render_json(report) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)


def write_csv(path: str, u: GridFunction) -> None:
    rows = zip(u.grid.nodes.tolist(), u.values.tolist())
    with open(path, "w") as fh:
        fh.write("x,u\n" + "".join(f"{x:.17g},{v:.17g}\n" for x, v in rows))


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

def _condition_dicts(conditions):
    out = []
    for rep in conditions:
        out.append(
            {
                "name": rep.name,
                "applicable": rep.applicable,
                "holds": rep.holds,
                "lhs": rep.lhs,
                "rhs": rep.rhs,
                "margin": rep.margin,
                "reason": rep.reason,
                "auxiliary": dict(rep.auxiliary),
            }
        )
    return out


def _weak_dict(rep):
    if rep is None:
        return None
    return {
        "kind": rep.kind,
        "passed": rep.passed,
        "worst_value": rep.worst_value,
        "worst_x": rep.worst_x,
        "tol": rep.tol,
        "note": rep.note,
    }


def _certificate_dict(cert):
    return {
        "kind": cert.kind,
        "construction": dict(cert.construction),
        "verified": _weak_dict(cert.verified),
    }


def _base_report(command: str, args) -> dict:
    return {"schema": 1, "command": command, "seed": args.seed}


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(args) -> int:
    prob, n, _ = problem_from_config(load_config(args.config))
    eig = window_eigenpair(prob, prob.default_grid(n))
    conditions = check_all(prob, eig)
    report = _base_report("check", args)
    report["lambda1"] = float(eig.lambda1)
    report["conditions"] = _condition_dicts(conditions)
    report["any_holds"] = any(rep.holds for rep in conditions)
    write_report(report, args.out, "check.json")
    return 0 if report["any_holds"] else 2


def cmd_eigen(args) -> int:
    prob, n, _ = problem_from_config(load_config(args.config))
    eig = window_eigenpair(prob, prob.default_grid(n))
    report = _base_report("eigen", args)
    report["lambda1"] = float(eig.lambda1)
    report["rayleigh"] = float(eig.rayleigh)
    report["window"] = [prob.window.a, prob.window.b]
    write_report(report, args.out, "eigen.json")
    write_csv(os.path.join(args.out, "phi.csv"), eig.phi)
    return 0


def cmd_certify(args) -> int:
    prob, n, _ = problem_from_config(load_config(args.config))
    grid = prob.default_grid(n)
    eig = window_eigenpair(prob, grid)
    conditions = check_all(prob, eig)
    theorem = select_theorem(prob, conditions, args.policy)
    sub, sup = certify(prob, theorem, grid, eig)
    report = _base_report("certify", args)
    report["theorem"] = theorem
    report["conditions"] = _condition_dicts(conditions)
    report["sub"] = _certificate_dict(sub)
    report["super"] = _certificate_dict(sup)
    write_report(report, args.out, "certify.json")
    write_csv(os.path.join(args.out, "sub.csv"), sub.u)
    write_csv(os.path.join(args.out, "super.csv"), sup.u)
    return 0 if sub.verified.passed and sup.verified.passed else 2


def cmd_solve(args) -> int:
    prob, n, tol = problem_from_config(load_config(args.config))
    rep = solve_full(prob, grid=prob.default_grid(n), policy=args.policy, tol=tol)
    report = _base_report("solve", args)
    report["theorem"] = rep.certificates["sub"].construction["theorem"]
    report["residual"] = rep.residual
    report["min_interior"] = rep.min_interior
    report["ordering_ok"] = rep.ordering_ok
    report["conditions"] = _condition_dicts(rep.conditions)
    report["sub"] = _certificate_dict(rep.certificates["sub"])
    report["super"] = _certificate_dict(rep.certificates["super"])
    write_report(report, args.out, "solve.json")
    write_csv(os.path.join(args.out, "u.csv"), rep.u)
    write_csv(os.path.join(args.out, "sub.csv"), rep.certificates["sub"].u)
    write_csv(os.path.join(args.out, "super.csv"), rep.certificates["super"].u)
    rep.require_certified(tol)
    return 0


def cmd_verify(args) -> int:
    prob, _, tol = problem_from_config(load_config(args.config))
    if not (args.sub or args.super or args.u):
        raise UsageError("verify needs at least one of --sub, --super, --u")
    report = _base_report("verify", args)
    ok = True
    if args.sub:
        rep = check_weak_subsolution(read_csv(args.sub, prob.domain), prob)
        report["sub"] = _weak_dict(rep)
        ok = ok and rep.passed
    if args.super:
        rep = check_weak_supersolution(read_csv(args.super, prob.domain), prob)
        report["super"] = _weak_dict(rep)
        ok = ok and rep.passed
    if args.u:
        u = read_csv(args.u, prob.domain)
        res = solution_residual(u, prob)
        u_ok = res <= tol and float(np.min(u.values[1:-1])) > 0.0
        report["u"] = {"residual": res, "tol": tol, "passed": u_ok}
        ok = ok and u_ok
    report["passed"] = ok
    write_report(report, args.out, "verify.json")
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


class ConfigFactory:
    """(Problem, grid cells, solver tol) of one sweep cell, from the config
    with the cell's fields overridden."""

    def __init__(self, cfg: dict):
        self.cfg = cfg

    def __call__(self, **params):
        cfg = copy.deepcopy(self.cfg)
        for path, value in params.items():
            _set_config_path(cfg, path, value)
        return problem_from_config(cfg)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if not args.ranges:
        raise UsageError("sweep needs at least one NAME=start:stop:count range")
    names = []
    ranges = {}
    for text in args.ranges:
        name, values = _parse_range(text)
        if name in ranges:
            raise UsageError(f"range '{name}' given twice")
        names.append(name)
        ranges[name] = values
    if args.jobs < 0:
        raise UsageError(f"--jobs must be at least 0, got {args.jobs}")
    factory = ConfigFactory(cfg)
    # validate the paths once up front so typos fail fast
    factory(**{name: ranges[name][0] for name in names})
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    rows = sweep(factory, ranges, policy=args.policy, jobs=jobs)

    cond_cols = []
    for cn in CONDITION_NAMES:
        cond_cols += [f"{cn}_holds", f"{cn}_margin"]
    columns = names + [
        "status", "lambda1", *cond_cols, "theorem", "residual", "min_interior",
        "error",
    ]
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for col in columns:
                v = row.get(col)
                if v is None:
                    cells.append("")
                elif isinstance(v, (bool, np.bool_)):
                    cells.append("true" if v else "false")
                elif isinstance(v, (float, np.floating)):
                    cells.append("" if math.isnan(v) else format(float(v), ".17g"))
                elif isinstance(v, str):
                    cells.append('"' + v.replace('"', "'") + '"' if "," in v else v)
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")

    n_ok = sum(1 for row in rows if row["status"] == "ok")
    report = _base_report("sweep", args)
    report["jobs"] = jobs
    report["ranges"] = {name: ranges[name] for name in names}
    report["cells"] = len(rows)
    report["ok"] = n_ok
    report["csv"] = "sweep.csv"
    write_report(report, args.out, "sweep.json")
    return 0


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="plap1d", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("config", help="JSON problem config")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=0, help="seed recorded in reports")

    sp = sub.add_parser("check", help="evaluate every sufficient condition")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("eigen", help="principal eigenvalue on the window")
    common(sp)
    sp.set_defaults(func=cmd_eigen)

    sp = sub.add_parser("certify", help="build and verify both certificates")
    common(sp)
    sp.add_argument("--policy", default="auto")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("solve", help="certify, then solve between the certificates")
    common(sp)
    sp.add_argument("--policy", default="auto")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="re-check saved grid functions")
    common(sp)
    sp.add_argument("--sub", help="subsolution CSV")
    sp.add_argument("--super", dest="super", help="supersolution CSV")
    sp.add_argument("--u", help="solution CSV")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="solve over a parameter grid, emit a CSV atlas")
    common(sp)
    sp.add_argument("ranges", nargs="*", help="NAME=start:stop:count")
    sp.add_argument("--policy", default="auto")
    sp.add_argument("--jobs", type=int, default=0, help="worker count (default: cores)")
    sp.set_defaults(func=cmd_sweep)

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
