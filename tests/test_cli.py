import csv
import json
import math

import numpy as np
import pytest

from plap1d.cli import _csv_cell, build_parser, main, render_json, weight_from_spec, write_csv
from plap1d.core_types import Grid, GridFunction, Interval

BASE = {
    "p": 2.0,
    "q": 0.5,
    "domain": [0.0, 1.0],
    "window": [0.25, 0.75],
    "m": {"preset": "step", "inside": 1.0, "outside": -0.5},
    "c": {"preset": "constant", "value": 0.0},
    "n": 256,
    "tol": 1e-8,
}


# exact solution sin(pi x); at n = 512 and tol 1e-9 the solve converges on
# its own residual, but the independent weak-form residual reads about 3.3e-9
MANUFACTURED = {
    "window": [0.0, 1.0],
    "m": {"preset": "sin-power", "exponent": 0.5, "amplitude": math.pi**2,
          "npieces": 128},
    "n": 512,
    "tol": 1e-9,
}


def window_edge_weight(left, right):
    """m = left on (0, 0.05), 1 on the window (0.05, 0.15), right on (0.15, 1)."""
    return {"pieces": [
        {"from": 0.0, "to": 0.05, "poly": [left]},
        {"from": 0.05, "to": 0.15, "poly": [1.0]},
        {"from": 0.15, "to": 1.0, "poly": [right]},
    ]}


# c = 0, so cor is the only c-free condition; here it fails and thm1_ii holds
EDGE_WINDOW = {"p": 1.5, "q": 0.25, "window": [0.05, 0.15], "n": 256}


def unequal_sides(B, mirror):
    """EDGE_WINDOW overrides with m = -20B left of the window and -B right of
    it, so the left reach has the larger edge mass and the right reach the
    larger integral; mirror reflects the problem about x = 1/2."""
    m = window_edge_weight(-20.0 * B, -B)
    if not mirror:
        return {**EDGE_WINDOW, "m": m}
    pieces = [{"from": 1.0 - pc["to"], "to": 1.0 - pc["from"], "poly": pc["poly"]}
              for pc in reversed(m["pieces"])]
    return {**EDGE_WINDOW, "window": [0.85, 0.95], "m": {"pieces": pieces}}


def bad_leaf_cases():
    """(overrides, names, what, id) that set one numeric leaf of BASE, or of
    the sin-power weight of MANUFACTURED, to a value that is not a number."""
    sin_power = {"window": MANUFACTURED["window"], "m": MANUFACTURED["m"]}
    for label, value in (("true", True), ("numeric-string", "2"), ("null", None),
                         ("list", [1]), ("object", {})):
        leaves = [(key, {key: value}, f"config field '{key}'")
                  for key in ("p", "q", "n", "tol")]
        for key in ("domain", "window"):
            for i in (0, 1):
                ends = list(BASE[key])
                ends[i] = value
                leaves.append((f"{key}{i}", {key: ends}, f"config field '{key}'[{i}]"))
        for base, key, leaf in (
            (BASE, "m", "inside"), (BASE, "m", "outside"), (BASE, "c", "value"),
            (sin_power, "m", "exponent"), (sin_power, "m", "amplitude"),
            (sin_power, "m", "npieces"),
        ):
            spec = {**base[key], leaf: value}
            names = f"'{key}' preset '{spec['preset']}' field '{leaf}'"
            leaves.append((f"{key}-{leaf}", {**base, key: spec}, names))
        for leaf, overrides, names in leaves:
            yield overrides, names, f"got {value!r}", f"{label}-{leaf}"


def condition(report, name):
    """The named condition's entry in a check, certify or solve report."""
    return next(c for c in report["conditions"] if c["name"] == name)


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {**BASE, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestCheck:
    def test_canonical_case_exits_zero_with_cor_holding(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["check", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "check.json").read_text())
        assert report["schema"] == 1
        assert report["any_holds"]
        by_name = {c["name"]: c for c in report["conditions"]}
        assert by_name["cor"]["holds"]
        assert report["lambda1"] == pytest.approx(4.0 * math.pi**2, rel=1e-4)

    def test_all_conditions_failing_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, m={"preset": "step", "inside": 1.0, "outside": -1.0})
        assert main(["check", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_invalid_exponent_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, q=1.5)
        assert main(["check", cfg, "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert "(0, 1.0)" in err and "1.5" in err

    def test_reports_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["check", cfg, "--out", str(a)])
        main(["check", cfg, "--out", str(b)])
        assert (a / "check.json").read_bytes() == (b / "check.json").read_bytes()

    def test_inapplicable_margin_serialized_as_null(self, tmp_path):
        # c vanishes, so the hyperbolic conditions report null lhs/margin
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["check", cfg, "--out", str(out)])
        by_name = {
            c["name"]: c
            for c in json.loads((out / "check.json").read_text())["conditions"]
        }
        assert by_name["thm2_i"]["margin"] is None
        assert not by_name["thm2_i"]["applicable"]

    def test_seed_recorded(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["check", cfg, "--seed", "7", "--out", str(out)])
        assert json.loads((out / "check.json").read_text())["seed"] == 7


class TestConfigParsing:
    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra=1)
        assert main(["check", cfg]) == 64
        assert "extra" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 64

    def test_missing_file_rejected(self, tmp_path):
        assert main(["check", str(tmp_path / "absent.json")]) == 64

    def test_unknown_preset_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m={"preset": "gaussian", "value": 1.0})
        assert main(["check", cfg]) == 64
        assert "gaussian" in capsys.readouterr().err

    def test_piecewise_spec_matches_equivalent_preset(self, tmp_path):
        pieces = {
            "pieces": [
                {"from": 0.0, "to": 0.25, "poly": [-0.5]},
                {"from": 0.25, "to": 0.75, "poly": [1.0]},
                {"from": 0.75, "to": 1.0, "poly": [-0.5]},
            ]
        }
        cfg_a = write_config(tmp_path, "a.json")
        cfg_b = write_config(tmp_path, "b.json", m=pieces)
        out_a, out_b = tmp_path / "oa", tmp_path / "ob"
        assert main(["check", cfg_a, "--out", str(out_a)]) == 0
        assert main(["check", cfg_b, "--out", str(out_b)]) == 0
        assert (out_a / "check.json").read_bytes() == (out_b / "check.json").read_bytes()

    def test_piece_that_is_not_an_object_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m={"pieces": [3]})
        assert main(["check", cfg]) == 64
        assert "'m' piece 0" in capsys.readouterr().err

    def test_reversed_window_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, window=[0.75, 0.25])
        assert main(["check", cfg]) == 64
        assert "'window'" in capsys.readouterr().err

    def test_gap_in_pieces_rejected(self, tmp_path, capsys):
        pieces = {
            "pieces": [
                {"from": 0.0, "to": 0.2, "poly": [-0.5]},
                {"from": 0.25, "to": 1.0, "poly": [1.0]},
            ]
        }
        cfg = write_config(tmp_path, m=pieces)
        assert main(["check", cfg]) == 64
        assert "tile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, names, what",
        [
            (dict(m={"pieces": [
                {"from": 0.0, "to": 0.25, "poly": [-0.5]},
                {"from": 0.25, "to": 0.75, "poly": [1.0, 0.0, math.nan]},
                {"from": 0.75, "to": 1.0, "poly": [-0.5]},
            ]}), "'m'", "finite"),
            (dict(m={"pieces": [
                {"from": 0.0, "to": 0.25, "poly": [-0.5]},
                {"from": 0.25, "to": 0.75, "poly": [1.0, math.nan]},
                {"from": 0.75, "to": 1.0, "poly": [-0.5]},
            ]}), "'m'", "finite"),
            (dict(m={"preset": "step", "inside": 1.0, "outside": -math.inf}), "'m'", "finite"),
            (dict(p=math.inf), "'p' must be a finite number", "finite"),
            (dict(m={"pieces": [
                {"from": 0.0, "to": 0.25, "poly": [-0.5]},
                {"from": 0.25, "to": 0.75, "poly": []},
                {"from": 0.75, "to": 1.0, "poly": [-0.5]},
            ]}), "'m'", "at least one coefficient"),
            (dict(n=math.inf), "'n'", "integer"),
            (dict(n=math.nan), "'n'", "integer"),
            (dict(n="abc"), "'n'", "integer"),
            (dict(n=12.5), "'n'", "integer"),
            (dict(tol=math.inf), "'tol'", "positive"),
            (dict(tol=0), "'tol'", "positive"),
            (dict(tol=-1), "'tol'", "positive"),
            (dict(tol=math.nan), "'tol'", "positive"),
            (dict(domain=[0, math.inf]), "'domain'", "finite"),
            *(case[:3] for case in bad_leaf_cases()),
        ],
        ids=["nan-quadratic-piece", "nan-linear-piece", "infinite-step-outside", "infinite-p",
             "empty-piece", "infinite-n", "nan-n", "string-n", "fractional-n",
             "infinite-tol", "zero-tol", "negative-tol", "nan-tol", "infinite-domain-end",
             *(case[3] for case in bad_leaf_cases())],
    )
    def test_non_finite_data_is_usage_error(self, tmp_path, capsys, overrides, names, what):
        cfg = write_config(tmp_path, **overrides)
        assert main(["certify", cfg, "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error") and names in err and what in err

    @pytest.mark.parametrize("key", ["p", "q", "domain", "window", "m", "c"])
    def test_missing_required_field_is_usage_error(self, tmp_path, capsys, key):
        cfg = {k: v for k, v in BASE.items() if k != key}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["check", str(path), "--out", str(tmp_path / "o")]) == 64
        assert f"config field '{key}' is required" in capsys.readouterr().err

    def test_negative_c_needs_flag(self, tmp_path):
        c_spec = {"preset": "constant", "value": -0.2}
        cfg = write_config(tmp_path, c=c_spec)
        assert main(["check", cfg]) == 64
        cfg2 = write_config(tmp_path, "flagged.json", c=c_spec,
                            allow_sign_changing_c=True)
        assert main(["check", cfg2, "--out", str(tmp_path / "o2")]) == 0

    @pytest.mark.parametrize("flag", ["false", 1, None])
    def test_sign_changing_c_flag_must_be_boolean(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path, c={"preset": "constant", "value": -0.2},
                           allow_sign_changing_c=flag)
        assert main(["check", cfg, "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "'allow_sign_changing_c'" in err

    @pytest.mark.parametrize(
        "m, name",
        [
            ({"pieces": [{"to": 1.0, "poly": [1.0]}]}, "'from'"),
            ({"pieces": {"from": 0.0, "to": 1.0, "poly": [1.0]}}, "list"),
            ({"pieces": [{"from": 0.0, "to": 1.0, "poly": 1.0}]}, "'poly'"),
            ({"pieces": [{"from": "zero", "to": 1.0, "poly": [1.0]}]}, "'from'"),
            ({"preset": "constant", "value": None}, "'value'"),
            ({"preset": "sin-power", "exponent": 0.5, "amplitud": 9.87}, "amplitud"),
            ({"preset": "step", "inside": 1.0, "outside": -0.5, "amplitude": 3}, "amplitude"),
            ({"pieces": [{"from": 0.0, "to": 1.0, "poly": [1.0], "degree": 0}]}, "degree"),
            ({"preset": "constant", "value": 1.0,
              "pieces": [{"from": 0.0, "to": 1.0, "poly": [1.0]}]}, "'pieces'"),
        ],
        ids=["piece-without-from", "pieces-as-object", "poly-as-number",
             "from-as-word", "null-preset-value", "misspelled-amplitude",
             "step-with-amplitude", "piece-with-degree", "preset-and-pieces"],
    )
    def test_malformed_weight_spec_is_usage_error(self, tmp_path, capsys, m, name):
        cfg = write_config(tmp_path, m=m)
        assert main(["check", cfg, "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "'m'" in err and name in err

    @pytest.mark.parametrize("npieces", [3.5, 0, 4097, math.inf, "12", True, None])
    def test_npieces_must_be_a_bounded_integer(self, tmp_path, capsys, npieces):
        m = {**MANUFACTURED["m"], "npieces": npieces}
        cfg = write_config(tmp_path, m=m, window=MANUFACTURED["window"])
        assert main(["check", cfg, "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "'m'" in err and "'npieces'" in err

    def test_npieces_bounds_are_inclusive(self):
        unit = Interval(0.0, 1.0)
        for npieces in (1, 4096, 4096.0):
            spec = {"preset": "sin-power", "exponent": 0.5, "npieces": npieces}
            assert weight_from_spec(spec, unit, unit, "m").npieces == int(npieces)

    @pytest.mark.parametrize(
        "old, new, name",
        [('"p": 2.0', '"p": BIG', "'p'"), ('"q": 0.5', '"q": BIG', "'q'"),
         ('"domain": [0.0, 1.0]', '"domain": [0.0, BIG]', "'domain'"),
         ('"value": 0.0', '"value": BIG', "'c'"), ('"n": 256', '"n": BIG', "'n'")],
        ids=["p", "q", "domain", "c-value", "n"],
    )
    def test_integer_too_large_for_a_float_is_usage_error(
        self, tmp_path, capsys, old, new, name
    ):
        # JSON integers have no size limit, and float() of a 401-digit one
        # raises OverflowError
        text = json.dumps(BASE)
        assert old in text
        path = tmp_path / "big.json"
        path.write_text(text.replace(old, new.replace("BIG", "1" + "0" * 400)))
        assert main(["check", str(path), "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error") and name in err


class TestEigen:
    def test_eigen_report_and_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["eigen", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "eigen.json").read_text())
        assert report["lambda1"] == pytest.approx(4.0 * math.pi**2, rel=1e-4)
        assert report["rayleigh"] == pytest.approx(report["lambda1"], rel=1e-3)
        lines = (out / "phi.csv").read_text().splitlines()
        assert lines[0] == "x,u"
        first = lines[1].split(",")
        assert float(first[0]) == 0.25
        assert float(first[1]) == 0.0


class TestCertifyVerify:
    def test_round_trip(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["certify", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "certify.json").read_text())
        assert report["theorem"] == "cor"
        assert report["sub"]["verified"]["passed"]
        assert report["super"]["verified"]["passed"]
        vout = tmp_path / "vout"
        code = main([
            "verify", cfg,
            "--sub", str(out / "sub.csv"),
            "--super", str(out / "super.csv"),
            "--out", str(vout),
        ])
        assert code == 0
        vreport = json.loads((vout / "verify.json").read_text())
        assert vreport["passed"]

    def test_auto_falls_back_to_power_profile_when_c_vanishes(self, tmp_path):
        cfg = write_config(tmp_path, **EDGE_WINDOW, m=window_edge_weight(-0.12, -0.006))
        out = tmp_path / "out"
        assert main(["certify", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "certify.json").read_text())
        by_name = {c["name"]: c for c in report["conditions"]}
        assert not by_name["cor"]["holds"]
        assert report["theorem"] == "thm1_ii"

    def test_thm1_ii_holds_on_the_two_sided_mass_family(self, tmp_path):
        cfg = write_config(tmp_path, **EDGE_WINDOW, m=window_edge_weight(-0.13, -0.0065))
        out = tmp_path / "out"
        assert main(["check", cfg, "--out", str(out)]) == 0
        by_name = {c["name"]: c for c in json.loads((out / "check.json").read_text())["conditions"]}
        assert by_name["thm1_ii"]["holds"]

    def test_thm1_ii_construction_follows_its_condition(self, tmp_path):
        cfg = write_config(tmp_path, **EDGE_WINDOW, m=window_edge_weight(-0.13, -0.0065))
        assert main(["certify", cfg, "--policy", "thm1_ii", "--out", str(tmp_path / "o")]) == 0

    # each reach bounds tau with its own edge mass and integral, so wherever
    # check holds thm1_ii on this family the certificates verify
    @pytest.mark.parametrize("mirror", [False, True], ids=["window-left", "window-right"])
    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("B", [0.0063, 0.0065, 0.0068])
    def test_thm1_ii_certifies_across_the_unequal_sides_family(self, tmp_path, B, n, mirror):
        cfg = write_config(tmp_path, **{**unequal_sides(B, mirror), "n": n})
        out = tmp_path / "o"
        assert main(["certify", cfg, "--policy", "thm1_ii", "--out", str(out)]) == 0
        report = json.loads((out / "certify.json").read_text())
        assert condition(report, "thm1_ii")["holds"]
        assert report["sub"]["verified"]["passed"] and report["super"]["verified"]["passed"]

    @pytest.mark.parametrize("mirror", [False, True], ids=["window-left", "window-right"])
    def test_thm1_ii_fails_past_the_unequal_sides_family(self, tmp_path, mirror):
        cfg = write_config(tmp_path, **unequal_sides(0.007, mirror))
        main(["check", cfg, "--out", str(tmp_path / "c")])
        entry = condition(json.loads((tmp_path / "c" / "check.json").read_text()), "thm1_ii")
        assert entry["applicable"] and not entry["holds"]

    def test_certify_failure_is_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, m={"preset": "step", "inside": 1.0, "outside": -1.0})
        assert main(["certify", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("c", [3e6, 1e8])
    def test_no_negative_mass_at_a_large_c_fails_with_a_typed_reason(self, tmp_path, capsys, c):
        # thm2_i holds with lhs 0, but its profile overflows at every eps the
        # builder tries, so no tau is feasible; this exited 1 on the NaN's
        # RuntimeWarning
        cfg = write_config(tmp_path, m={"preset": "step", "inside": 1.0, "outside": 0.0},
                           c={"preset": "constant", "value": c})
        assert main(["certify", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "not certified: feasible tau range for thm2_i empty" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "solve"])
    def test_a_factor_that_leaves_the_floats_is_exit_two(self, tmp_path, capsys, command):
        # q near p - 1: cor holds, but the subsolution's rescale
        # tau^(-1/(p-1-q)) underflows to 0 and the supersolution's
        # k = (1 + |v|)^(q/(p-1-q)) overflows; this exited 1 with a bare
        # OverflowError
        cfg = write_config(tmp_path, q=0.9999, n=1024,
                           m={"preset": "step", "inside": 1.0, "outside": -0.1})
        assert main(["check", cfg, "--out", str(tmp_path / "c")]) == 0
        capsys.readouterr()
        assert main([command, cfg, "--out", str(tmp_path / "o")]) == 2
        assert "not certified: subsolution rescale leaves the floats" in capsys.readouterr().err

    def test_verify_rejects_wrong_csv_header(self, tmp_path):
        cfg = write_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("t,v\n0,0\n1,0\n")
        assert main(["verify", cfg, "--sub", str(bad)]) == 64

    @pytest.mark.parametrize(
        "text",
        [
            "x,u\n",
            "x,u\n0.5,1\n",
            "x,u\n0,0\n1,0\n",
            "x,u\n0,0\n0.6,1\n0.4,1\n1,0\n",
            "x,u\n0,0\n0.5,1\n0.9,0\n",
        ],
        ids=["no-rows", "one-row", "no-interior-node", "x-not-increasing", "x-short-of-domain"],
    )
    @pytest.mark.parametrize("flag", ["--sub", "--super", "--u"])
    def test_verify_rejects_malformed_grid_function(self, tmp_path, capsys, text, flag):
        cfg = write_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(["verify", cfg, flag, str(bad), "--out", str(tmp_path / "o")]) == 64
        assert "bad.csv" in capsys.readouterr().err

    def test_verify_rejects_a_missing_grid_function(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["verify", cfg, "--sub", str(tmp_path / "absent.csv")]) == 64
        assert "cannot read grid function" in capsys.readouterr().err

    def test_verify_needs_an_input(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["verify", cfg]) == 64

    def test_tampered_subsolution_fails_verification(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["certify", cfg, "--out", str(out)])
        rows = (out / "sub.csv").read_text().splitlines()
        x, u = rows[len(rows) // 2].split(",")
        rows[len(rows) // 2] = f"{x},{float(u) * 50.0 + 1.0}"
        tampered = tmp_path / "tampered.csv"
        tampered.write_text("\n".join(rows) + "\n")
        assert main([
            "verify", cfg, "--sub", str(tampered), "--out", str(tmp_path / "v"),
        ]) == 2


class TestWriteCsv:
    def test_bytes_match_per_row_numpy_formatting(self, tmp_path):
        # the reference writes one row at a time from numpy scalars
        nodes = np.array([0.0, 1.0 / 3.0, 0.5, 0.7, 1.0 - 2.0**-53, 1.0])
        values = np.array([-0.0, 5e-324, 1e300, -1.0 / 3.0, 0.1, 0.0])
        ref = tmp_path / "ref.csv"
        with open(ref, "w") as fh:
            fh.write("x,u\n")
            for x, v in zip(nodes, values):
                fh.write(f"{x:.17g},{v:.17g}\n")
        out = tmp_path / "out.csv"
        write_csv(str(out), GridFunction(Grid(nodes), values))
        assert out.read_bytes() == ref.read_bytes()
        assert b"\n0,-0\n" in out.read_bytes()
        assert b",4.9406564584124654e-324\n" in out.read_bytes()

    def test_one_percent_pass_matches_the_per_row_f_string(self, tmp_path):
        # the rows as the per-row f-string wrote them before the single %
        # pass; values carry the signed zeros, a subnormal and both extremes
        nodes = np.array([-1.0, -1.0 / 3.0, 0.0, 1e-300, 1.0 / 3.0, 1e308])
        values = np.array([0.0, -0.0, 5e-324, 1e308, -1e308, 1.0 / 3.0])
        rows = zip(nodes.tolist(), values.tolist())
        ref = "x,u\n" + "".join(f"{x:.17g},{v:.17g}\n" for x, v in rows)
        out = tmp_path / "out.csv"
        write_csv(str(out), GridFunction(Grid(nodes), values))
        assert out.read_text() == ref
        assert "\n-0.33333333333333331,-0\n" in ref and ",-1e+308\n" in ref


class TestSolve:
    def test_solve_writes_solution_and_verifies(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["residual"] < 1e-6
        assert report["min_interior"] > 0.0
        assert report["ordering_ok"]
        lines = (out / "u.csv").read_text().splitlines()
        assert lines[0] == "x,u"
        assert main([
            "verify", cfg, "--u", str(out / "u.csv"), "--out", str(tmp_path / "v"),
        ]) == 0

    def test_verify_u_requires_vanishing_boundary_values(self, tmp_path):
        # a solution on [-1/4, 5/4] restricted to [0, 1] solves the equation
        # there, but does not vanish at 0 and 1
        step = {"preset": "step", "inside": 1.0, "outside": -0.1}
        wide = write_config(tmp_path, "wide.json", domain=[-0.25, 1.25], n=768, m=step)
        out = tmp_path / "out"
        assert main(["solve", wide, "--out", str(out)]) == 0
        rows = (out / "u.csv").read_text().splitlines()
        cut = [rows[0]] + [r for r in rows[1:] if 0.0 <= float(r.split(",")[0]) <= 1.0]
        assert float(cut[1].split(",")[1]) > 1e-3
        (tmp_path / "cut.csv").write_text("\n".join(cut) + "\n")
        unit = write_config(tmp_path, "unit.json", n=512, m=step)
        v = tmp_path / "v"
        assert main(["verify", unit, "--u", str(tmp_path / "cut.csv"), "--out", str(v)]) == 2
        report = json.loads((v / "verify.json").read_text())["u"]
        assert report["residual"] <= report["tol"]
        assert report["note"] == "solution must vanish at the boundary"
        # a solve's own u.csv carries no note and still verifies
        assert main(["solve", unit, "--out", str(tmp_path / "own")]) == 0
        assert main([
            "verify", unit, "--u", str(tmp_path / "own" / "u.csv"), "--out", str(v),
        ]) == 0
        assert "note" not in json.loads((v / "verify.json").read_text())["u"]

    def test_solve_without_any_condition_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, m={"preset": "step", "inside": 1.0, "outside": -1.0})
        assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "margin" in capsys.readouterr().err

    def test_failed_certificate_exits_two(self, tmp_path, capsys):
        # the companion solve leaves c out, so with c = -0.1 the
        # supersolution k(v+1) misses the weak inequality near the apex
        cfg = write_config(tmp_path, c={"preset": "constant", "value": -0.1},
                           m={"preset": "step", "inside": 1.0, "outside": -0.3},
                           allow_sign_changing_c=True)
        assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "not certified: supersolution failed verification" in err

    def test_p_below_supported_range_fails_before_solving(self, tmp_path, monkeypatch):
        import plap1d.solver

        calls = []
        monkeypatch.setattr(plap1d.solver, "solve_between",
                            lambda *args, **kwargs: calls.append(args))
        cfg = write_config(tmp_path, p=1.3, q=0.15, n=2048,
                           m={"preset": "step", "inside": 1.0, "outside": -0.1})
        assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
        assert calls == []

    def test_solver_stagnation_is_exit_two(self, tmp_path, capsys):
        # 1e-15 is below the residual floor of the solve at this grid
        cfg = write_config(tmp_path, n=128, tol=1e-15)
        assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "not solved: residual stagnation" in capsys.readouterr().err

    def test_residual_above_tol_is_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **MANUFACTURED)
        out = tmp_path / "out"
        assert main(["solve", cfg, "--out", str(out)]) == 2
        assert "not certified: residual" in capsys.readouterr().err
        report = json.loads((out / "solve.json").read_text())
        assert report["residual"] > 1e-9
        assert (out / "u.csv").exists()

    def test_explicit_policy_flows_through(self, tmp_path):
        cfg = write_config(tmp_path, c={"preset": "constant", "value": 0.5},
                           m={"preset": "step", "inside": 1.0, "outside": -0.3})
        out = tmp_path / "out"
        assert main(["solve", cfg, "--policy", "thm1_i", "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["theorem"] == "thm1_i"


class TestSweep:
    def test_margin_flip_lands_in_csv(self, tmp_path):
        cfg = write_config(tmp_path, n=128)
        out = tmp_path / "out"
        code = main([
            "sweep", cfg, "m.outside=-0.4:-0.6:3",
            "--jobs", "1", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 3
        assert [r["status"] for r in rows] == ["ok", "ok", "error"]
        margins = [float(r["cor_margin"]) for r in rows]
        assert margins[0] > 0.0 > margins[2]
        report = json.loads((out / "sweep.json").read_text())
        assert report["cells"] == 3 and report["ok"] == 2

    def test_error_text_with_commas_reads_back_as_one_field(self, tmp_path):
        cfg = write_config(tmp_path, n=128)
        out = tmp_path / "out"
        assert main(["sweep", cfg, "m.outside=-0.6:-0.6:1", "--jobs", "1", "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 1 and len(rows[0]) == len(header)
        error = dict(zip(header, rows[0]))["error"]
        assert error.startswith("CertificateError: no sufficient condition holds (")
        assert ", " in error
        assert _csv_cell('a, "b"') == '"a, \'b\'"'
        assert _csv_cell('"b"') == '"b"'

    def test_cell_computes_the_window_eigenpair_once(self, tmp_path, monkeypatch):
        import plap1d.eigen

        calls = []
        original = plap1d.eigen.principal_eigenvalue

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        # window_eigenpair, the one caller, looks it up in plap1d.eigen
        monkeypatch.setattr(plap1d.eigen, "principal_eigenvalue", counted)
        cfg = write_config(tmp_path, n=128)
        code = main(["sweep", cfg, "m.outside=-0.4:-0.4:1",
                     "--jobs", "1", "--out", str(tmp_path / "o")])
        assert code == 0
        assert len(calls) == 1

    def test_residual_above_tol_is_an_error_row(self, tmp_path):
        cfg = write_config(tmp_path, **MANUFACTURED)
        out = tmp_path / "out"
        assert main(["sweep", cfg, "q=0.5:0.5:1", "--jobs", "1", "--out", str(out)]) == 0
        header, line = (out / "sweep.csv").read_text().splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert row["status"] == "error"
        assert row["error"].startswith("CertificateError: residual")
        assert float(row["residual"]) > 1e-9

    def test_pool_has_at_most_one_worker_per_cell(self, tmp_path, monkeypatch):
        import multiprocessing
        import os

        sizes = []

        class FakePool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return [fn(cell) for cell in cells]

        # sweep imports Pool from multiprocessing when it needs one
        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        cfg = write_config(tmp_path, n=64)
        # fewer cells than cores, then more: the pool is capped at both
        for cores, cells in ((4, 2), (2, 3)):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            out = tmp_path / f"out{cells}"
            code = main(["sweep", cfg, f"m.outside=-0.4:-0.5:{cells}",
                         "--jobs", "5000", "--out", str(out)])
            assert code == 0
            assert sizes.pop() == 2 and not sizes
            report = json.loads((out / "sweep.json").read_text())
            assert report["jobs"] == 5000 and report["cells"] == cells

    def test_negative_jobs_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", cfg, "p=2:3:2", "--jobs", "-1", "--out", str(tmp_path / "o")]) == 64
        assert "--jobs" in capsys.readouterr().err

    def test_unknown_sweep_path_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", cfg, "m.depth=0:1:2", "--out", str(tmp_path / "o")]) == 64
        assert "m.depth" in capsys.readouterr().err

    def test_bad_range_syntax_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", cfg, "p=2:3", "--out", str(tmp_path / "o")]) == 64

    def test_sweep_needs_a_range(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == 64

    @pytest.mark.parametrize("ranges, message", [
        (["p=2:3:0"], "count must be at least 1"),
        (["p=2:3:1e9"], "invalid literal for int()"),
        (["p=2:3:2", "p=2.5:3:2"], "range 'p' given twice"),
        (["p.value=2:3:2"], "config has no object at 'p.value'"),
    ], ids=["count-zero", "count-not-integer", "range-twice", "path-through-number"])
    def test_malformed_range_is_usage_error(self, tmp_path, capsys, ranges, message):
        cfg = write_config(tmp_path)
        assert main(["sweep", cfg, *ranges, "--jobs", "1", "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert not (tmp_path / "o").exists()

    def test_swept_n_sets_each_cells_grid(self, tmp_path):
        # the window eigenvalue is the closed form at every n, since c and m
        # are constant on the window; the solution moves with the grid
        cfg = write_config(tmp_path, p=2.5, q=1.0)
        out = tmp_path / "out"
        assert main(["sweep", cfg, "n=64:1024:2", "--jobs", "1", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert rows[0]["lambda1"] == rows[1]["lambda1"]
        assert float(rows[0]["min_interior"]) > 4.0 * float(rows[1]["min_interior"])

    def test_swept_tol_is_enforced_per_row(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", cfg, "tol=1e-3:1e-12:2", "--jobs", "1", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        loose, tight = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert loose["status"] == "ok"
        assert 1e-8 < float(loose["residual"]) <= 1e-3
        assert tight["status"] == "error"
        assert tight["error"].startswith("CertificateError: residual")
        assert float(tight["residual"]) > 1e-12

    def test_two_parameter_grid(self, tmp_path):
        cfg = write_config(tmp_path, n=128)
        out = tmp_path / "out"
        code = main([
            "sweep", cfg, "p=2.0:2.2:2", "q=0.4:0.6:2",
            "--jobs", "2", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("p,q,status")
        ps = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert ps == [2.0, 2.0, 2.2, 2.2]


class TestCli:
    @pytest.mark.parametrize("obj, text", [({}, "{}"), ([], "[]"), (None, "null")])
    def test_render_json_empty_containers_and_none(self, obj, text):
        assert render_json(obj) == text
        assert json.loads(text) == obj

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate", "x.json"]) == 64

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 64

    def test_unexpected_exception_is_exit_one_with_its_type(self, tmp_path, capsys, monkeypatch):
        # an exception no stage documents is an internal failure, not a
        # usage error or an uncertified result
        def broken(prob, grid):
            raise RuntimeError("stage broke")

        monkeypatch.setattr("plap1d.cli.window_eigenpair", broken)
        cfg = write_config(tmp_path)
        assert main(["eigen", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: RuntimeError: stage broke\n"

    def test_cached_parser_gives_each_call_its_own_namespace(self):
        assert build_parser() is build_parser()
        assert main(["frobnicate", "x.json"]) == 64
        first = build_parser().parse_args(
            ["sweep", "c.json", "p=2:3:2", "--jobs", "1", "--seed", "7"]
        )
        second = build_parser().parse_args(["sweep", "c.json"])
        assert first is not second
        assert (first.jobs, first.seed, first.ranges) == (1, 7, ["p=2:3:2"])
        assert (second.jobs, second.seed, second.ranges, second.out) == (0, 0, [], ".")

    def test_help_after_the_parser_is_cached(self, capsys):
        build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "--jobs JOBS" in capsys.readouterr().out

    @pytest.mark.parametrize("command, extra", [
        ("certify", []), ("solve", []), ("sweep", ["p=2:3:2", "--jobs", "1"]),
    ])
    def test_unknown_policy_is_usage_error(self, tmp_path, capsys, command, extra):
        # the parser checks --policy against "auto" and the condition names,
        # before any config is read or any cell runs
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main([command, cfg, *extra, "--policy", "nope", "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "invalid choice" in err and "nope" in err
        assert all(name in err for name in ("auto", "thm1_i", "thm1_ii", "thm2_i", "thm2_ii", "cor"))
        assert not out.exists()
