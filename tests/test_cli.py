import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import slcurv.cli
import slcurv.slgroup
from slcurv.cli import main, report_to_dict, run_verify_sl
from slcurv.fields import determinant_field
from slcurv.linalg import determinant
from slcurv.slgroup import gauss_map, gauss_map_preimage, random_sl
from slcurv.surfaces import ImplicitHypersurface, curvature_report

REPORT_KEYS = {"point", "normal", "curvatures", "gauss_kronecker", "mean", "weingarten"}


class TestVerifySL:
    def test_n2_passes(self, capsys):
        assert main(["verify-sl", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.707106781187" in out
        assert "PASS" in out and "FAIL" not in out

    def test_n3_reports_gauss_kronecker(self, capsys):
        assert main(["verify-sl", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "-1.234567901235e-02" in out  # -1/81

    def test_n1_usage_error(self, capsys):
        assert main(["verify-sl", "--n", "1"]) == 2
        assert "must be in [2, 8]" in capsys.readouterr().err

    def test_n9_usage_error(self):
        assert main(["verify-sl", "--n", "9"]) == 2

    def test_n8_closed_forms(self, capsys):
        assert main(["verify-sl", "--n", "8", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert [c["multiplicity"] for c in doc["curvatures"]] == [35, 28]
        for curvature, kappa in zip(doc["curvatures"], (8**-0.5, -(8**-0.5))):
            assert curvature["value"] == pytest.approx(kappa, abs=1e-12)

    def test_bad_tolerance(self):
        for tol in ("-1", "nan", "inf"):
            assert main(["verify-sl", "--n", "2", "--tol", tol]) == 2

    def test_impossible_tolerance_fails_checks(self, capsys):
        assert main(["verify-sl", "--n", "2", "--tol", "1e-30"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out

    def test_json_schema(self, capsys):
        assert main(["verify-sl", "--n", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert REPORT_KEYS <= set(doc)
        assert doc["passed"] is True
        assert doc["n"] == 3
        assert isinstance(doc["checks"], list) and doc["checks"]
        for check in doc["checks"]:
            assert check["passed"] and check["residual"] <= check["tolerance"]
        assert sum(c["multiplicity"] for c in doc["curvatures"]) == 8

    def test_negative_seed_usage_error(self, capsys):
        assert main(["verify-sl", "--n", "2", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "verify-sl: --seed must be >= 0, got -1\n"

    def test_round_trip_is_one_stack(self, monkeypatch):
        # one random_sl call for the 50 points, whose residual is that of single calls
        n, seed = 3, 42
        calls = []
        for name in ("random_sl", "gauss_map", "gauss_map_preimage"):

            def counted(*args, name=name, original=getattr(slcurv.cli, name)):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(slcurv.cli, name, counted)
        checks, _ = run_verify_sl(n, 1e-8, seed)
        assert calls.count("random_sl") == 1
        assert calls.count("gauss_map") == 2 and calls.count("gauss_map_preimage") == 1
        worst = 0.0
        for i in range(50):
            u = gauss_map(random_sl(n, seed + 101 * i + 1))
            worst = max(worst, float(np.max(np.abs(gauss_map(gauss_map_preimage(u)) - u))))
        (row,) = [c for c in checks if c["name"] == "gauss_map_roundtrip"]
        assert row["residual"] == worst

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_operator_identity_fails_for_an_untransposed_weingarten(self, monkeypatch, n):
        # a shape operator that maps H to H / sqrt(n) agrees with the closed form
        # H^t / sqrt(n) on symmetric directions only, so the check needs asymmetric ones
        def untransposed(*args):
            report = curvature_report(*args)
            return dataclasses.replace(report, weingarten=np.eye(n * n - 1) / math.sqrt(n))

        monkeypatch.setattr(slcurv.cli, "curvature_report", untransposed)
        checks, _ = run_verify_sl(n, 1e-12, 0)
        (row,) = [c for c in checks if c["name"] == "weingarten_operator_identity"]
        assert not row["passed"]

    def test_deterministic_given_seed(self, capsys):
        main(["verify-sl", "--n", "2", "--seed", "123", "--json"])
        first = capsys.readouterr().out
        main(["verify-sl", "--n", "2", "--seed", "123", "--json"])
        second = capsys.readouterr().out
        assert first == second


class TestAnalyze:
    def test_sphere_expression(self, capsys):
        code = main(
            ["analyze", "--expr", "x1^2+x2^2+x3^2", "--level", "4", "--point", "2,0,0", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == REPORT_KEYS
        assert doc["curvatures"] == [{"value": pytest.approx(-0.5, abs=1e-12), "multiplicity": 2}]

    def test_builtin_sl(self, capsys):
        code = main(["analyze", "--builtin", "sl", "--n", "2", "--point", "1,0,0,1", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        values = [(c["value"], c["multiplicity"]) for c in doc["curvatures"]]
        assert values[0][1] == 2 and values[1][1] == 1
        assert values[0][0] == pytest.approx(0.70710678, abs=1e-8)
        assert values[1][0] == pytest.approx(-0.70710678, abs=1e-8)

    def test_text_report_normal_line(self, capsys):
        # the normal prints to 10 significant digits
        assert main(["analyze", "--expr", "x1^2 + x2^2", "--level", "2", "--point", "1,1"]) == 0
        assert "normal           [0.7071067812 0.7071067812]" in capsys.readouterr().out.splitlines()

    def test_off_surface_point(self, capsys):
        code = main(["analyze", "--expr", "x1^2+x2^2+x3^2", "--level", "4", "--point", "1,1,1"])
        assert code == 1
        assert "off-surface" in capsys.readouterr().err

    def test_far_from_small_circle(self, capsys):
        # within 1e-9 (1 + |c|) of the level, but 0.71 of the radius bound 1e-10 away
        # from the circle of radius 1e-10, whose curvature is -1e10, not -3.3e4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--expr", "x1^2 + x2^2", "--level=1e-20", "--point=3e-5,0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "off-surface" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_bad_expression(self, capsys):
        code = main(["analyze", "--expr", "x1/(", "--level", "1", "--point", "1"])
        assert code == 2
        assert "offset" in capsys.readouterr().err

    def test_parse_error_offset_counts_characters(self, capsys):
        # U+3000 is one character and three UTF-8 bytes
        code = main(["analyze", "--expr", "\u3000x2", "--level", "0", "--point", "1"])
        assert code == 2
        assert "(offset 1)" in capsys.readouterr().err

    def test_bad_point(self):
        assert main(["analyze", "--expr", "x1^2", "--level", "1", "--point", "a,b"]) == 2

    @pytest.mark.parametrize("point", ["1,,0", ",1,0", "1,0,", "1, ,0", ",", "1,0,,"])
    def test_empty_coordinate(self, capsys, point):
        # an empty field is an error, not a shorter point
        code = main(["analyze", "--expr", "x1^2+x2^2", "--level", "1", f"--point={point}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "not a comma-separated list of reals" in captured.err

    @pytest.mark.parametrize("point", ["", "  "])
    def test_blank_point(self, capsys, point):
        assert main(["analyze", "--expr", "x1^2+x2^2", "--level", "1", f"--point={point}"]) == 2
        assert "point list is empty" in capsys.readouterr().err

    def test_number_literal_out_of_range(self, capsys):
        expr = "x1^2 + x2^2 + x3/1" + "0" * 400
        code = main(["analyze", f"--expr={expr}", "--level", "1", "--point", "1,0,0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["analyze: number literal out of floating-point range (offset 17)"]

    @pytest.mark.parametrize(
        "level, point",
        [("nan", "3,4"), ("1e400", "3,4"), ("-inf", "3,4"), ("25", "nan,4"), ("25", "3,inf")],
    )
    def test_non_finite_input(self, capsys, level, point):
        code = main(["analyze", "--expr", "x1^2+x2^2", f"--level={level}", f"--point={point}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "expr",
        ["(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1", " + ".join(["x1"] * 2000), "x1^50000000"],
        ids=["nested-parentheses", "unary-minus-chain", "long-sum", "huge-exponent"],
    )
    def test_unbounded_grammar_input(self, capsys, expr):
        code = main(["analyze", f"--expr={expr}", "--level=1", "--point=1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "offset" in captured.err

    def test_one_variable_field(self, capsys):
        # a level set in R^1 is a set of points: its tangent space is empty
        code = main(["analyze", "--expr", "x1", "--level=2", "--point=2", "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_variable_beyond_point_arity(self):
        assert main(["analyze", "--expr", "x1^2+x4", "--level", "1", "--point", "1,0,0"]) == 2

    def test_requires_exactly_one_surface(self):
        assert main(["analyze", "--point", "1,0,0,1"]) == 2
        assert (
            main(
                [
                    "analyze",
                    "--builtin",
                    "sl",
                    "--n",
                    "2",
                    "--expr",
                    "x1",
                    "--level",
                    "1",
                    "--point",
                    "1,0,0,1",
                ]
            )
            == 2
        )

    def test_wrong_point_size_for_builtin(self):
        assert main(["analyze", "--builtin", "sl", "--n", "2", "--point", "1,0,0"]) == 2

    def test_oversized_builtin_n(self, capsys):
        point = ",".join(["1"] * 81)
        assert main(["analyze", "--builtin", "sl", "--n", "9", "--point", point]) == 2
        assert "determinant_field" in capsys.readouterr().err

    def test_pole_at_point(self, capsys):
        code = main(["analyze", "--expr", "1/x1", "--level", "1", "--point", "0"])
        assert code == 1
        assert "zero" in capsys.readouterr().err

    def test_non_finite_derivatives(self, capsys):
        # the gradient of 1/x1 at 1e-200 overflows to -inf while the value stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--expr", "1/x1 + x2", "--level=0", "--point=1e-200,-1e200"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_tiny_circle(self, capsys):
        # radius 1e-150, |grad f| = 2e-150: regular, with no absolute floor on |grad f|
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["analyze", "--expr", "x1^2 + x2^2", "--level=1e-300", "--point=1e-150,0"]
            code = main([*argv, "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["curvatures"] == [{"value": -1e150, "multiplicity": 1}]

    def test_tiny_circle_text(self, capsys):
        # kappa = -1e150 is printed in exponent form, as K and the mean are
        assert main(["analyze", "--expr", "x1^2 + x2^2", "--level=1e-300", "--point=1e-150,0"]) == 0
        out = capsys.readouterr().out
        assert "\n  -1.000000000000e+150  multiplicity 1\n" in out

    @pytest.mark.parametrize(
        "expr, level, point",
        [
            # |grad f| = 1e-5 and H = 1e308 on the x1 axis: W = -1e313
            (f"0.00001*x2 + 5{'0' * 307}*x1^2", "0", "0,0"),
            # W = -1e120 I in R^3 is finite, K = -1e360 is not
            ("x1^2+x2^2+x3^2+x4^2", "1e-240", "1e-120,0,0,0"),
            # |H|_F = 2.4e308 and W has entries -1.2e308: finite, its eigenvalue -2.4e308 is not
            (f"6{'0' * 307}*(x1+x2)^2 + x3", "0", "0,0,0"),
        ],
        ids=["shape-operator", "gauss-kronecker", "principal-curvatures"],
    )
    def test_curvature_out_of_range(self, capsys, expr, level, point):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--expr", expr, f"--level={level}", f"--point={point}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "range" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_plane_written_as_square_plus_linear(self, capsys):
        # W cancels to roundoff here, so it is symmetric only to roundoff, and still flat
        expr = "(3*x1 - 3*x2 - 2*x3)^2 + (3*x1 - 3*x2 - 2*x3)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--expr", expr, "--level=0", "--point=0,0,0", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["multiplicity"] for c in doc["curvatures"]] == [2]
        bound = np.finfo(float).eps * 2.0 * np.sqrt(22.0)  # eps |H|_F/|g|, as in test_surfaces
        assert abs(doc["curvatures"][0]["value"]) <= bound and abs(doc["mean"]) <= bound

    def test_huge_curvatures_have_finite_means(self, capsys):
        # W has eigenvalues 0, -1.2e308, -1.2e308: their sums overflow, their means do not
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        expr = f"x1 + 6{'0' * 307}*(x2^2 + x3^2)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--expr", expr, "--level=0", "--point=0,0,0,0", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["curvatures"] == [{"value": 0.0, "multiplicity": 1}, {"value": -1.2e308, "multiplicity": 2}]
        assert doc["mean"] == -8e307

    def test_huge_gradient(self, capsys):
        # |grad f| = 3e200: its square overflows, the norm does not
        code = main(["analyze", "--expr", "x1^3 + x2", "--level=1e300", "--point=1e100,0", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["normal"] == [1.0, pytest.approx(1.0 / 3e200, rel=1e-15)]
        assert all(np.isfinite(c["value"]) for c in doc["curvatures"])

    @pytest.mark.parametrize(
        "spaced, joined",
        [
            (
                ["--builtin", "sl", "--n", "2", "--point", "-1,0,0,-1"],
                ["--builtin", "sl", "--n", "2", "--point=-1,0,0,-1"],
            ),
            (
                ["--expr", "x1 + x2", "--level", "-1e5", "--point=-1e5,0"],
                ["--expr", "x1 + x2", "--level=-1e5", "--point=-1e5,0"],
            ),
            (
                ["--expr", "-x1^2-x2^2", "--level=-25", "--point=3,4"],
                ["--expr=-x1^2-x2^2", "--level=-25", "--point=3,4"],
            ),
        ],
        ids=["point", "level", "expr"],
    )
    def test_value_starting_with_minus(self, capsys, spaced, joined):
        # a value after a space that starts with '-' is a value, not an option
        results = []
        for argv in (spaced, joined):
            code = main(["analyze", *argv, "--json"])
            results.append((code, capsys.readouterr().out))
        assert results[0] == results[1]
        assert results[0][0] == 0 and results[0][1] != ""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--builtin", "sl", "--n", "2", "--point", "1,0,0,1", "--level", "nan"], "--level"),
            (["--builtin", "sl", "--n", "2", "--point", "1,0,0,1", "--level", "1"], "--level"),
            (["--expr", "x1^2 + x2^2", "--level", "1", "--point", "1,0", "--n", "7"], "--n"),
        ],
    )
    def test_option_that_does_not_apply(self, capsys, argv, option):
        # --level belongs to --expr and --n to --builtin; neither is silently ignored
        assert main(["analyze", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"analyze: {option} ") and len(captured.err.splitlines()) == 1

    def test_text_output(self, capsys):
        assert main(["analyze", "--builtin", "sl", "--n", "2", "--point", "1,0,0,1"]) == 0
        out = capsys.readouterr().out
        assert "principal curvatures" in out
        assert "multiplicity 2" in out


class TestSampleImage:
    def test_reports_range(self, capsys):
        assert main(["sample-image", "--n", "3", "--count", "50", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "sampled 50 Gauss-map images" in out
        assert "det range" in out
        assert "all sampled images have det > 0" in out

    def test_pinned_range(self, capsys):
        # the README example; its output is unchanged since the per-matrix loop
        assert main(["sample-image", "--n", "3", "--count", "1000"]) == 0
        assert "det range: min 2.103956e-04, max 1.834822e-01\n" in capsys.readouterr().out

    def test_range_across_chunks_matches_single_calls(self, capsys):
        n, seed, count = 3, 11, 2 * slcurv.cli.SAMPLE_CHUNK + 3
        dets = [determinant(gauss_map(random_sl(n, seed + i))) for i in range(count)]
        argv = ["sample-image", "--n", str(n), "--count", str(count), "--seed", str(seed)]
        assert main(argv) == 0
        assert f"det range: min {min(dets):.6e}, max {max(dets):.6e}\n" in capsys.readouterr().out

    def test_one_det_inverse_per_chunk(self, monkeypatch, capsys):
        calls = []

        def counted(a, original=slcurv.slgroup.det_inverse):
            calls.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(slcurv.slgroup, "det_inverse", counted)
        chunk = slcurv.cli.SAMPLE_CHUNK
        assert main(["sample-image", "--n", "3", "--count", str(2 * chunk + 3)]) == 0
        assert calls == [(chunk, 3, 3), (chunk, 3, 3), (3, 3, 3)]

    def test_huge_seed(self, capsys):
        assert main(["sample-image", "--n", "3", "--count", "3", "--seed", str(10**30)]) == 0
        assert "all sampled images have det > 0" in capsys.readouterr().out

    def test_usage_errors(self):
        assert main(["sample-image", "--n", "1", "--count", "5"]) == 2
        assert main(["sample-image", "--n", "3", "--count", "0"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["--n", "3", "--count", "5", "--seed", "-5"], ["--n", "9", "--count", "1"],
         ["--n", "10000000000", "--count", "1"], ["--n", "3", "--count", "1", "--seed", str(2**1000 + 1)]],
        ids=["negative-seed", "n9", "huge-n", "seed-above-2^1000"],
    )
    def test_out_of_range_is_one_line(self, capsys, argv):
        assert main(["sample-image", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1


class TestReport:
    def test_table(self, capsys):
        assert main(["report", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "multiplicity 9" in out
        assert "multiplicity 6" in out
        assert "kappa_plus        0.500000000000" in out

    def test_usage_error(self):
        assert main(["report", "--n", "0"]) == 2

    @pytest.mark.parametrize("n", ["9", "22", "1" + "0" * 160], ids=["9", "22", "1e160"])
    def test_n_above_cap(self, capsys, n):
        # n = 22 would print a Gauss-Kronecker curvature that underflows to -0.0
        assert main(["report", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"report: --n must be in [2, 8], got {n}\n"


class TestJsonContract:
    def test_round_trip_field_for_field(self):
        surface = ImplicitHypersurface(field=determinant_field(2), level=1.0)
        report = curvature_report(surface, np.eye(2).ravel())
        emitted = report_to_dict(report)
        parsed = json.loads(json.dumps(emitted))
        assert parsed == emitted

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "slcurv.cli", "report", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "SL(2) curvature at the identity" in proc.stdout

    def test_closed_stdout_exits_1_quietly(self):
        # stdout is a pipe whose reader is already gone, as under `| head`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "slcurv.cli", "analyze", "--builtin", "sl", "--n", "2",
                 "--point=-1,0,0,-1", "--json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""
