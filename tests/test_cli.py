import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conewalks import cli, counting, solver

NSEW = [(0, 1), (0, -1), (1, 0), (-1, 0)]
NSEW_SW = [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1)]
HALFSPACE_MODEL = [(1, -1), (-1, 1), (-1, -1)]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def run_python(*argv, stdout=subprocess.PIPE):
    """A fresh interpreter that imports conewalks from this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120)


class TestRate:
    def test_1d_closed_form(self, capsys, step_file):
        path = step_file("d1.json", 1, [(1,), (-1,)], weights=[0.25, 0.75])
        code, doc, _ = run_json(capsys, "rate", "--steps", path)
        assert code == 0 and doc["status"] == "ok"
        cert = doc["certificate"]
        assert abs(cert["rho"] - 0.8660254) <= 1e-6
        assert abs(cert["x_star"][0] - 0.5493061) <= 1e-6

    def test_certificate_holds_every_field_and_the_hypothesis_flags(self, capsys, step_file):
        path = step_file("five.json", 2, NSEW_SW)
        code, doc, _ = run_json(capsys, "rate", "--steps", path)
        assert code == 0
        fields = {f.name for f in dataclasses.fields(solver.RateCertificate)}
        assert set(doc["certificate"]) == fields | {"hypothesis_flags"}
        assert doc["certificate"]["hypothesis_flags"] == {"h1": True, "h2prime": True, "h3": None}

    def test_drift_in_cone(self, capsys, step_file):
        path = step_file("nsew.json", 2, NSEW)
        code, doc, _ = run_json(capsys, "rate", "--steps", path)
        assert code == 0
        assert doc["certificate"]["rho"] == 1.0
        assert doc["certificate"]["x_star"] == [0.0, 0.0]

    def test_improper_exits_2_with_witness(self, capsys, step_file):
        path = step_file("hs.json", 2, HALFSPACE_MODEL)
        code, doc, _ = run_json(capsys, "rate", "--steps", path)
        assert code == 2
        assert doc["status"] == "improper"
        assert doc["witness"] == [0.5, 0.5]

    @pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
    def test_tol_not_a_finite_positive_number_exits_1(self, capsys, step_file, tol):
        # each ran the whole iteration budget and exited 3 with no convergence
        path = step_file("five.json", 2, NSEW_SW)
        code, out, err = run(capsys, "rate", "--steps", path, "--cone", "ineq:[[2,-1],[-1,2]]",
                             f"--tol={tol}", "--json")
        assert code == 1 and out == "" and "tol must be a finite number > 0" in err

    def test_malformed_file_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, "rate", "--steps", str(bad))
        assert code == 1 and "malformed" in err

    @pytest.mark.parametrize("doc", [
        [[1, 0], [0, 1]],
        {"steps": [[1, 0], [-1, -1]]},
        {"dim": 2},
        {"dim": 2, "steps": [["a", "b"], [0, 1]]},
        {"dim": 2, "steps": [["1", "0"], [-1, -1]]},
        {"dim": 2, "steps": [[1, 0], [0]]},
        {"dim": 3, "steps": [[1, 0], [-1, -1]]},
        {"dim": 2, "steps": [1, 0]},
    ], ids=["not-an-object", "no-dim", "no-steps", "non-numeric", "numeric-strings",
            "ragged", "wrong-length", "not-vectors"])
    def test_malformed_step_document_exits_1(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "rate", "--steps", str(path), "--json")
        assert code == 1 and out == "" and f"step file {path}" in err

    @pytest.mark.parametrize("command", ["rate", "check"])
    def test_step_of_length_0_exits_1(self, capsys, tmp_path, command):
        # the step reached the cone parser, which refused dimension 0
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"dim": 0, "steps": [[]]}))
        code, out, err = run(capsys, command, "--steps", str(path), "--json")
        assert code == 1 and out == ""
        assert err == (f"error: step file {path}: "
                       "need at least one step, each a vector of length >= 1\n")

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "rate", "--steps", "/nonexistent/steps.json")
        assert code == 1 and "cannot read" in err

    @pytest.mark.parametrize("c", ["1e200", "1e-80", "1e-200"])
    def test_halfspace_normal_far_from_unit_scale(self, capsys, step_file, c):
        # read at the given scale, 1e200 exited 0 with rho 4.014156019979966e+75
        # and 1e-80 and 1e-200 exited 3 with no convergence
        path = step_file("five.json", 2, NSEW_SW)
        code, doc, _ = run_json(capsys, "rate", "--steps", path, "--cone", f"halfspace:{c},{c}")
        assert code == 0 and doc["status"] == "ok"
        assert abs(doc["certificate"]["rho"] - 0.9458063075961862) <= 2.3e-16

    def test_halfspace_normal_past_the_range_of_doubles_exits_1(self, capsys, step_file):
        path = step_file("five.json", 2, NSEW_SW)
        code, out, err = run(capsys, "rate", "--steps", path, "--cone", "halfspace:1e-300,1e-300",
                             "--json")
        assert code == 1 and out == "" and "range of doubles" in err


    @pytest.mark.parametrize("scale", ["1", "1e12"])
    def test_scaled_inequality_cone_never_exits_0_with_a_wrong_rate(self, capsys, step_file, scale):
        # at 1e12 the ray coefficients of x* are near 2.8e-13; read as zero,
        # they ended the solve after 2 iterations with rho off by 3.5e-6
        path = step_file("nsew_sw.json", 2, NSEW_SW)
        _, want, _ = run_json(capsys, "rate", "--steps", path, "--cone", "ineq:[[2,-1],[-1,2]]")
        cone = f"ineq:[[{2 * float(scale)},-{scale}],[-{scale},{2 * float(scale)}]]"
        code, doc, _ = run_json(capsys, "rate", "--steps", path, "--cone", cone)
        rho = want["certificate"]["rho"]
        assert code == 3 or (code == 0 and abs(doc["certificate"]["rho"] - rho) <= 1e-12 * rho)


class TestEnumerate:
    def test_exact_counts_and_csv(self, capsys, step_file, tmp_path):
        path = step_file("nsew.json", 2, NSEW)
        csv_path = tmp_path / "series.csv"
        code, doc, _ = run_json(capsys, "enumerate", "--steps", path,
                                "--start", "0,0", "--n", "6", "--mode", "exact",
                                "--csv", str(csv_path))
        assert code == 0
        assert doc["values"] == [1, 2, 6, 18, 60, 200, 700]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,count_or_logprob,ratio,extrapolated_rate"
        assert len(lines) == 8
        assert lines[1].startswith("0,1,,")
        assert lines[3].split(",")[1] == "6"

    def test_weighted_survival_log_mode(self, capsys, step_file):
        path = step_file("hsw.json", 2, HALFSPACE_MODEL, weights=[1 / 3, 1 / 3, 1 / 3])
        code, doc, _ = run_json(capsys, "enumerate", "--steps", path,
                                "--start", "1,1", "--n", "200")
        assert code == 0
        assert doc["value_kind"] == "log_value"
        assert abs(doc["estimate"]["extrapolated"] - math.sqrt(2) / 3) <= 5e-3
        assert doc["estimate"]["period"] == 2

    def test_log_mode_csv_matches_the_report(self, capsys, step_file, tmp_path):
        path = step_file("hsw.json", 2, HALFSPACE_MODEL, weights=[1 / 3, 1 / 3, 1 / 3])
        csv_path = tmp_path / "series.csv"
        code, doc, _ = run_json(capsys, "enumerate", "--steps", path, "--start", "1,1",
                                "--n", "20", "--csv", str(csv_path))
        assert code == 0 and doc["value_kind"] == "log_value"
        values, p = doc["values"], doc["estimate"]["period"]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,count_or_logprob,ratio,extrapolated_rate" and len(lines) == 22
        for n, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == str(n) and float(cells[1]) == values[n]
            ratio = float(np.exp((values[n] - values[n - p]) / p)) if n >= p else None
            assert cells[2] == ("" if ratio is None else str(ratio))
            assert float(cells[3]) == doc["estimate"]["extrapolated"]

    def test_unwritable_csv_exits_1(self, capsys, step_file, tmp_path):
        path = step_file("nsew.json", 2, NSEW)
        code, out, err = run(capsys, "enumerate", "--steps", path, "--start", "1,1", "--n", "5",
                             "--csv", str(tmp_path / "missing" / "series.csv"), "--json")
        assert code == 1 and out == "" and "series.csv" in err

    def test_start_outside_cone_exits_1(self, capsys, step_file):
        path = step_file("nsew.json", 2, NSEW)
        code, _, err = run(capsys, "enumerate", "--steps", path,
                           "--start=-1,0", "--n", "5")
        assert code == 1 and "orthant" in err

    def test_steps_past_int64_exit_1(self, capsys, step_file):
        # a cast to int64 wrapped 1e19 and the DP counted the wrong walks
        path = step_file("huge.json", 2, [(1e19, 0), (0, 1), (-1, -1)])
        code, out, err = run(capsys, "enumerate", "--steps", path, "--start", "0,0",
                             "--n", "3", "--json")
        assert code == 1 and out == "" and "2**63" in err

    def test_box_over_budget_refused_before_the_dp(self, capsys, step_file):
        # no gcd narrows these steps: by n = 400 the box can reach
        # 400002 * 402 cells, which the DP once spent about a minute on
        path = step_file("spread.json", 2, [(1000, 0), (-999, 1), (0, -1), (-1, 0)])
        t0 = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "--steps", path, "--start", "1,1",
                             "--n", "400", "--json")
        assert code == 1 and out == "" and "160800804 cells" in err and "budget" in err
        assert time.perf_counter() - t0 < 1.0
        # by n = 20 it can reach 20002 * 22 cells, under the budget
        code, doc, _ = run_json(capsys, "enumerate", "--steps", path, "--start", "1,1",
                                "--n", "20")
        assert code == 0 and doc["status"] == "ok"

    @pytest.mark.parametrize("mode, budget, code", [
        ("exact", 804, 0), ("exact", 803, 1), ("log", 201, 0), ("log", 200, 1)])
    def test_budget_bounds_cells_times_limbs(self, capsys, step_file, monkeypatch,
                                             mode, budget, code):
        # from 0 the 1-D walk reaches 201 cells by n = 200, and 2^200 takes
        # four limbs of r = 61 bits in exact mode
        monkeypatch.setattr(counting, "MAX_BOX_CELLS", budget)
        path = step_file("d1.json", 1, [(1,), (-1,)])
        got, out, err = run(capsys, "enumerate", "--steps", path, "--start", "0",
                            "--n", "200", "--mode", mode, "--json")
        assert got == code
        assert (json.loads(out)["status"] == "ok") if code == 0 else "budget" in err


class TestVerify:
    def test_1d_passes_tolerances(self, capsys, step_file):
        path = step_file("d1.json", 1, [(1,), (-1,)], weights=[0.25, 0.75])
        code, doc, _ = run_json(capsys, "verify", "--steps", path,
                                "--start", "0", "--n", "2000", "--trials", "20000")
        assert code == 0
        assert doc["checks"]["rate_pass"] and doc["checks"]["mc_pass"]
        assert abs(doc["dp"]["extrapolated_rate"] - doc["certificate"]["rho"]) <= 5e-3

    def test_five_step_model(self, capsys, step_file):
        path = step_file("five.json", 2, NSEW_SW)
        code, doc, _ = run_json(capsys, "verify", "--steps", path,
                                "--start", "1,1", "--n", "800", "--trials", "20000")
        assert code == 0
        assert doc["checks"]["rate_pass"]
        assert abs(doc["dp"]["extrapolated_rate"] - 0.9458063) <= 5e-3

    def test_improper_reports_per_start_rates(self, capsys, step_file):
        path = step_file("hs.json", 2, HALFSPACE_MODEL)
        code, doc, _ = run_json(capsys, "verify", "--steps", path,
                                "--start", "1,1", "--n", "1000")
        assert code == 2
        assert doc["status"] == "inapplicable"
        assert doc["witness"] == [0.5, 0.5]
        rates = {tuple(r["start"]): r["extrapolated"] for r in doc["per_start_rates"]}
        assert abs(rates[(1, 1)] - math.sqrt(2) / 3) <= 5e-3
        assert abs(rates[(2, 2)] - (2 / 3) * math.cos(math.pi / 6)) <= 5e-3
        assert rates[(1, 1)] < rates[(2, 2)] < rates[(3, 3)]

    @pytest.mark.parametrize("n, mc_n", [(300, 60), (50, 80)])
    def test_one_dp_run_serves_both_horizons(self, capsys, step_file, monkeypatch, n, mc_n):
        horizons = []
        count_walks = counting.count_walks

        def recorded(steps, start, n_max, **kwargs):
            horizons.append(n_max)
            return count_walks(steps, start, n_max, **kwargs)

        monkeypatch.setattr(counting, "count_walks", recorded)
        path = step_file("five.json", 2, NSEW_SW)
        code, doc, _ = run_json(capsys, "verify", "--steps", path, "--start", "1,1",
                                "--n", str(n), "--mc-n", str(mc_n), "--trials", "2000")
        # at n = 50 the extrapolated DP rate is still outside the rate tolerance
        assert (code, doc["status"]) == {300: (0, "ok"), 50: (3, "check-failed")}[n]
        assert horizons == [max(n, mc_n)]
        weights = np.full(5, 0.2)
        rate = counting.estimate_rate(count_walks(NSEW_SW, (1, 1), n, weights=weights))
        survival = count_walks(NSEW_SW, (1, 1), mc_n, weights=weights).float_value(mc_n)
        assert doc["dp"] == {"extrapolated_rate": rate.extrapolated, "survival_at_mc_n": survival}

    def test_negative_mc_horizon_exits_1(self, capsys, step_file):
        path = step_file("five.json", 2, NSEW_SW)
        code, out, err = run(capsys, "verify", "--steps", path, "--start", "1,1",
                             "--n", "100", "--mc-n", "-3", "--json")
        assert code == 1 and out == "" and "horizon" in err

    def test_failed_check_shows_in_status_and_exit_code(self, capsys, step_file):
        path = step_file("five.json", 2, NSEW_SW)
        code, doc, _ = run_json(capsys, "verify", "--steps", path, "--start", "1,1",
                                "--n", "8", "--mc-n", "8", "--trials", "50")
        assert code == 3 and doc["status"] == "check-failed"
        assert not doc["checks"]["rate_pass"]
        # every figure of a passing report is still there
        assert {"config", "certificate", "dp", "mc", "checks"} <= set(doc)
        assert set(doc["checks"]) == {"rate_tolerance", "rate_gap", "rate_pass",
                                      "mc_band", "mc_gap", "mc_pass"}

    def test_cone_flag_refused(self, capsys, step_file):
        # the enumeration is orthant-only, so verify takes no other cone
        path = step_file("five.json", 2, NSEW_SW)
        code, out, err = run(capsys, "verify", "--steps", path, "--start", "1,1",
                             "--n", "300", "--cone", "halfspace:1,1", "--json")
        assert code == 1 and out == "" and err.startswith("usage:") and "--cone" in err


class TestLatticeStart:
    @pytest.mark.parametrize("command", ["enumerate", "verify", "halfspace"])
    # a float literal at 2**53 or past it may have been rounded: 2**53 + 1
    # reads as 2**53
    @pytest.mark.parametrize("start", ["1.7,1", "inf,1", "nan,1", "1e20,1",
                                       "9007199254740993.0,1", "9007199254740992.0,1"])
    def test_non_integer_start_exits_1(self, capsys, step_file, command, start):
        path = step_file("nsew.json", 2, NSEW)
        argv = {"enumerate": ["enumerate", "--steps", path, "--n", "5"],
                "verify": ["verify", "--steps", path, "--n", "5", "--trials", "10"],
                "halfspace": ["halfspace", "--p", "0.5", "--N", "1", "--n", "20"]}[command]
        code, out, err = run(capsys, *argv, "--start", start, "--json")
        assert code == 1 and out == "" and "integers" in err

    def test_integral_float_start_accepted(self, capsys, step_file):
        path = step_file("nsew.json", 2, NSEW)
        code, doc, _ = run_json(capsys, "enumerate", "--steps", path, "--start", "1.0,1",
                                "--n", "3", "--mode", "exact")
        assert code == 0 and doc["config"]["start"] == [1, 1]
        code, doc, _ = run_json(capsys, "halfspace", "--p", "0.5", "--N", "1", "--n", "20",
                                "--start", "1.0,1.0")
        assert code == 0 and doc["config"]["start"] == [1, 1]

    @pytest.mark.parametrize("command", ["enumerate", "verify", "halfspace"])
    def test_integer_start_past_2_53_read_exactly(self, capsys, step_file, command):
        big = 2**53 + 1  # a double holds it as 2**53
        path = step_file("nsew.json", 2, NSEW)
        argv, start = {
            "enumerate": (["enumerate", "--steps", path, "--n", "1"], [big, 1]),
            "verify": (["verify", "--steps", path, "--n", "5", "--trials", "10"], [big, 5]),
            "halfspace": (["halfspace", "--p", "0.5", "--N", str(big), "--n", "20"], [big, big]),
        }[command]
        code, doc, _ = run_json(capsys, *argv, "--start", ",".join(map(str, start)))
        assert code == 0 and doc["config"]["start"] == start


class TestTextReports:
    """Without --json a report prints one `dotted.key: value` line per leaf,
    a list of more than 12 values abbreviated, under the --json exit code."""

    def test_enumerate_abbreviates_long_lists(self, capsys, step_file):
        path = step_file("nsew.json", 2, NSEW)
        argv = ("enumerate", "--steps", path, "--start", "1,1", "--n", "20")
        code, out, _ = run(capsys, *argv)
        json_code, doc, _ = run_json(capsys, *argv)
        assert code == json_code == 0
        values = doc["values"]
        assert f"values: [{values[0]}, {values[1]}, ... 21 items ..., {values[-1]}]" in out.splitlines()
        assert "config.start: [1, 1]" in out.splitlines()

    def test_check_prints_dotted_keys(self, capsys, step_file):
        path = step_file("hs.json", 2, HALFSPACE_MODEL)
        code, out, _ = run(capsys, "check", "--steps", path)
        json_code, _, _ = run_json(capsys, "check", "--steps", path)
        assert code == json_code == 2
        lines = out.splitlines()
        assert "h2prime.proper: False" in lines and "h2prime.witness: [0.5, 0.5]" in lines
        assert "status: improper" in lines

    def test_verify_prints_per_start_rates_in_insertion_order(self, capsys, step_file):
        # a list of dicts prints as one line, each dict's keys in the order
        # the command set them, not sorted as the --json report has them
        path = step_file("hs.json", 2, HALFSPACE_MODEL)
        argv = ("verify", "--steps", path, "--start", "1,1", "--n", "60", "--trials", "2000")
        code, out, _ = run(capsys, *argv)
        json_code, doc, _ = run_json(capsys, *argv)
        assert code == json_code == 2
        rates = [{"start": r["start"], "extrapolated": r["extrapolated"]}
                 for r in doc["per_start_rates"]]
        assert [r["start"] for r in rates] == [[1, 1], [2, 2], [3, 3]]
        assert f"per_start_rates: {rates}" in out.splitlines()

    @pytest.mark.parametrize("command", ["rate", "enumerate", "verify", "verify-improper",
                                         "check", "halfspace", "brownian", "scan"])
    def test_text_keys_are_the_flattened_json_keys(self, capsys, step_file, command):
        five = step_file("five.json", 2, NSEW_SW)
        argv = {
            "rate": ["rate", "--steps", five],
            "enumerate": ["enumerate", "--steps", five, "--start", "1,1", "--n", "20"],
            "verify": ["verify", "--steps", five, "--start", "1,1", "--n", "8", "--mc-n", "8",
                       "--trials", "50"],
            "verify-improper": ["verify", "--steps", step_file("hs.json", 2, HALFSPACE_MODEL),
                                "--start", "1,1", "--n", "20", "--trials", "50"],
            "check": ["check", "--steps", five],
            "halfspace": ["halfspace", "--p", "0.4", "--N", "2", "--n", "200"],
            "brownian": ["brownian", "--drift=-1,-0.5"],
            "scan": ["scan", "--steps", five, "--grid", "51"],
        }[command]
        code, out, _ = run(capsys, *argv)
        json_code, doc, _ = run_json(capsys, *argv)
        assert code == json_code

        def dotted(obj, prefix=""):
            # the leaves in the order the text walk prints them
            if not isinstance(obj, dict):
                return [prefix[:-1]]
            return [key for k in sorted(obj) for key in dotted(obj[k], f"{prefix}{k}.")]

        assert [line.split(": ", 1)[0] for line in out.splitlines()] == dotted(doc)


class TestCheck:
    def test_proper_model(self, capsys, step_file):
        path = step_file("nsew.json", 2, NSEW)
        code, doc, _ = run_json(capsys, "check", "--steps", path)
        assert code == 0
        assert doc["h1"] and doc["h1_via_covariance"]
        assert doc["h2prime"]["proper"] and doc["h2prime"]["witness"] is None
        assert doc["h3"]["ok"]
        assert doc["find_delta"]["found"] and doc["find_delta"]["delta"] == 0.0

    def test_improper_model_exits_2(self, capsys, step_file):
        path = step_file("hs.json", 2, HALFSPACE_MODEL)
        code, doc, _ = run_json(capsys, "check", "--steps", path)
        assert code == 2
        assert doc["h2prime"]["witness"] == [0.5, 0.5]
        assert not doc["h3"]["ok"]
        assert not doc["find_delta"]["found"]

    def test_failed_h1_shows_in_status_and_exit_code(self, capsys, step_file):
        # steps on one line satisfy H2' and reach the interior, yet `rate`
        # refuses them; `check` said "ok" and exited 0
        path = step_file("line.json", 2, [(1, 1), (-1, -1), (2, 2)])
        code, doc, _ = run_json(capsys, "check", "--steps", path)
        assert code == 2 and doc["status"] == "h1-failed"
        assert not doc["h1"] and not doc["h1_via_covariance"] and doc["h2prime"]["proper"]
        # every field of a passing report is still there
        assert set(doc) == {"command", "config", "status", "h1", "h1_via_covariance",
                            "h2prime", "h3", "find_delta"}
        assert doc["h3"]["ok"] and doc["find_delta"]["found"]
        code, _, err = run(capsys, "rate", "--steps", path)
        assert code == 1 and "H1" in err

    def test_known_h1_false_negative_exits_2(self, capsys, step_file):
        # these steps span R^2 (determinant 2^36), but both float rank tests
        # miss the second singular value, so `check` exits 2 as `rate` refuses;
        # an exact H1 test (ROADMAP item 18) should make this exit 0
        path = step_file("wide.json", 2, [(2**36, 0), (-3 * 2**35, 1)])
        code, doc, _ = run_json(capsys, "check", "--steps", path)
        assert code == 2 and doc["status"] == "h1-failed"
        assert not doc["h1"] and doc["h2prime"]["proper"]

    def test_failed_h1_and_h2prime_report_improper(self, capsys, step_file):
        path = step_file("ray.json", 2, [(-1, -1), (-2, -2)])
        code, doc, _ = run_json(capsys, "check", "--steps", path)
        assert code == 2 and doc["status"] == "improper" and not doc["h1"]

    def test_steps_past_int64_exit_1(self, capsys, step_file):
        # a cast to int64 wrapped 1e19, and the delta search reported a
        # half-space witness next to a proper H2' verdict
        path = step_file("huge.json", 2, [(1e19, 0), (0, 1), (-1, -1)])
        for cone in ("orthant", "halfspace:1,1"):
            code, out, err = run(capsys, "check", "--steps", path, "--cone", cone, "--json")
            assert code == 1 and out == "" and "2**63" in err

    def test_steps_past_2_53_read_exactly(self, capsys, step_file):
        # read through doubles, the second step rounded to -2**62 - 2**61, the
        # steps shared the factor 2**61, and the search on (2, 0), (-3, 2)
        # reported a path through that step, which is not in the file
        path = step_file("big.json", 2, [(2**62, 0), (-2**62 - 2**61 + 1, 2**62)])
        code, out, err = run(capsys, "check", "--steps", path, "--json")
        assert code == 1 and out == "" and "2**63" in err

    def test_search_past_its_budget_exits_1(self, capsys, step_file):
        # {+-e1, +-e2, -e3} never reaches the interior, so by depth 3000 the
        # search would visit the 4.5 million points of a triangle in z = 0
        path = step_file("flat.json", 3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                          (0, 0, -1)])
        t0 = time.perf_counter()
        code, out, err = run(capsys, "check", "--steps", path, "--depth", "3000", "--json")
        assert code == 1 and out == "" and "budget" in err
        assert time.perf_counter() - t0 < 10.0

    def test_other_cone_reports_no_h3(self, capsys, step_file):
        path = step_file("nsew.json", 2, NSEW)
        code, doc, _ = run_json(capsys, "check", "--steps", path, "--cone", "halfspace:1,-1")
        assert code == 0
        assert doc["h3"] is None
        # (0, -1) enters the open half-space {x1 - x2 > 0} in one step
        assert doc["find_delta"]["found"] and doc["find_delta"]["path"] == [[0, -1]]


class TestRaysCone:
    """A ray-generated cone is read through its derived normals."""

    def test_rate_equals_its_inequality_description(self, capsys, step_file):
        path = step_file("nsew_sw.json", 2, NSEW_SW)
        code, doc, _ = run_json(capsys, "rate", "--steps", path, "--cone", "rays:[[1,0],[1,1]]")
        _, ineq, _ = run_json(capsys, "rate", "--steps", path, "--cone", "ineq:[[0,1],[1,-1]]")
        assert code == 0 and doc["status"] == "ok"
        assert doc["certificate"] == ineq["certificate"]

    def test_check_improper_with_witness(self, capsys, step_file):
        path = step_file("hs.json", 2, HALFSPACE_MODEL)
        code, doc, _ = run_json(capsys, "check", "--steps", path, "--cone", "rays:[[3,1],[1,3]]")
        _, ineq, _ = run_json(capsys, "check", "--steps", path, "--cone", "ineq:[[-1,3],[3,-1]]")
        assert code == 2 and doc["h2prime"] == ineq["h2prime"] and not doc["h2prime"]["proper"]
        assert not doc["find_delta"]["found"]
        assert doc["find_delta"]["h2_witness"] == doc["h2prime"]["witness"]

    def test_four_dimensions_exit_0(self, capsys, step_file):
        path = step_file("d4.json", 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                                        (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0),
                                        (0, 0, 0, -1), (-1, -1, -1, -1)])
        for command in ("rate", "check"):
            code, doc, _ = run_json(capsys, command, "--steps", path,
                                    "--cone", "rays:[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]")
            _, orth, _ = run_json(capsys, command, "--steps", path)
            assert code == 0 and doc["status"] == "ok"
            if command == "rate":
                rho, want = doc["certificate"]["rho"], orth["certificate"]["rho"]
                assert abs(rho - want) <= 1e-12 * want

    @pytest.mark.parametrize("scale, cone", [
        (1.0, "ineq:[[2e-9,-1e-9],[-1e-9,2e-9]]"),
        (1.0, "ineq:[[2e-12,-1e-12],[-1e-12,2e-12]]"),
        (1.0, "ineq:[[2e-15,-1e-15],[-1e-15,2e-15]]"),
        (1e-9, "orthant"),
    ])
    def test_off_scale_data_exit_0(self, capsys, step_file, scale, cone):
        # both LPs read rows scaled into [1, 2) and the solver's tolerances
        # follow the scale below 1, so tiny steps or cone vectors certify
        path = step_file("scaled.json", 2, [[scale * v for v in s] for s in NSEW_SW])
        code, doc, _ = run_json(capsys, "rate", "--steps", path, "--cone", cone)
        unscaled = "orthant" if cone == "orthant" else "ineq:[[2,-1],[-1,2]]"
        _, want, _ = run_json(capsys, "rate", "--steps", step_file("five.json", 2, NSEW_SW),
                              "--cone", unscaled)
        rho, want = doc["certificate"]["rho"], want["certificate"]["rho"]
        assert code == 0 and doc["status"] == "ok" and abs(rho - want) <= 1e-12 * want

    def test_cone_without_interior_exit_1(self, capsys, step_file):
        # K* of the ray (1, 0) holds a line: no rate, no H2' verdict
        path = step_file("nsew.json", 2, [(0, 1), (0, -1), (1, 0), (-1, 0)])
        for command in ("rate", "check"):
            code, out, err = run(capsys, command, "--steps", path, "--json", "--cone", "rays:[[1,0]]")
            assert code == 1 and out == "" and "non-empty interior" in err


class TestHalfspace:
    def test_proposition_fixture(self, capsys):
        code, doc, _ = run_json(capsys, "halfspace", "--p", "0.3333333333333333",
                                "--N", "1", "--n", "1200")
        assert code == 0
        assert abs(doc["closed_form"] - math.sqrt(2) / 3) <= 1e-9
        assert doc["abs_error"] <= 5e-3

    def test_off_diagonal_start_exits_1(self, capsys):
        code, _, err = run(capsys, "halfspace", "--p", "0.5", "--N", "1",
                           "--n", "100", "--start", "2,1")
        assert code == 1 and "diagonal" in err


class TestBrownian:
    def test_orthant_cross_check(self, capsys):
        code, doc, _ = run_json(capsys, "brownian", "--drift=-1,-1")
        assert code == 0
        assert abs(doc["closed_form"] - math.exp(-1.0)) <= 1e-12
        assert doc["abs_diff"] <= 1e-9

    def test_halfspace_cone(self, capsys):
        code, doc, _ = run_json(capsys, "brownian", "--drift=3,-4",
                                "--cone", "halfspace:0,1")
        assert code == 0
        assert abs(doc["closed_form"] - math.exp(-8.0)) <= 1e-12

    def test_non_finite_drift_exits_1(self, capsys):
        code, out, err = run(capsys, "brownian", "--drift=nan,1", "--json")
        assert code == 1 and out == "" and "finite" in err

    def test_non_numeric_drift_exits_1(self, capsys):
        code, out, err = run(capsys, "brownian", "--drift=a,b", "--json")
        assert code == 1 and out == "" and "bad drift" in err

    def test_dual_ray_far_out(self, capsys):
        # 0.5 t^2 |u|^2 = 5000 at t = 1 along the normal as given, whose
        # minimum lies at t = 0.01
        code, doc, _ = run_json(capsys, "brownian", "--drift=-1,0", "--cone", "halfspace:100,0")
        assert code == 0 and doc["status"] == "ok"
        assert abs(doc["closed_form"] - math.exp(-0.5)) <= 1e-15
        assert doc["abs_diff"] <= 1e-15

    @pytest.mark.parametrize("c", ["1e200", "1e-200"])
    def test_halfspace_normal_far_from_unit_scale(self, capsys, c):
        # read at the given scale, |u|^2 overflowed at 1e200, where both
        # routes reported 1.0, and underflowed at 1e-200, where both gave NaN
        code, doc, _ = run_json(capsys, "brownian", "--drift=-1,-0.5", "--cone", f"halfspace:{c},0")
        assert code == 0 and doc["status"] == "ok"
        assert doc["solver_rho"] == doc["closed_form"] == 0.6065306597126334
        assert doc["abs_diff"] == 0.0

    def test_unsupported_cone_kind_exits_1(self, capsys):
        code, _, err = run(capsys, "brownian", "--drift", "1,1",
                           "--cone", "rays:[[1,0],[1,1]]")
        assert code == 1


class TestScan:
    def test_five_step_gap(self, capsys, step_file):
        path = step_file("five.json", 2, NSEW_SW)
        code, doc, _ = run_json(capsys, "scan", "--steps", path, "--grid", "721")
        assert code == 0
        assert doc["gap"] >= -1e-12
        assert doc["gap"] <= 1e-3
        assert abs(doc["scan_minimum"] - doc["growth_constant"]) <= 1e-3

    def test_improper_exits_2(self, capsys, step_file):
        path = step_file("hs.json", 2, HALFSPACE_MODEL)
        code, doc, _ = run_json(capsys, "scan", "--steps", path, "--grid", "51")
        assert code == 2 and doc["status"] == "improper"

    def test_steps_past_the_overflow_guard_are_batched(self, capsys, step_file):
        # the batch decides all 721 directions at once, on the steps scaled
        # by 2^-9; the scalar solver needs about 15 ms for each
        path = step_file("far.json", 2, [(1000, 2), (-500, 2), (-1000, 1)])
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            code, doc, _ = run_json(capsys, "scan", "--steps", path)
            seconds.append(time.perf_counter() - t0)
        assert code == 0
        assert doc["growth_constant"].hex() == "0x1.78e2ef2a7f78ep+1"
        assert doc["scan_minimum"].hex() == "0x1.78e2ef2a7f78fp+1"
        assert doc["argmin_direction"] == [1.0, 0.0]
        assert min(seconds) < 0.2

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_exits_1(self, capsys, step_file, grid):
        path = step_file("five.json", 2, NSEW_SW)
        code, out, err = run(capsys, "scan", "--steps", path, "--grid", grid, "--json")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "angular grid" in err


class TestExitContract:
    """`cli.main` alone maps library errors to exit codes and prints the
    report, so every command follows one error path."""

    @pytest.mark.parametrize("command", ["rate", "check"])
    @pytest.mark.parametrize("cone", ["halfspace:1,1,1", "rays:[[1,0,0],[0,1,0],[0,0,1]]",
                                      "ineq:[[1]]"])
    def test_cone_of_another_dimension_exits_1(self, capsys, step_file, command, cone):
        # each ended in numpy's matmul error
        path = step_file("interior.json", 2, [(1, 1), (-1, 0), (0, -1)])
        code, out, err = run(capsys, command, "--steps", path, "--cone", cone, "--json")
        assert code == 1 and out == ""
        assert "cone dimension" in err and "matmul" not in err

    @pytest.mark.parametrize("command, target", [
        ("rate", "minimize_on_dual"), ("verify", "minimize_on_dual"),
        ("scan", "hyperplane_scan"), ("brownian", "minimize_on_dual")])
    def test_non_convergence_exits_3_with_config(self, capsys, step_file, monkeypatch,
                                                 command, target):
        def stalled(*args, **kwargs):
            raise solver.NonConvergenceError("stalled", [])

        monkeypatch.setattr(solver, target, stalled)
        path = step_file("five.json", 2, NSEW_SW)
        argv = {"rate": ["rate", "--steps", path],
                "verify": ["verify", "--steps", path, "--start", "1,1", "--n", "20"],
                "scan": ["scan", "--steps", path, "--grid", "51"],
                "brownian": ["brownian", "--drift=-1,-1"]}[command]
        code, doc, err = run_json(capsys, *argv)
        assert code == 3 and err == ""
        assert set(doc) == {"command", "config", "status", "message"}
        assert doc["command"] == command and doc["config"]
        assert doc["status"] == "non-convergence" and doc["message"] == "stalled"

    @pytest.mark.parametrize("command", ["rate", "check", "verify", "scan", "enumerate"])
    @pytest.mark.parametrize("steps, weights", [
        ([(1, 0), (0, 1), (-1, -1)], [math.nan, 0.5, 0.5]),
        ([(math.inf, 0), (0, 1), (-1, -1)], None),
    ])
    def test_non_finite_step_file_exits_1(self, capsys, step_file, command, steps, weights):
        # NaN weights pass the positivity and sum checks; an infinite step
        # made `check` print numpy RuntimeWarnings
        path = step_file("bad.json", 2, steps, weights=weights)
        argv = {"rate": ["rate"], "check": ["check"], "scan": ["scan", "--grid", "51"],
                "verify": ["verify", "--start", "1,1", "--n", "20"],
                "enumerate": ["enumerate", "--start", "1,1", "--n", "5"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--steps", path, "--json")
        assert code == 1 and out == "" and "finite" in err

    @pytest.mark.parametrize("argv", [("rate", "--threads", "2"), ("check", "--seed", "1")])
    def test_flags_of_no_effect_refused(self, capsys, step_file, argv):
        # every command runs in one thread, and only verify draws random
        # numbers; reports keep the values these runs have
        nsew = step_file("nsew.json", 2, NSEW)
        code, out, err = run(capsys, *argv, "--steps", nsew, "--json")
        assert code == 1 and out == "" and err.startswith("usage:")
        code, doc, _ = run_json(capsys, argv[0], "--steps", nsew)
        assert code == 0 and doc["config"]["threads"] == 1 and doc["config"]["seed"] == 0

    def test_scan_grid_past_the_budget_exits_1(self, capsys, step_file):
        # refused before the scan allocates its 10^15 x 5 exponents
        path = step_file("five.json", 2, NSEW_SW)
        code, out, err = run(capsys, "scan", "--steps", path, "--grid", "1000000000000000",
                             "--json")
        assert code == 1 and out == "" and "scan budget" in err


# tokens spliced into fuzzed command lines: flags without values, values
# without flags, out-of-range numbers and malformed literals
FUZZ_TOKENS = ("--n", "-1", "nan", "1e400", "--cone", "wedge:1", "halfspace:", "ineq:[[1]]",
               "--start", "a,b", "--grid", "0", "--trials", "0", "--depth", "--steps",
               "/nonexistent/steps.json", "--mode", "--bogus", "rate", "")


@st.composite
def fuzzed_argv(draw, directory):
    """A rate/check/enumerate/verify/scan command line on steps from
    {-2..2}^d, d = 1..3, scaled by c, sometimes with one token dropped or
    one spliced in."""
    d = draw(st.integers(1, 3))
    c = draw(st.sampled_from([1e-9, 1e-3, 1, 1000, 10**9]))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=7,
                         unique=True))
    path = directory / f"steps{draw(st.integers(0, 10**9))}.json"
    path.write_text(json.dumps({"dim": d, "steps": [[c * v for v in row] for row in rows]}))
    cone = draw(st.sampled_from(["orthant", "halfspace"]))
    if cone == "halfspace":
        cone += ":" + ",".join(str(draw(st.integers(-2, 2))) for _ in range(d))
    start = ",".join(str(draw(st.integers(0, 3))) for _ in range(d))
    n = str(draw(st.integers(0, 30)))
    command = draw(st.sampled_from(["rate", "check", "enumerate", "verify", "scan"]))
    argv = [command, "--steps", str(path)] + {
        "rate": ["--cone", cone],
        "check": ["--cone", cone] + draw(st.sampled_from([[], ["--depth", n]])),
        "enumerate": ["--start", start, "--n", n, "--mode", draw(st.sampled_from(["exact", "log"]))],
        "verify": ["--start", start, "--n", n, "--trials", str(draw(st.integers(1, 200)))],
        "scan": ["--grid", str(draw(st.integers(1, 51)))],
    }[command] + draw(st.sampled_from([[], ["--json"]]))
    edit = draw(st.sampled_from(["none", "none", "drop", "splice"]))
    at = draw(st.integers(0, len(argv) - 1))
    if edit == "drop":
        del argv[at]
    elif edit == "splice":
        argv.insert(at, draw(st.sampled_from(FUZZ_TOKENS)))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_argv_exits_with_a_code_of_the_contract(tmp_path_factory, data):
    # no exception escapes cli.main, and every exit code is one of 0..3
    argv = data.draw(fuzzed_argv(tmp_path_factory.getbasetemp()))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv


@pytest.mark.parametrize("command, field", [("rate", "certificate"), ("scan", "scan_minimum")])
def test_steps_of_size_1e9_in_1d(capsys, step_file, command, field):
    # the solver reads the steps scaled into [1, 2), so they certify at
    # once with the rate of the steps divided by 1e9
    reports = []
    for name, c in (("unit.json", 1.0), ("1e9.json", 1e9)):
        path = step_file(name, 1, [(c,), (0,), (-c,), (-2 * c,)])
        code, doc, _ = run_json(capsys, command, "--steps", path)
        assert code == 0 and doc["status"] == "ok"
        reports.append(doc[field]["rho"] if command == "rate" else doc[field])
    assert abs(reports[1] - reports[0]) <= 1e-12 * reports[0]


def test_module_entry_point_reports_non_convergence(step_file):
    # the orthant Newton stalls on this set at scale 1, though its minimum
    # exists: the line search finds no descent above the tolerance
    path = step_file("stall.json", 2, [(0, -1), (-1, -2), (2, 2), (-2, -1), (-1, -1), (-2, -2),
                                       (-1, 2)])
    proc = run_python("-m", "conewalks.cli", "scan", "--steps", path, "--grid", "51", "--json")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["status"] == "non-convergence" and doc["config"]["grid"] == 51


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has left: every write raises BrokenPipeError."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


class TestClosedStdout:
    """`conewalks ... | head -1`: a reader that leaves early ends no command
    with a traceback, and the command keeps its exit code."""

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    @pytest.mark.parametrize("steps, want", [(NSEW, 0), ([(1, 1), (-1, -1), (2, 2)], 2)],
                             ids=["ok", "h1-failed"])
    def test_broken_pipe_sends_stdout_to_devnull(self, step_file, tmp_path, monkeypatch,
                                                 steps, want, as_json):
        path = step_file("steps.json", 2, steps)
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
            code = cli.main(["check", "--steps", path] + ["--json"] * as_json)
            # the flush at exit writes to os.devnull, not to the closed pipe
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert code == want

    def test_module_entry_point_on_a_closed_pipe(self, step_file):
        path = step_file("nsew.json", 2, NSEW)
        # a pipe whose read end is closed before the command starts
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_python("-m", "conewalks.cli", "check", "--steps", path, "--json",
                              stdout=write)
        finally:
            os.close(write)
        assert proc.returncode == 0 and proc.stderr == ""


class TestDeterminism:
    def test_reports_byte_identical(self, capsys, step_file):
        d1 = step_file("d1.json", 1, [(1,), (-1,)], weights=[0.25, 0.75])
        nsew = step_file("nsew.json", 2, NSEW)
        hs = step_file("hs.json", 2, HALFSPACE_MODEL)
        commands = [
            ("rate", "--steps", d1),
            ("enumerate", "--steps", nsew, "--start", "1,1", "--n", "30"),
            ("verify", "--steps", d1, "--start", "2", "--n", "300",
             "--trials", "5000", "--seed", "3"),
            ("check", "--steps", nsew),
            ("halfspace", "--p", "0.4", "--N", "1", "--n", "300"),
            ("brownian", "--drift=-0.5,-1.5"),
            ("scan", "--steps", nsew, "--grid", "51"),
        ]
        for argv in commands:
            _, out1, _ = run(capsys, *argv, "--json")
            _, out2, _ = run(capsys, *argv, "--json")
            assert out1 == out2, f"non-deterministic report for {argv[0]}"

    def test_cone_literals_parse(self, capsys, step_file):
        nsew = step_file("nsew.json", 2, NSEW)
        for cone in ("orthant", "halfspace:1,1", "ineq:[[1,0],[0,1]]"):
            code, doc, _ = run_json(capsys, "rate", "--steps", nsew, "--cone", cone)
            assert code == 0, cone
            assert doc["status"] == "ok"

    @pytest.mark.parametrize("command", ["rate", "check"])
    @pytest.mark.parametrize("cone", ["halfspace:nan,1", "ineq:[[NaN,1],[0,1]]",
                                      "rays:[[1,0],[NaN,1]]", "halfspace:inf,1"])
    def test_non_finite_cone_exits_1(self, capsys, step_file, command, cone):
        nsew = step_file("nsew.json", 2, NSEW)
        code, out, err = run(capsys, command, "--steps", nsew, "--cone", cone, "--json")
        assert code == 1 and out == "" and "finite" in err

    def test_bad_cone_literal_exits_1(self, capsys, step_file):
        nsew = step_file("nsew.json", 2, NSEW)
        code, _, err = run(capsys, "rate", "--steps", nsew, "--cone", "wedge:1,2")
        assert code == 1 and "cone literal" in err

    def test_one_parser_serves_every_call(self, capsys, step_file, monkeypatch):
        # an optional flag of one call must not carry over to the next
        d1 = step_file("d1.json", 1, [(1,), (-1,)], weights=[0.25, 0.75])
        five = step_file("five.json", 2, NSEW_SW)
        verify = ("verify", "--steps", d1, "--start", "2", "--n", "40", "--trials", "2000")
        calls = [
            (*verify, "--mc-n", "60"),
            verify,
            ("rate", "--steps", five, "--cone", "ineq:[[2,-1],[-1,2]]"),
            ("rate", "--steps", five, "--threads", "2"),
            ("rate", "--steps", five),
            ("check", "--steps", five, "--depth", "3"),
            ("check", "--steps", five),
        ]
        shared = [run(capsys, *argv, "--json")[:2] for argv in calls]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run(capsys, *argv, "--json")[:2] for argv in calls]
        assert shared == fresh
        assert [code for code, _ in shared] == [0, 0, 0, 1, 0, 0, 0]
        assert json.loads(shared[0][1])["config"] != json.loads(shared[1][1])["config"]
        assert json.loads(shared[2][1]) != json.loads(shared[4][1])


IMPORT_GUARD = """
import sys
import conewalks as cw
from conewalks import cli
assert cli.main(["check", "--steps", sys.argv[1], "--json"]) == 0
m = cw.from_step_set([(1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1)])
assert cw.has_global_min_on_cone(cw.FiniteLaplace(m), cw.orthant(2))
loaded = sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy."))
assert not loaded, loaded
"""


def test_library_loads_no_scipy(step_file):
    # scipy is a test and benchmark dependency only; importing it would add
    # about half a second to every command
    path = step_file("five.json", 2, NSEW_SW)
    proc = run_python("-c", IMPORT_GUARD, path)
    assert proc.returncode == 0, proc.stderr
