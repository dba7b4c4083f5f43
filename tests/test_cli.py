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


def run_python(*argv):
    """A fresh interpreter that imports conewalks from this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)


class TestRate:
    def test_1d_closed_form(self, capsys, step_file):
        path = step_file("d1.json", 1, [(1,), (-1,)], weights=[0.25, 0.75])
        code, doc, _ = run_json(capsys, "rate", "--steps", path)
        assert code == 0 and doc["status"] == "ok"
        cert = doc["certificate"]
        assert abs(cert["rho"] - 0.8660254) <= 1e-6
        assert abs(cert["x_star"][0] - 0.5493061) <= 1e-6

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

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "rate", "--steps", "/nonexistent/steps.json")
        assert code == 1 and "cannot read" in err


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
        assert code == 1 and out == "" and "--cone" in err


class TestLatticeStart:
    @pytest.mark.parametrize("command", ["enumerate", "verify", "halfspace"])
    @pytest.mark.parametrize("start", ["1.7,1", "inf,1", "nan,1", "1e20,1"])
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

    def test_other_cone_reports_no_h3(self, capsys, step_file):
        path = step_file("nsew.json", 2, NSEW)
        code, doc, _ = run_json(capsys, "check", "--steps", path, "--cone", "halfspace:1,-1")
        assert code == 0
        assert doc["h3"] is None
        # (0, -1) enters the open half-space {x1 - x2 > 0} in one step
        assert doc["find_delta"]["found"] and doc["find_delta"]["path"] == [[0, -1]]


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

    def test_dual_ray_far_out(self, capsys):
        # 0.5 t^2 |u|^2 = 5000 at t = 1; the minimum lies at t = 0.01
        code, doc, _ = run_json(capsys, "brownian", "--drift=-1,0", "--cone", "halfspace:100,0")
        assert code == 0 and doc["status"] == "ok"
        assert abs(doc["closed_form"] - math.exp(-0.5)) <= 1e-15
        assert doc["abs_diff"] <= 1e-15

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
        # 366 of the 721 directions pass the guard at t = 1; the batch must
        # decide them, since the scalar solver needs about 15 ms for each
        path = step_file("far.json", 2, [(1000, 2), (-500, 2), (-1000, 1)])
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            code, doc, _ = run_json(capsys, "scan", "--steps", path)
            seconds.append(time.perf_counter() - t0)
        assert code == 0 and doc["gap"] == 0.0
        assert doc["scan_minimum"].hex() == "0x1.78e2ef2a7f78ep+1"
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

    @pytest.mark.parametrize("command", ["rate", "check", "verify", "scan"])
    @pytest.mark.parametrize("steps, weights", [
        ([(1, 0), (0, 1), (-1, -1)], [math.nan, 0.5, 0.5]),
        ([(math.inf, 0), (0, 1), (-1, -1)], None),
    ])
    def test_non_finite_step_file_exits_1(self, capsys, step_file, command, steps, weights):
        # NaN weights pass the positivity and sum checks; an infinite step
        # made `check` print numpy RuntimeWarnings
        path = step_file("bad.json", 2, steps, weights=weights)
        argv = {"rate": ["rate"], "check": ["check"], "scan": ["scan", "--grid", "51"],
                "verify": ["verify", "--start", "1,1", "--n", "20"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--steps", path, "--json")
        assert code == 1 and out == "" and "finite" in err

    def test_scan_grid_past_the_budget_exits_1(self, capsys, step_file):
        # refused before the scan allocates its 10^15 x 5 exponents
        path = step_file("five.json", 2, NSEW_SW)
        code, out, err = run(capsys, "scan", "--steps", path, "--grid", "1000000000000000",
                             "--json")
        assert code == 1 and out == "" and "scan budget" in err


def test_module_entry_point_reports_non_convergence(step_file):
    # {E,N,W,S,SW} scaled by 1e9 has the rate of the unscaled set, but the
    # orthant Newton cannot reach its absolute gradient tolerance there
    path = step_file("five_1e9.json", 2, [(1e9 * a, 1e9 * b) for a, b in NSEW_SW])
    proc = run_python("-m", "conewalks.cli", "scan", "--steps", path, "--grid", "51", "--json")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["status"] == "non-convergence" and doc["config"]["grid"] == 51


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
