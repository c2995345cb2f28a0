import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from odmlab.cli import main

PKG = [sys.executable, "-m", "odmlab.cli"]


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        PKG + list(args), capture_output=True, text=True, cwd=cwd,
        env=None if env is None else {**os.environ, **env},
    )


def simulate_csv(tmp_path, name="series.csv", n=120, seed=7, theta=("0.1", "0.5", "0.3")):
    out = str(tmp_path / name)
    omega, a, b = theta
    proc = run_cli(
        "simulate", "--family", "loglin", "--omega", omega, "--a", a, "--b", b,
        "--n", str(n), "--seed", str(seed), "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    return out


class TestSimulate:
    def test_row_count_and_seed_echo(self, tmp_path):
        out = str(tmp_path / "s.csv")
        proc = run_cli(
            "simulate", "--family", "loglin", "--omega", "0.1", "--a", "0.5",
            "--b", "0.3", "--n", "2000", "--seed", "7", "--out", out,
        )
        assert proc.returncode == 0
        assert "seed 7" in proc.stdout
        lines = open(out).read().splitlines()
        assert lines[0] == "t,y"
        assert len(lines) == 1 + 2001

    def test_rerun_byte_identical(self, tmp_path):
        a = simulate_csv(tmp_path, "a.csv")
        b = simulate_csv(tmp_path, "b.csv")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_require_stable_rejects(self, tmp_path):
        proc = run_cli(
            "simulate", "--family", "nbin", "--omega", "1", "--a", "0.5",
            "--b", "0.3", "--r", "2", "--n", "50",
            "--out", str(tmp_path / "x.csv"), "--require-stable",
        )
        assert proc.returncode == 2
        assert "verdict" in proc.stderr or "Fail" in proc.stderr

    def test_invalid_theta_exits_2(self, tmp_path):
        proc = run_cli(
            "simulate", "--family", "nbin", "--omega", "-1", "--a", "0.1",
            "--b", "0.1", "--r", "2", "--n", "10", "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 2

    def test_parx_covariate_columns(self, tmp_path):
        out = str(tmp_path / "p.csv")
        proc = run_cli(
            "simulate", "--family", "parx", "--omega", "0.5", "--a", "0.3",
            "--b", "0.2", "--gamma", "0.2", "0.1", "--xi-dim", "2",
            "--feature", "abs", "square", "--sigma", "0.8",
            "--n", "30", "--seed", "3", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        header = open(out).read().splitlines()[0]
        assert header == "t,y,xi_1,xi_2"


class TestCheck:
    def test_loglin_pass(self):
        proc = run_cli("check", "--family", "loglin", "--omega", "0", "--a", "0.5", "--b", "0.3")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "Pass"

    def test_nbin_fail_with_lhs(self):
        proc = run_cli(
            "check", "--family", "nbin", "--omega", "1", "--a", "0.5", "--b", "0.3", "--r", "2"
        )
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "Fail"
        assert payload["lhs"] == pytest.approx(1.1)

    def test_identifiability_common_root(self):
        proc = run_cli(
            "check", "--family", "loglin", "--omega", "0",
            "--a", "0.3", "0.1", "--b", "1", "-0.5",
        )
        payload = json.loads(proc.stdout)
        assert payload["identifiability"]["verdict"] == "Fail"

    def test_general_order_verdict_and_budget_error(self):
        args = ["check", "--family", "loglin", "--omega", "0", "--a", "0.1", "--b"]
        args += ["0.01"] * 21
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == "Pass"
        proc = run_cli(*args, "--certificate-depth", "25")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: certificate depth 25")
        assert "Traceback" not in proc.stderr

    def test_json_roundtrip_is_stable(self):
        proc = run_cli("check", "--family", "loglin", "--omega", "0", "--a", "0.5", "--b", "0.3")
        payload = json.loads(proc.stdout)
        again = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert again == proc.stdout


PARX_ARGS = ("--family", "parx", "--omega", "0.5", "--a", "0.3", "--b", "0.2", "--gamma", "0.3")
NBIN_ARGS = ("--family", "nbin", "--omega", "1", "--a", "0.3", "--b", "0.2", "--r", "2")
LOGLIN_ARGS = ("--family", "loglin", "--omega", "0", "--a", "0.1", "--b", "0.1")
LOGLIN_THETA = {"family": "loglin", "order": {"p": 1, "q": 1},
                "theta_hat": {"omega": 0.1, "a1": 0.5, "b1": 0.3}}
MC_CONFIG = {"family": "loglin", "theta_star": {"omega": 0.1, "a": [0.5], "b": [0.3]},
             "n": [40], "replicates": 2, "seed": 1, "fit": {"starts": 2}}
# the input files of the error table, written to the working directory
ERROR_FILES = {
    "one.csv": "t,y\n0,3\n",
    "loglin.csv": "t,y\n0,3\n1,1\n2,4\n3,0\n",
    "huge.csv": f"t,y\n0,3\n1,1\n2,{10**306}\n3,0\n",
    "huge61.csv": "t,y\n" + "".join(f"{t},{(3, 1, 4, 0, 2)[t % 5] if t < 60 else 10**306}\n"
                                     for t in range(61)),
    # each ln y! is a double, their sum is not
    "over62.csv": "t,y\n" + "".join(f"{t},{(3, 1, 4, 0, 2)[t % 5] if t < 60 else 2 * 10**305}\n"
                                     for t in range(62)),
    "parx.csv": "t,y,xi_1\n0,3,0.5\n1,1,nan\n2,4,0.1\n3,0,0.2\n",
    "box.json": [1, 2],
    "theta_list.json": [1],
    "theta_hat_list.json": {**LOGLIN_THETA, "theta_hat": [1]},
    "omega_string.json": {**LOGLIN_THETA, "theta_hat": {"omega": "x", "a1": 0.5, "b1": 0.3}},
    "order_string.json": {**LOGLIN_THETA, "order": {"p": "x"}},
    "parx_theta.json": {"family": "parx", "order": {"p": 1, "q": 1},
                        "theta_hat": {"omega": 0.5, "a1": 0.3, "b1": 0.2, "gamma1": 0.3}},
    "omega_null.json": {**LOGLIN_THETA, "theta_hat": {"omega": None, "a1": 0.5, "b1": 0.3}},
    "omega_bool.json": {**LOGLIN_THETA, "theta_hat": {"omega": True, "a1": 0.5, "b1": 0.3}},
    "order_fraction.json": {**LOGLIN_THETA, "order": {"p": 1.7, "q": 1}},
    "omega_690.json": {**LOGLIN_THETA, "theta_hat": {"omega": 690, "a1": 0.0, "b1": 0.0}},
    "omega_20.json": {**LOGLIN_THETA, "theta_hat": {"omega": 20, "a1": 0.0, "b1": 0.0}},
    "nbin_omega_1e200.json": {"family": "nbin", "order": {"p": 1, "q": 1},
                              "theta_hat": {"omega": 1e200, "a1": 0.0, "b1": 0.0, "r": 2.0}},
    "mc_burn_in.json": {**MC_CONFIG, "burn_in": -5},
    "mc_polish_string.json": {**MC_CONFIG, "fit": {"starts": 2, "polish": "false"}},
    "mc_guard_string.json": {**MC_CONFIG, "fit": {"starts": 2, "guard_override": "no"}},
    "mc_starts_fraction.json": {**MC_CONFIG, "fit": {"starts": 2.7}},
    "mc_starts_bool.json": {**MC_CONFIG, "fit": {"starts": True}},
    "mc_starts_0.json": {**MC_CONFIG, "fit": {"starts": 0}},
    "mc_max_evals_0.json": {**MC_CONFIG, "fit": {"max_evals": 0}},
    "mc_fit_key.json": {**MC_CONFIG, "fit": {"starts": 2, "max_eval": 10}},
    "mc_replicates_fraction.json": {**MC_CONFIG, "replicates": 2.7},
    "mc_replicates_bool.json": {**MC_CONFIG, "replicates": True},
    "mc_replicates_string.json": {**MC_CONFIG, "replicates": "2"},
    "mc_n_fraction.json": {**MC_CONFIG, "n": [60.9]},
    "mc_seed_fraction.json": {**MC_CONFIG, "seed": 1.5},
    "mc_burn_in_fraction.json": {**MC_CONFIG, "burn_in": 10.9},
    "mc_burn_in_bool.json": {**MC_CONFIG, "burn_in": True},
    "mc_omega_bool.json": {**MC_CONFIG, "theta_star": {"omega": True, "a": [0.5], "b": [0.3]}},
    "mc_xi_dim_bool.json": {**MC_CONFIG, "family": "parx", "xi_dim": True, "theta_star": {
        "omega": 0.5, "a": [0.3], "b": [0.2], "gamma": [0.3]}},
    "mc_feature_string.json": {**MC_CONFIG, "family": "parx", "feature": "abs", "theta_star": {
        "omega": 0.5, "a": [0.3], "b": [0.2], "gamma": [0.3]}},
    "mc_family_list.json": {**MC_CONFIG, "family": ["nbin"]},
    "mc_loglin_sigma.json": {**MC_CONFIG, "sigma": -5},
}
FORECAST = ("forecast", "--family", "loglin", "--data", "loglin.csv", "--theta-file")
# argv, and a piece of the one error line
ERROR_TABLE = {
    "loglik_one_row": (("loglik", *LOGLIN_ARGS, "--data", "one.csv"), "two observations"),
    "simulate_n_0": (("simulate", *LOGLIN_ARGS, "--n", "0"), "n must be >= 1"),
    "simulate_negative_burn_in": (("simulate", *LOGLIN_ARGS, "--n", "10", "--burn-in", "-1"),
                                  "burn_in must be >= 0"),
    "fit_box_file_list": (("fit", "--family", "loglin", "--data", "loglin.csv",
                           "--box-file", "box.json"), "bad box file box.json"),
    "forecast_theta_file_list": ((*FORECAST, "theta_list.json"),
                                 "theta file must be a JSON object"),
    "forecast_theta_hat_list": ((*FORECAST, "theta_hat_list.json"),
                                "theta file 'theta_hat' must be a JSON object"),
    "forecast_omega_string": ((*FORECAST, "omega_string.json"), "convert string to float"),
    "forecast_order_string": ((*FORECAST, "order_string.json"), "invalid literal for int()"),
    "forecast_omega_null": ((*FORECAST, "omega_null.json"),
                            "theta file 'theta_hat': float() argument must be"),
    "forecast_omega_bool": ((*FORECAST, "omega_bool.json"),
                            "theta file 'theta_hat' 'omega' must be a number, got true"),
    "forecast_order_fraction": ((*FORECAST, "order_fraction.json"),
                                "theta file order 'p' must be an integer, got 1.7"),
    "forecast_omega_690": ((*FORECAST, "omega_690.json"),
                           "predictive mean 4.60461e+299 is above the largest forecast support"),
    "forecast_omega_20": ((*FORECAST, "omega_20.json"),
                          "predictive mean 4.85165e+08 is above the largest forecast support"),
    "forecast_nbin_omega_1e200": (("forecast", "--family", "nbin", "--data", "loglin.csv",
                                   "--theta-file", "nbin_omega_1e200.json"),
                                  "predictive mean 2e+200 is above the largest forecast support"),
    "loglik_nbin_count_1e306": (("loglik", *NBIN_ARGS, "--data", "huge.csv"),
                                "ln Gamma(r + y) overflows a double at r + y = 1e+306"),
    "loglik_loglin_count_1e306": (("loglik", *LOGLIN_ARGS, "--data", "huge.csv"),
                                  "ln Gamma(y + 1) overflows a double at y + 1 = 1e+306"),
    "loglik_nbin_r_1e306": (("loglik", *NBIN_ARGS[:-1], "1e306", "--data", "loglin.csv"),
                            "ln Gamma(r) overflows a double at r = 1e+306"),
    "fit_nbin_count_1e306": (("fit", "--family", "nbin", "--data", "huge61.csv"),
                             "ln Gamma(y + 1) overflows a double at y + 1 = 1e+306"),
    "fit_loglin_lnf_sum_overflow": (("fit", "--family", "loglin", "--data", "over62.csv"),
                                    "the sum of ln y! over the counts overflows a double"),
    "fit_nbin_lnf_sum_overflow": (("fit", "--family", "nbin", "--data", "over62.csv"),
                                  "the sum of ln y! over the counts overflows a double"),
    "forecast_parx_nan": (("forecast", "--family", "parx", "--data", "parx.csv",
                           "--theta-file", "parx_theta.json"), "covariates must be finite"),
    "check_negative_depth": (("check", "--family", "loglin", "--omega", "0", "--a", "0.6", "-0.3",
                              "--b", "0.2", "0.3", "--certificate-depth", "-3"),
                             "certificate depth must be >= 0, got -3"),
    "check_nbin_depth": (("check", *NBIN_ARGS, "--certificate-depth", "-3"),
                         "certificate depth applies to the log-linear family only, not NBIN"),
    "check_parx_depth": (("check", *PARX_ARGS, "--certificate-depth", "-3"),
                         "certificate depth applies to the log-linear family only, not PARX"),
    "check_loglin_sigma": (("check", *LOGLIN_ARGS, "--sigma", "-5"),
                           "family 'loglin' takes no covariate settings, got sigma"),
    "check_loglin_a_nan": (("check", "--family", "loglin", "--omega", "0", "--a", "nan",
                            "--b", "0.1"), "a1 must be finite, got nan"),
    "check_nbin_omega_inf": (("check", "--family", "nbin", "--omega", "inf", "--a", "0.1",
                              "--b", "0.1", "--r", "2"), "omega must be finite, got inf"),
    "loglik_parx_nan": (("loglik", *PARX_ARGS, "--data", "parx.csv"),
                        "parx.csv: line 3: covariates must be finite"),
    "fit_parx_nan": (("fit", "--family", "parx", "--data", "parx.csv", "--guard-override"),
                     "parx.csv: line 3: covariates must be finite"),
    "fit_starts_0": (("fit", "--family", "loglin", "--data", "loglin.csv", "--starts", "0"),
                     "starts must be >= 1, got 0"),
    "mc_negative_burn_in": (("mc-consistency", "--config", "mc_burn_in.json"),
                            "burn_in must be >= 0"),
    "mc_polish_string": (("mc-consistency", "--config", "mc_polish_string.json"),
                         "unknown 'fit' keys in config: ['polish']; allowed: ['starts', "
                         "'guard_override', 'max_evals']"),
    "mc_guard_override_string": (("mc-consistency", "--config", "mc_guard_string.json"),
                                 "config 'fit' 'guard_override' must be true or false, got \"no\""),
    "mc_starts_fraction": (("mc-consistency", "--config", "mc_starts_fraction.json"),
                           "config 'fit' 'starts' must be an integer, got 2.7"),
    "mc_starts_bool": (("mc-consistency", "--config", "mc_starts_bool.json"),
                       "config 'fit' 'starts' must be an integer, got true"),
    "mc_starts_0": (("mc-consistency", "--config", "mc_starts_0.json"),
                    "starts must be >= 1, got 0"),
    "mc_max_evals_0": (("mc-consistency", "--config", "mc_max_evals_0.json"),
                       "max_evals must be >= 1, got 0"),
    "mc_unknown_fit_key": (("mc-consistency", "--config", "mc_fit_key.json"),
                           "unknown 'fit' keys in config: ['max_eval']; allowed: "),
    "mc_replicates_fraction": (("mc-consistency", "--config", "mc_replicates_fraction.json"),
                               "config 'replicates' must be an integer, got 2.7"),
    "mc_replicates_bool": (("mc-consistency", "--config", "mc_replicates_bool.json"),
                           "config 'replicates' must be an integer, got true"),
    "mc_replicates_string": (("mc-consistency", "--config", "mc_replicates_string.json"),
                             "config 'replicates' must be an integer, got \"2\""),
    "mc_n_fraction": (("mc-consistency", "--config", "mc_n_fraction.json"),
                      "config 'n' must be an integer, got 60.9"),
    "mc_seed_fraction": (("mc-consistency", "--config", "mc_seed_fraction.json"),
                         "config 'seed' must be an integer, got 1.5"),
    "mc_burn_in_fraction": (("mc-consistency", "--config", "mc_burn_in_fraction.json"),
                            "config 'burn_in' must be an integer, got 10.9"),
    "mc_burn_in_bool": (("mc-consistency", "--config", "mc_burn_in_bool.json"),
                        "config 'burn_in' must be an integer, got true"),
    "mc_omega_bool": (("mc-consistency", "--config", "mc_omega_bool.json"),
                      "omega must be a number, got True"),
    "mc_xi_dim_bool": (("mc-consistency", "--config", "mc_xi_dim_bool.json"),
                       "config 'xi_dim' must be an integer, got true"),
    "mc_feature_string": (("mc-consistency", "--config", "mc_feature_string.json"),
                          "feature_kinds must be a sequence of kinds, got the string 'abs'"),
    "mc_family_list": (("mc-consistency", "--config", "mc_family_list.json"),
                       "config family must be one of ('loglin', 'nbin', 'parx')"),
    "mc_loglin_sigma": (("mc-consistency", "--config", "mc_loglin_sigma.json"),
                        "family 'loglin' takes no covariate settings, got sigma"),
}


class TestCleanExits:
    """Explosive or non-finite inputs end in one error line and exit 2, in process."""

    @staticmethod
    def assert_usage_error(capsys, argv, out_dir):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out_dir.exists() or not any(out_dir.iterdir())
        return err

    @pytest.mark.parametrize("args, message", [
        (("--family", "loglin", "--omega", "0", "--a", "1.5", "--b", "0.3"), "at step"),
        ((*PARX_ARGS, "--aleph", "nan"), "aleph entries must be finite"),
        ((*PARX_ARGS, "--xi-dim", "2", "--aleph", "0.1", "0", "nan", "0.2"), "aleph"),
        ((*PARX_ARGS, "--sigma", "inf"), "sigma must be > 0 and finite"),
    ])
    def test_simulate(self, tmp_path, capsys, args, message):
        out_dir = tmp_path / "out"
        argv = ["simulate", *args, "--n", "100", "--out-dir", str(out_dir)]
        assert message in self.assert_usage_error(capsys, argv, out_dir)

    def test_fit_with_no_finite_start(self, tmp_path, capsys):
        data = str(tmp_path / "nbin.csv")
        assert main(["simulate", "--family", "nbin", "--omega", "1", "--a", "0.3", "--b", "0.2",
                     "--r", "2", "--n", "2000", "--seed", "1", "--out", data]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "out"
        argv = ["fit", "--family", "nbin", "--data", data, "--out-dir", str(out_dir)]
        argv += ["--pin", "omega=1", "--pin", "a1=2", "--pin", "b1=2", "--pin", "r=1"]
        assert "non-finite objective" in self.assert_usage_error(capsys, argv, out_dir)

    @pytest.mark.parametrize("name", sorted(ERROR_TABLE))
    def test_library_input_errors(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(tmp_path)
        for fname, content in ERROR_FILES.items():
            text = content if isinstance(content, str) else json.dumps(content)
            (tmp_path / fname).write_text(text)
        args, message = ERROR_TABLE[name]
        if args[0] in ("simulate", "fit", "mc-consistency"):
            args = (*args, "--out-dir", "out")
        assert message in self.assert_usage_error(capsys, list(args), tmp_path / "out")


class TestFitAndLoglik:
    def test_loglik_with_an_overflowing_sum_is_quiet(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "over62.csv").write_text(ERROR_FILES["over62.csv"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["loglik", *LOGLIN_ARGS, "--data", "over62.csv"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert json.loads(out)["total"] == -math.inf

    def test_pinned_fit_matches_closed_form(self, tmp_path):
        data = simulate_csv(tmp_path, n=400, seed=11, theta=("0.7", "0", "0"))
        out = str(tmp_path / "fit.json")
        proc = run_cli(
            "fit", "--family", "loglin", "--data", data,
            "--pin", "a1=0", "--pin", "b1=0", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.load(open(out))
        ys = [int(line.split(",")[1]) for line in open(data).read().splitlines()[2:]]
        assert payload["theta_hat"]["omega"] == pytest.approx(math.log(np.mean(ys)), abs=1e-6)

    def test_fit_loglik_parity(self, tmp_path):
        data = simulate_csv(tmp_path, n=300, seed=9)
        out = str(tmp_path / "fit.json")
        proc = run_cli("fit", "--family", "loglin", "--data", data, "--starts", "4", "--out", out)
        assert proc.returncode == 0, proc.stderr
        payload = json.load(open(out))
        th = payload["theta_hat"]
        proc2 = run_cli(
            "loglik", "--family", "loglin", "--data", data,
            "--omega", repr(th["omega"]), "--a", repr(th["a1"]), "--b", repr(th["b1"]),
        )
        assert proc2.returncode == 0, proc2.stderr
        val = json.loads(proc2.stdout)
        assert val["normalized"] == payload["loglik"]["normalized"]

    def test_nonconvergence_exit_3_result_still_written(self, tmp_path):
        data = simulate_csv(tmp_path, n=300, seed=10)
        out = str(tmp_path / "fit.json")
        proc = run_cli(
            "fit", "--family", "loglin", "--data", data, "--out", out,
            "--max-evals", "4",
        )
        assert proc.returncode == 3
        assert os.path.exists(out)

    def test_malformed_csv_names_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,y\n0,3\n1,notacount\n")
        proc = run_cli("fit", "--family", "loglin", "--data", str(bad))
        assert proc.returncode == 2
        assert "line 3" in proc.stderr

    def test_missing_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,count\n0,3\n")
        proc = run_cli("loglik", "--family", "loglin", "--data", str(bad),
                       "--omega", "0", "--a", "0", "--b", "0")
        assert proc.returncode == 2
        assert "header" in proc.stderr


class TestForecast:
    def test_mean_one_for_degenerate_theta(self, tmp_path):
        data = simulate_csv(tmp_path, n=50, seed=3, theta=("0.0", "0", "0"))
        theta_file = tmp_path / "theta.json"
        theta_file.write_text(json.dumps({
            "family": "loglin", "order": {"p": 1, "q": 1},
            "theta_hat": {"omega": 0.0, "a1": 0.0, "b1": 0.0},
        }))
        proc = run_cli(
            "forecast", "--family", "loglin", "--data", data,
            "--theta-file", str(theta_file),
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["mean"] == 1.0
        assert payload["pmf_mass"] >= 1.0 - 1e-6

    def test_family_mismatch_exit_2(self, tmp_path):
        data = simulate_csv(tmp_path, n=50, seed=3)
        theta_file = tmp_path / "theta.json"
        theta_file.write_text(json.dumps({
            "family": "nbin", "order": {"p": 1, "q": 1},
            "theta_hat": {"omega": 1.0, "a1": 0.0, "b1": 0.0, "r": 2.0},
        }))
        proc = run_cli(
            "forecast", "--family", "loglin", "--data", data,
            "--theta-file", str(theta_file),
        )
        assert proc.returncode == 2
        assert "mismatch" in proc.stderr

    def test_matches_library(self, tmp_path):
        data = simulate_csv(tmp_path, n=80, seed=5)
        theta_file = tmp_path / "theta.json"
        theta_file.write_text(json.dumps({
            "family": "loglin", "order": {"p": 1, "q": 1},
            "theta_hat": {"omega": 0.1, "a1": 0.5, "b1": 0.3},
        }))
        proc = run_cli("forecast", "--family", "loglin", "--data", data,
                       "--theta-file", str(theta_file))
        payload = json.loads(proc.stdout)

        from odmlab.cli import series_from_csv
        from odmlab.fit import forecast_one_step
        from odmlab.model import default_initial_window
        from test_model import loglin_spec

        spec = loglin_spec()
        th = spec.params(0.1, [0.5], [0.3])
        series = series_from_csv(data, "loglin")
        dist = forecast_one_step(spec, th, default_initial_window(spec, series), series)
        assert payload["mean"] == dist.mean


class TestMcConsistency:
    def write_config(self, tmp_path, **overrides):
        cfg = {
            "family": "loglin",
            "theta_star": {"omega": 0.1, "a": [0.5], "b": [0.3]},
            "n": [40, 80],
            "replicates": 2,
            "seed": 123,
            "fit": {"starts": 2, "guard_override": True, "max_evals": 400},
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_outputs_and_determinism(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        p1 = run_cli("mc-consistency", "--config", cfg, "--out-dir", str(out1))
        p2 = run_cli("mc-consistency", "--config", cfg, "--out-dir", str(out2))
        assert p1.returncode == 0, p1.stderr
        assert p2.returncode == 0
        for name in ("consistency.json", "consistency.tsv"):
            b1 = open(out1 / name, "rb").read()
            b2 = open(out2 / name, "rb").read()
            assert b1 == b2, name
            assert _sha256(b1) == PINNED_MC[name], name
        report = json.load(open(out1 / "consistency.json"))
        assert {c["coord"] for c in report["cells"]} == {"omega", "a1", "b1"}
        tsv = open(out1 / "consistency.tsv").read().splitlines()
        assert tsv[0] == "n\tcoord\tbias\trmse\tmedae"
        assert os.path.exists(out1 / "runtimes.tsv")

    def test_unidentifiable_warning_path(self, tmp_path):
        cfg = self.write_config(
            tmp_path, theta_star={"omega": 0.1, "a": [0.5], "b": [0.0]}, n=[40]
        )
        proc = run_cli("mc-consistency", "--config", cfg, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 0
        assert "identifiab" in (proc.stderr + proc.stdout).lower()

    def test_malformed_thread_cap_is_usage_error(self, tmp_path):
        cfg = self.write_config(tmp_path, n=[40])
        proc = run_cli(
            "mc-consistency", "--config", cfg, "--out-dir", str(tmp_path / "o"),
            env={"ODMLAB_THREADS": "abc"},
        )
        assert proc.returncode == 2
        assert "ODMLAB_THREADS" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config",
        [
            {"fit": {"starts": "x"}},
            {"fit": [1]},
            {"box": [1]},
            {"theta_star": {"omega": 0.1, "a": 0.5, "b": [0.3]}},
            [1],
        ],
        ids=[
            "fit_starts_not_int", "fit_not_object", "box_not_object", "theta_a_not_list",
            "config_not_object",
        ],
    )
    def test_malformed_config_is_usage_error(self, tmp_path, config):
        if isinstance(config, dict):
            cfg = self.write_config(tmp_path, n=[40], **config)
        else:
            cfg = str(tmp_path / "config.json")
            (tmp_path / "config.json").write_text(json.dumps(config))
        proc = run_cli("mc-consistency", "--config", cfg, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of the bytes each command writes; the fits run on one simulated
# series, so these pin the search, the report layout and the JSON encoding
PINNED_CHECK_STDOUT = {
    "loglin_certificate": "2e37f660309bfd2e7c7b0b3466d825601c01ece193702997dfffffb849adc2ca",
    "nbin_lhs": "15a7868821331e2db4d5201fca6844f55d5bbb02ca82abe8dd741584eb824778",
}
PINNED_FIT_JSON = {
    "not_converged": "b56ec2869312d383f1326173ffb328430f217e6e93013740dfead646c8ab1a03",
    "pinned": "1b8a3fcb06564286986e514d5f2a82da0cc2f5cfe9ac9ac1c44e10a95ae134e7",
    "require_stable": "d5dec570ef990b1b999d221b0eca8d6a849f13a7bd0484dcec5f29c6840f383c",
    "starts4": "f282fb8090b1f7ca9cca3c70a7adad39accc0377c36f97ed783bc656952e07c5",
}
# forecast stdout at the FORECAST_CASES theta on a series simulated by SIM_ARGS
PINNED_FORECAST_STDOUT = {
    "loglin": "4dda8ceaa0b4775f8ef87ac25fdbe68a07336c453d30941fb49786b6ab2b55be",
    "nbin": "53fd388ca98369d9200e84c7b5fac9205cc31cc86feefd6d634adc4814a6dbe6",
    "parx": "40389dda2b78c4d936f37705b48511586400a09ba9ce72b184258daab8ef4465",
}
PINNED_MC = {
    "consistency.json": "9c8ed54f5f440aa02eca65c693142f3d365bc8241fd36e8b1a4a672d09325c67",
    "consistency.tsv": "1b5a79fe1943aafcd6fadb044ae3d8234dc9503c7790a3cb37110ebd356f3651",
}
CHECK_ARGS = {
    "loglin_certificate": ("--family", "loglin", "--omega", "0", "--a", "0.6", "-0.3",
                           "--b", "0.2", "0.3"),
    "nbin_lhs": ("--family", "nbin", "--omega", "1", "--a", "0.5", "--b", "0.3", "--r", "2"),
}
FIT_ARGS = {
    "starts4": ("--family", "loglin", "--starts", "4"),
    "pinned": ("--family", "loglin", "--starts", "4", "--pin", "a1=0.4"),
    "require_stable": ("--family", "loglin", "--p", "2", "--q", "2", "--starts", "6",
                       "--require-stable"),
    "not_converged": ("--family", "loglin", "--max-evals", "4"),
}

SIM_ARGS = {
    "loglin": ("--family", "loglin", "--omega", "0.1", "--a", "0.5", "--b", "0.3"),
    "nbin": ("--family", "nbin", "--omega", "1", "--a", "0.3", "--b", "0.2", "--r", "2"),
    "parx": PARX_ARGS,
}
FORECAST_CASES = {
    "loglin": {"omega": 0.15, "a1": 0.45, "b1": 0.3},
    "nbin": {"omega": 0.9, "a1": 0.35, "b1": 0.2, "r": 2.5},
    "parx": {"omega": 0.6, "a1": 0.25, "b1": 0.2, "gamma1": 0.2},
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(CHECK_ARGS))
    def test_check_stdout(self, name):
        proc = run_cli("check", *CHECK_ARGS[name])
        assert proc.returncode == 0, proc.stderr
        assert _sha256(proc.stdout.encode()) == PINNED_CHECK_STDOUT[name]

    @pytest.mark.parametrize("name", sorted(FIT_ARGS))
    def test_fit_json(self, tmp_path, name):
        data = simulate_csv(tmp_path, n=300, seed=9)
        out = tmp_path / "fit.json"
        proc = run_cli("fit", *FIT_ARGS[name], "--data", data, "--out", str(out))
        assert proc.returncode in (0, 3), proc.stderr
        assert _sha256(out.read_bytes()) == PINNED_FIT_JSON[name]

    @pytest.mark.parametrize("family", sorted(FORECAST_CASES))
    def test_forecast_stdout(self, tmp_path, family):
        data = str(tmp_path / "series.csv")
        proc = run_cli("simulate", *SIM_ARGS[family], "--n", "200", "--seed", "13", "--out", data)
        assert proc.returncode == 0, proc.stderr
        theta_file = tmp_path / "theta.json"
        theta_file.write_text(json.dumps({"family": family, "order": {"p": 1, "q": 1},
                                          "theta_hat": FORECAST_CASES[family]}))
        proc = run_cli("forecast", "--family", family, "--data", data,
                       "--theta-file", str(theta_file))
        assert proc.returncode == 0, proc.stderr
        assert _sha256(proc.stdout.encode()) == PINNED_FORECAST_STDOUT[family]
