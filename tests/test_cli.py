import re
from pathlib import Path

import numpy as np
import pytest

from kalgrad.cli import main, parse_config
from kalgrad.equivalence import SWEEP_HORIZON, check_discrete, sweep_cell, sweep_schedules
from kalgrad.errors import ConfigError

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

LINEAR2D_CFG = """\
# discrete comparison config
scenario = linear2d
family = gaussian
obs_cov = 0.1
T = 50
seed = 42
alpha = 0.1
eta0 = 0.5
"""

PENDULUM_CFG = """\
scenario = pendulum-ct
T = 1.0
dt = 1e-3
dt_list = 1e-2, 1e-3
alpha = 0.2
eta0 = 0.5
p0_scale = 0.5
"""


@pytest.fixture
def linear_cfg(tmp_path):
    path = tmp_path / "linear2d.cfg"
    path.write_text(LINEAR2D_CFG)
    return path


@pytest.fixture
def pendulum_cfg(tmp_path):
    path = tmp_path / "pendulum.cfg"
    path.write_text(PENDULUM_CFG)
    return path


class TestParseConfig:
    def test_round_trip_fields(self, linear_cfg):
        cfg = parse_config(linear_cfg)
        assert cfg.scenario == "linear2d"
        assert cfg.family == "gaussian"
        assert cfg.horizon == 50
        assert cfg.seed == 42

    def test_missing_scenario_names_field(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("family = gaussian\nT = 5\n")
        with pytest.raises(ConfigError, match="scenario"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("scenario = linear2d\nwarp_factor = 9\n")
        with pytest.raises(ConfigError, match="warp_factor"):
            parse_config(path)

    def test_alpha_overrides(self, tmp_path):
        path = tmp_path / "ovr.cfg"
        path.write_text("scenario = linear2d\nalpha = 0.1\nalpha[3] = 0.9\n")
        cfg = parse_config(path)
        assert cfg.alpha_overrides == {3: 0.9}

    # Inputs the config does not take: a class count (no categorical
    # family), a prior diagonal (p0_scale sets P0), the output directory
    # and negative control, which are the flags --out and --mutate, a
    # Fisher estimator (the natural gradient uses the exact Fisher) and a
    # tolerance (each certificate has its own).
    @pytest.mark.parametrize(
        "line",
        [
            "classes = 3", "p0 = 1, 1", "out = results", "mutate = halve_gamma",
            "fisher_mode = kfac", "tol = 1e-8",
        ],
        ids=["classes", "p0", "out", "mutate", "fisher_mode", "tol"],
    )
    def test_removed_keys_rejected(self, line, tmp_path):
        path = tmp_path / "old.cfg"
        path.write_text(LINEAR2D_CFG + line + "\n")
        with pytest.raises(ConfigError, match="unknown field: " + line.split()[0]):
            parse_config(path)

    # A repeated key is refused at the repeat, not resolved to its last value.
    @pytest.mark.parametrize(
        "lines, key",
        [
            ("alpha = 0.1\nalpha = 5\n", "alpha"),
            ("alpha[3] = 0.2\nalpha[3] = 0.7\n", "alpha[3]"),
            ("scenario = static\n", "scenario"),
        ],
        ids=["alpha", "alpha-override", "scenario"],
    )
    def test_repeated_key_rejected(self, lines, key, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("scenario = linear2d\n" + lines)
        message = f"twice.cfg:{len(path.read_text().splitlines())}: repeated field {key}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\n\nscenario = static  # trailing\n")
        assert parse_config(path).scenario == "static"


class TestCmdRun:
    def test_ekf_writes_trace_with_t_plus_one_rows(self, linear_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(linear_cfg), "--side", "filter", "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == 1 + 51  # header + T + 1 rows
        header = lines[0].split(",")
        assert header == ["t", "s_true_0", "s_true_1", "y_0", "y_1", "s_est_0", "s_est_1"]
        for line in lines[1:]:
            values = [float(v) for v in line.split(",")]
            assert len(values) == len(header)
            assert all(np.isfinite(values))
        assert (out / "summary.txt").read_text().startswith("mode = ekf\n")

    def test_natgrad_mode(self, linear_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(linear_cfg), "--side", "gradient", "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        assert (out / "summary.txt").read_text().startswith("mode = natgrad\n")

    def test_bucy_and_cngd_modes(self, pendulum_cfg, tmp_path):
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        argv = ["run", "--config", str(pendulum_cfg), "--side"]
        assert main(argv + ["filter", "--out", str(out_b)]) == 0
        assert main(argv + ["gradient", "--out", str(out_c)]) == 0
        header_b = (out_b / "trace.csv").read_text().splitlines()[0]
        header_c = (out_c / "trace.csv").read_text().splitlines()[0]
        assert "p_0_0" in header_b
        assert "eta" in header_c
        assert (out_b / "summary.txt").read_text().startswith("mode = bucy\n")
        assert (out_c / "summary.txt").read_text().startswith("mode = cngd\n")

    def test_missing_scenario_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("family = gaussian\nT = 5\n")
        assert main(["run", "--config", str(path), "--side", "filter"]) == 1
        assert "scenario" in capsys.readouterr().err

    def test_unknown_model_exits_1(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("scenario = lorenz\nfamily = gaussian\nobs_cov = 1\nT = 5\n")
        assert main(["run", "--config", str(path), "--side", "filter"]) == 1

    # A value the config parser accepts but the library rejects with a
    # ValueError: IntegratorConfig's dt.
    @pytest.mark.parametrize(
        "side, body",
        [("filter", "scenario = pendulum-ct\nT = 1.0\ndt = 2.0\n")],
        ids=["dt-past-horizon"],
    )
    def test_library_value_error_exits_1(self, side, body, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(body)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--side", side, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_singular_observation_covariance_exits_2(self, tmp_path, capsys):
        # A fading weight of 1e300 inflates the predicted covariance past
        # the float64 range at t = 2, a numerical failure of the transition.
        path = tmp_path / "sing.cfg"
        path.write_text(
            "scenario = static\nfamily = gaussian\nobs_cov = 0.25\nT = 20\n"
            "alpha = 1e300\n"
        )
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--side", "filter", "--out", str(out)])
        assert code == 2
        assert "failure" in capsys.readouterr().err

    # alpha = 1e300 overflows both continuous fields in the first step; the
    # failure is named once, with no numpy warning before it.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["bucy", "cngd"])
    def test_overflowing_continuous_run_exits_2_without_warnings(self, mode, tmp_path, capsys):
        body = (CONFIGS / "pendulum_ct.cfg").read_text()
        body = body.replace("alpha = 0.2", "alpha = 1e300").replace("dt = 1e-3", "dt = 0.1")
        path = tmp_path / "overflow.cfg"
        path.write_text(body)
        out = tmp_path / "out"
        assert main(["run", "--side", SIDES[mode], "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{mode} step from t = 0: derivative non-finite at t = 0.05" in err
        assert "Warning" not in err

    def test_saturated_bernoulli_mean_runs(self, tmp_path):
        # s0 = (-1000, -1000) rounds the predicted bernoulli mean to 0; the
        # canonical-link path of logistic-static keeps the filter defined.
        path = tmp_path / "saturated.cfg"
        path.write_text(
            "scenario = logistic-static\nfamily = bernoulli\nT = 20\n"
            "s0 = -1000, -1000\nalpha = 0.0\n"
        )
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--side", "filter", "--out", str(out)])
        assert code == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 22

    def test_seed_defaults_to_0(self, linear_cfg, tmp_path):
        unset, zero = tmp_path / "unset", tmp_path / "zero"
        _set_field(linear_cfg, "seed = 0")
        argv = ["run", "--config", str(linear_cfg), "--side", "filter", "--out"]
        assert main(argv + [str(zero)]) == 0
        linear_cfg.write_text(linear_cfg.read_text().replace("seed = 0\n", ""))
        assert main(argv + [str(unset)]) == 0
        for name in ("trace.csv", "summary.txt"):
            assert (unset / name).read_bytes() == (zero / name).read_bytes()
        assert "seed = 0\n" in (unset / "summary.txt").read_text()

    def test_byte_identical_reruns(self, linear_cfg, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["run", "--config", str(linear_cfg), "--side", "filter", "--out", str(out1)])
        main(["run", "--config", str(linear_cfg), "--side", "filter", "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


class TestCmdCompare:
    def test_discrete_pass_exit_0(self, linear_cfg, tmp_path):
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--config", str(linear_cfg), "--out", str(out)]
        )
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "pass = True" in summary
        lines = (out / "deviations.csv").read_text().splitlines()
        assert lines[0] == (
            "t,s_true_0,s_true_1,y_0,y_1,s_ekf_0,s_ekf_1,s_ngd_0,s_ngd_1,"
            "state_dev,metric_dev"
        )
        assert len(lines) == 1 + 51
        for line in lines[1:]:
            assert all(np.isfinite(float(v)) for v in line.split(","))

    def test_mutation_exit_3(self, linear_cfg, tmp_path):
        out = tmp_path / "cmp"
        code = main(
            [
                "compare", "--config", str(linear_cfg),
                "--out", str(out), "--mutate", "drop_fading_factor",
            ]
        )
        assert code == 3
        assert "pass = False" in (out / "summary.txt").read_text()

    def test_unknown_mutation_exit_1(self, linear_cfg, tmp_path):
        code = main(
            [
                "compare", "--config", str(linear_cfg),
                "--out", str(tmp_path / "x"), "--mutate", "reverse_time",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "name", ["halve_gamma", "nonsense"], ids=["flag-halve_gamma", "flag-nonsense"]
    )
    def test_continuous_mutation_exit_1(self, pendulum_cfg, tmp_path, capsys, name):
        # The negative controls exist on the discrete side only; a mutation
        # that the continuous comparison would ignore must not pass.
        out = tmp_path / "cmp"
        argv = ["compare", "--config", str(pendulum_cfg)]
        assert main(argv + ["--mutate", name, "--out", str(out)]) == 1
        assert "discrete-only" in capsys.readouterr().err
        assert not (out / "summary.txt").exists()

    def test_transport_control_on_static_model_exits_1(self, tmp_path, capsys):
        # logistic-static already has F = I, so skip_metric_transport could
        # not fail on it and is refused.
        out = tmp_path / "cmp"
        argv = ["compare", "--config", str(CONFIGS / "logistic_static.cfg")]
        assert main(argv + ["--mutate", "skip_metric_transport", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'logistic-static'" in err
        assert not out.exists()

    def test_ramp_matches_the_sweep_cell(self, tmp_path):
        # A config that spells out one criterion-1 cell reproduces the
        # library's run of that cell bit for bit, ramp schedule included.
        scenario, s0, p0 = sweep_cell("tanhspring", SWEEP_HORIZON, 0)
        path = tmp_path / "cell.cfg"
        path.write_text(
            f"scenario = tanhspring\nfamily = gaussian\nobs_cov = 0.25\nT = {SWEEP_HORIZON}\n"
            f"seed = 0\ns0 = {float(s0[0])!r}, {float(s0[1])!r}\nalpha = ramp(0, 0.5)\n"
        )
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        report = check_discrete(scenario, s0, p0, sweep_schedules(SWEEP_HORIZON)["ramp(0,0.5)"])
        columns = {
            name: np.array(values, dtype=float)
            for name, values in _csv_columns(out / "deviations.csv").items()
        }
        for i in range(2):
            np.testing.assert_array_equal(columns[f"s_ekf_{i}"], report.filter_states[:, i])
            np.testing.assert_array_equal(columns[f"s_ngd_{i}"], report.grad_states[:, i])
        np.testing.assert_array_equal(columns["state_dev"], report.state_devs)
        np.testing.assert_array_equal(columns["metric_dev"], report.metric_devs)

    def test_continuous_per_dt_rows(self, pendulum_cfg, tmp_path):
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--config", str(pendulum_cfg), "--out", str(out)]
        )
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert summary.count("dt = ") == 2  # one row per step size
        assert "order_state" in summary
        lines = (out / "deviations.csv").read_text().splitlines()
        assert lines[0] == "dt,t,state_dev,metric_dev"

    def test_alpha_override_flows_through_both_sides(self, tmp_path):
        # Per-step overrides feed the filter and the mapped gradient
        # schedules consistently, so the comparison still passes.
        path = tmp_path / "ovr.cfg"
        path.write_text(
            "scenario = linear2d\nfamily = gaussian\nobs_cov = 0.1\n"
            "T = 20\nseed = 5\nalpha = 0.1\nalpha[7] = 0.9\n"
        )
        code = main(
            ["compare", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 0


# One command per entry point: a run of the filter side and a comparison.
COMMANDS = {
    "run": ["run", "--side", "filter"],
    "compare": ["compare"],
}

# Every (command, mode) pair, discrete ones first, by the mode that
# summary.txt names; the config's model and the run's side select it.
ALL_MODES = [
    ("run", "ekf"), ("run", "natgrad"), ("compare", "discrete"),
    ("run", "bucy"), ("run", "cngd"), ("compare", "continuous"),
]
DISCRETE_MODES = ("ekf", "natgrad", "discrete")
SIDES = {"ekf": "filter", "natgrad": "gradient", "bucy": "filter", "cngd": "gradient"}


def _argv(command, mode):
    """The command line that runs one (command, mode) pair of ALL_MODES."""
    return [command] + (["--side", SIDES[mode]] if command == "run" else [])


def _set_field(path, line):
    """Set one key = value line in a config file, replacing the key's line."""
    key = line.split("=")[0].strip()
    text = re.sub(rf"^{re.escape(key)} = .*\n", "", path.read_text(), flags=re.M)
    path.write_text(text + line + "\n")


class TestRejectedInputs:
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_rejected_run_leaves_no_output_directory(self, command, linear_cfg, tmp_path, capsys):
        # linear2d is a discrete model, so it refuses the continuous step dt.
        linear_cfg.write_text(linear_cfg.read_text() + "dt = 0.1\n")
        out = tmp_path / "new" / "out"
        argv = COMMANDS[command] + ["--config", str(linear_cfg), "--out", str(out)]
        assert main(argv) == 1
        assert "invalid field dt: continuous-only" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "line", ["family = gaussian", "obs_cov = 100"], ids=["family", "obs_cov"]
    )
    def test_continuous_rejects_observation_fields(
        self, command, line, pendulum_cfg, tmp_path, capsys
    ):
        # A continuous model fixes its own observation path and covariance,
        # so a value given here could only be ignored.
        pendulum_cfg.write_text(pendulum_cfg.read_text() + line + "\n")
        out = tmp_path / "out"
        argv = COMMANDS[command] + ["--config", str(pendulum_cfg), "--out", str(out)]
        assert main(argv) == 1
        assert f"invalid field {line.split()[0]}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_family_dimension_mismatch_names_field(self, command, tmp_path, capsys):
        # linear2d observes two dimensions; a bernoulli label has one.
        path = tmp_path / "bern.cfg"
        path.write_text(LINEAR2D_CFG.replace("family = gaussian", "family = bernoulli"))
        out = tmp_path / "out"
        argv = COMMANDS[command] + ["--config", str(path), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid field family:")
        assert "dimension 1" in err and "dimension 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "alpha, message",
        [
            ("alpha[3] = 5.0", "discrete-only"),
            ("alpha = -0.5", "weights must be >= 0"),
            ("alpha = ramp(0.2, -0.1)", "weights must be >= 0"),
            ("alpha = ramp(-0.1, 0.2)", "weights must be >= 0"),
        ],
        ids=["override", "negative-constant", "ramp-ending-below-0", "ramp-starting-below-0"],
    )
    def test_continuous_alpha_checked_like_discrete(
        self, command, alpha, message, pendulum_cfg, tmp_path, capsys
    ):
        _set_field(pendulum_cfg, alpha)
        out = tmp_path / "out"
        argv = COMMANDS[command] + ["--config", str(pendulum_cfg), "--out", str(out)]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    # A nan weight is not >= 0.  Unchecked, it reached the filter or the
    # flow and failed there, as a numerical error (exit 2).
    @pytest.mark.parametrize("command, mode", ALL_MODES)
    def test_nan_alpha_exits_1(self, command, mode, linear_cfg, pendulum_cfg, tmp_path, capsys):
        path = linear_cfg if mode in DISCRETE_MODES else pendulum_cfg
        path.write_text(re.sub(r"^alpha = .*$", "alpha = nan", path.read_text(), flags=re.M))
        out = tmp_path / "out"
        argv = _argv(command, mode) + ["--config", str(path), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: invalid field alpha: weights must be >= 0")
        assert not out.exists()

    # A non-finite prior is a config error named by its field, caught
    # before it can fail inside the filter or the flow as a numerical one.
    @pytest.mark.parametrize("command, mode", ALL_MODES)
    @pytest.mark.parametrize(
        "line, message",
        [
            ("p0_scale = nan", "invalid field p0_scale: must be positive and finite"),
            ("p0_scale = inf", "invalid field p0_scale: must be positive and finite"),
            ("s0 = nan, 0", "invalid field s0: entries must be finite"),
        ],
        ids=["p0_scale-nan", "p0_scale-inf", "s0-nan"],
    )
    def test_non_finite_prior_exits_1(
        self, command, mode, line, message, linear_cfg, pendulum_cfg, tmp_path, capsys
    ):
        path = linear_cfg if mode in DISCRETE_MODES else pendulum_cfg
        _set_field(path, line)
        out = tmp_path / "out"
        argv = _argv(command, mode) + ["--config", str(path), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    # A discrete T counts steps and a seed keys the Philox stream: a value
    # that is neither is a config error named by its field, never a
    # truncated run or a message from numpy.
    @pytest.mark.parametrize("command, mode", ALL_MODES[:3])
    @pytest.mark.parametrize(
        "line", ["T = 10.9", "T = nan", "seed = -1"], ids=["T-fraction", "T-nan", "seed-negative"]
    )
    def test_whole_number_fields_exit_1(self, command, mode, line, linear_cfg, tmp_path, capsys):
        _set_field(linear_cfg, line)
        out = tmp_path / "out"
        argv = _argv(command, mode) + ["--config", str(linear_cfg), "--out", str(out)]
        assert main(argv) == 1
        key = line.split()[0]
        assert capsys.readouterr().err.startswith(f"error: invalid field {key}: ")
        assert not out.exists()

    # A key that only the other time domain reads is refused: the model
    # could only ignore it.  seed = 0 is refused like any other seed.
    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "domain, line",
        [
            ("discrete", "dt = 0.1"),
            ("discrete", "dt_list = 0.5"),
            ("continuous", "seed = 9"),
            ("continuous", "seed = 0"),
        ],
        ids=["discrete-dt", "discrete-dt_list", "continuous-seed", "continuous-seed-0"],
    )
    def test_key_of_the_other_domain_exits_1(
        self, command, domain, line, linear_cfg, pendulum_cfg, tmp_path, capsys
    ):
        path = linear_cfg if domain == "discrete" else pendulum_cfg
        path.write_text(path.read_text() + line + "\n")
        out = tmp_path / "out"
        argv = COMMANDS[command] + ["--config", str(path), "--out", str(out)]
        assert main(argv) == 1
        key = line.split()[0]
        assert capsys.readouterr().err.startswith(f"error: invalid field {key}: ")
        assert not out.exists()

    # A continuous T is a time span: an infinite one has no grid, and is a
    # config error named by its field, not a traceback.
    @pytest.mark.parametrize("command, mode", ALL_MODES[3:])
    def test_infinite_continuous_horizon_exits_1(
        self, command, mode, pendulum_cfg, tmp_path, capsys
    ):
        _set_field(pendulum_cfg, "T = inf")
        _set_field(pendulum_cfg, "dt = 0.1")
        out = tmp_path / "out"
        argv = _argv(command, mode) + ["--config", str(pendulum_cfg), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: invalid field T: ")
        assert not out.exists()

    # An alpha value that is not a number is named by its field, as every
    # other field is, not reported as a bare float conversion error.
    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("alpha[3] = x", "invalid field alpha[3]: could not convert string to float: 'x'"),
            ("alpha = 0.1, x", "invalid field alpha: could not convert string to float: ' x'"),
            ("alpha = ramp(0, x)", "invalid field alpha: could not convert string to float: 'x'"),
        ],
        ids=["override", "list", "ramp"],
    )
    def test_unparsable_alpha_names_the_field(
        self, command, line, message, linear_cfg, tmp_path, capsys
    ):
        _set_field(linear_cfg, line)
        out = tmp_path / "out"
        argv = COMMANDS[command] + ["--config", str(linear_cfg), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # A step that does not fit the time span is named by its field, and
    # within dt_list by its entry, before the integrator sees it.
    @pytest.mark.parametrize(
        "argv, line, message",
        [
            (["run", "--side", "filter"], "dt = 2.0", "invalid field dt: need 0 < dt <= T = 1, got 2"),
            (
                ["compare"], "dt_list = 0.1, 2.0",
                "invalid field dt_list: need 0 < dt <= T = 1, got 2 (entry 2 of 2)",
            ),
        ],
        ids=["run-dt", "compare-dt_list"],
    )
    def test_step_beyond_the_horizon_names_the_field(
        self, argv, line, message, pendulum_cfg, tmp_path, capsys
    ):
        _set_field(pendulum_cfg, line)
        out = tmp_path / "out"
        assert main(argv + ["--config", str(pendulum_cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestUsageErrors:
    # A usage error is a configuration error (exit 1) that names the flag;
    # exit code 2 is a numerical failure.
    def test_unknown_side_exits_1(self, linear_cfg, capsys):
        assert main(["run", "--config", str(linear_cfg), "--side", "ekf"]) == 1
        err = capsys.readouterr().err
        assert "error: kalgrad run: argument --side: invalid choice: 'ekf'" in err

    def test_missing_config_exits_1(self, capsys):
        assert main(["compare"]) == 1
        assert "required: --config" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--side {filter,gradient}" in capsys.readouterr().out


def _csv_columns(path):
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


class TestRunMatchesCompare:
    # run --side filter/gradient and compare share their setup and matched
    # metric, so the estimates agree to the last printed digit.
    @pytest.mark.parametrize("name", ["linear2d", "logistic_static", "tanhspring_ramp"])
    def test_run_estimates_equal_compare_columns(self, name, tmp_path):
        config = str(CONFIGS / f"{name}.cfg")
        cmp_out = tmp_path / "compare"
        assert main(["compare", "--config", config, "--out", str(cmp_out)]) == 0
        compared = _csv_columns(cmp_out / "deviations.csv")
        for side, prefix in (("filter", "s_ekf_"), ("gradient", "s_ngd_")):
            out = tmp_path / side
            assert main(["run", "--config", config, "--side", side, "--out", str(out)]) == 0
            ran = _csv_columns(out / "trace.csv")
            for i in range(2):
                assert ran[f"s_est_{i}"] == compared[f"{prefix}{i}"]


class TestCmdList:
    def test_lists_builtins_sorted(self, capsys):
        assert main(["list"]) == 0
        names = capsys.readouterr().out.splitlines()
        assert "static" in names
        assert "pendulum-ct" in names
        assert names == sorted(names)
