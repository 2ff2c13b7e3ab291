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
        assert cfg["scenario"] == "linear2d"
        assert cfg["family"] == "gaussian"
        assert cfg["T"] == 50
        assert cfg["seed"] == 42

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
        assert cfg["alpha[t]"] == {3: 0.9}

    # Inputs the config does not take: a class count (no categorical
    # family), a prior diagonal (p0_scale sets P0), the output directory
    # and negative control, which are the flags --out and --mutate, a
    # Fisher estimator (the natural gradient uses the exact Fisher), a
    # tolerance (each certificate has its own) and one continuous step
    # (the comparison steps at each entry of dt_list).
    @pytest.mark.parametrize(
        "line",
        [
            "classes = 3", "p0 = 1, 1", "out = results", "mutate = halve_gamma",
            "fisher_mode = kfac", "tol = 1e-8", "dt = 1e-3",
        ],
        ids=["classes", "p0", "out", "mutate", "fisher_mode", "tol", "dt"],
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
        assert parse_config(path)["scenario"] == "static"


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

    def test_missing_scenario_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("family = gaussian\nT = 5\n")
        assert main(["compare", "--config", str(path)]) == 1
        assert "scenario" in capsys.readouterr().err

    def test_unknown_model_exits_1(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("scenario = lorenz\nfamily = gaussian\nobs_cov = 1\nT = 5\n")
        assert main(["compare", "--config", str(path)]) == 1

    # alpha = 1e300 overflows both continuous fields in the first step;
    # the failure is named once, by bucy (cngd alone: test_bucy.py), with
    # no numpy warning before it, and nothing is written.
    @pytest.mark.filterwarnings("error")
    def test_overflowing_continuous_pair_exits_2_without_warnings(self, tmp_path, capsys):
        body = (CONFIGS / "pendulum_ct.cfg").read_text()
        body = re.sub(r"^dt_list = .*$", "dt_list = 0.1", body, flags=re.M)
        path = tmp_path / "overflow.cfg"
        path.write_text(body.replace("alpha = 0.2", "alpha = 1e300"))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bucy step from t = 0: derivative non-finite at t = 0.05" in err
        assert "Warning" not in err
        assert not out.exists()

    def test_saturated_bernoulli_mean_runs(self, tmp_path):
        # s0 = (-1000, -1000) rounds the predicted bernoulli mean to 0; the
        # canonical-link path of logistic-static keeps both sides defined.
        path = tmp_path / "saturated.cfg"
        path.write_text(
            "scenario = logistic-static\nfamily = bernoulli\nT = 20\n"
            "s0 = -1000, -1000\nalpha = 0.0\n"
        )
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        assert len((out / "deviations.csv").read_text().splitlines()) == 22

    def test_seed_defaults_to_0(self, linear_cfg, tmp_path):
        unset, zero = tmp_path / "unset", tmp_path / "zero"
        _set_field(linear_cfg, "seed = 0")
        argv = ["compare", "--config", str(linear_cfg), "--out"]
        assert main(argv + [str(zero)]) == 0
        linear_cfg.write_text(linear_cfg.read_text().replace("seed = 0\n", ""))
        assert main(argv + [str(unset)]) == 0
        for name in ("deviations.csv", "summary.txt"):
            assert (unset / name).read_bytes() == (zero / name).read_bytes()

    def test_byte_identical_reruns(self, linear_cfg, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["compare", "--config", str(linear_cfg), "--out", str(out)]) == 0
        for name in ("deviations.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# static under gaussian(0.25 I) with one fading weight of 1e300 at t = 10:
# both sides complete steps 1..9, and the gradient side's blend at t = 10
# is singular.
ABORTED_CFG = """\
scenario = static
family = gaussian
obs_cov = 0.25
T = 20
alpha = 0.1
alpha[10] = 1e300
"""
ABORT_MESSAGE = "gradient side: blended metric factor is singular at t = 10"


class TestAbortedCompare:
    """A discrete pair that aborts at step t writes the rows 0..t-1 that
    both sides completed, a failing summary that names the abort, and
    exits 2 with the abort on stderr."""

    def test_writes_the_rows_both_sides_completed(self, tmp_path, capsys):
        path = tmp_path / "aborted.cfg"
        path.write_text(ABORTED_CFG)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"numerical failure: {ABORT_MESSAGE}\n"
        columns = _csv_columns(out / "deviations.csv")
        assert list(columns) == [
            "t", "s_true_0", "s_true_1", "y_0", "s_ekf_0", "s_ekf_1", "s_ngd_0", "s_ngd_1",
            "state_dev", "metric_dev",
        ]
        assert columns["t"] == [str(t) for t in range(10)]
        for values in columns.values():
            assert all(np.isfinite(float(v)) for v in values)
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[0] == "mode = discrete"
        assert summary[-2:] == ["pass = False", f"abort = {ABORT_MESSAGE}"]

    # The rows written are the rows of a run that stops before the abort:
    # the same estimates and deviations as the full pair over T = 9.
    def test_rows_equal_the_pair_run_to_the_step_before(self, tmp_path, capsys):
        path, full = tmp_path / "aborted.cfg", tmp_path / "short.cfg"
        path.write_text(ABORTED_CFG)
        full.write_text(ABORTED_CFG.replace("T = 20", "T = 9").replace("alpha[10] = 1e300\n", ""))
        out, ref = tmp_path / "out", tmp_path / "ref"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 2
        assert main(["compare", "--config", str(full), "--out", str(ref)]) == 0
        assert (out / "deviations.csv").read_bytes() == (ref / "deviations.csv").read_bytes()

    # A prior is refused only by the config check, before any output: every
    # positive finite p0_scale factors, the smallest subnormal 5e-324 too
    # (symmetrize keeps a symmetric P_0 as it is), so the pair runs to the
    # same abort and writes the rows before it.
    def test_refused_prior_leaves_no_output_directory(self, tmp_path, capsys):
        path = tmp_path / "prior.cfg"
        path.write_text(ABORTED_CFG + "p0_scale = 0\n")
        out = tmp_path / "new" / "out"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: invalid field p0_scale: must be positive and finite\n"
        )
        assert not (tmp_path / "new").exists()
        path.write_text(ABORTED_CFG + "p0_scale = 5e-324\n")
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"numerical failure: {ABORT_MESSAGE}\n"
        assert _csv_columns(out / "deviations.csv")["t"] == [str(t) for t in range(10)]

    # Every positive p0_scale has both starts, so the pair runs, with no
    # numpy warning and no nan deviation.  A subnormal prior completes and
    # misses the gate (measured 1.4e-3 at 1e-320); at 5e-324 the filter's
    # step halves P_t to 0 from t = 1, with the states still equal, and
    # those rows read inf; 1e-300 certifies; at 1e300 the filter's P_t
    # rounds to 0 from t = 4, and those rows read inf; at 1e308 the filter
    # overflows at t = 1 and names its side.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scale, code, dev",
        [("5e-324", 3, np.inf), ("1e-320", 3, 1e-2), ("1e-300", 0, 1e-14), ("1e300", 3, np.inf),
         ("1e308", 2, 0.0)],
    )
    def test_extreme_prior_scales_run_the_pair(self, tmp_path, capsys, scale, code, dev):
        path = tmp_path / "scale.cfg"
        path.write_text(ABORTED_CFG.replace("alpha[10] = 1e300\n", "") + f"p0_scale = {scale}\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == code
        columns = _csv_columns(out / "deviations.csv")
        devs = np.array(columns["metric_dev"], dtype=float)
        assert not np.isnan(devs).any()
        assert devs.max() <= dev
        if scale == "5e-324":
            assert (devs[1:] == np.inf).all()
            assert not np.array(columns["state_dev"], dtype=float).any()
        if scale == "1e300":
            assert (devs[4:] == np.inf).all()
        if code == 2:
            assert capsys.readouterr().err == (
                "numerical failure: filter side: observation update non-finite at t = 1\n"
            )

    def test_overflowing_fading_weight_at_the_first_step_writes_the_prior_row(self, tmp_path, capsys):
        # A fading weight of 1e300 at every step makes the gradient side's
        # blend singular at t = 1: only the prior row is written.
        path = tmp_path / "sing.cfg"
        path.write_text(
            "scenario = static\nfamily = gaussian\nobs_cov = 0.25\nT = 20\nalpha = 1e300\n"
        )
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: gradient side: blended metric factor is singular at t = 1\n"
        )
        assert _csv_columns(out / "deviations.csv")["t"] == ["0"]
        assert "pass = False" in (out / "summary.txt").read_text().splitlines()


# The one command that runs a pair.
COMMANDS = {"compare": ["compare"]}

# Every (command, mode) pair by the mode that summary.txt names; the
# config's model selects it.
ALL_MODES = [("compare", "discrete"), ("compare", "continuous")]


def _set_field(path, line):
    """Set one key = value line in a config file, replacing the key's line."""
    key = line.split("=")[0].strip()
    text = re.sub(rf"^{re.escape(key)} = .*\n", "", path.read_text(), flags=re.M)
    path.write_text(text + line + "\n")


class TestRejectedInputs:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_rejected_run_leaves_no_output_directory(self, command, linear_cfg, tmp_path, capsys):
        # linear2d is a discrete model, so it refuses the continuous steps
        # dt_list.
        linear_cfg.write_text(linear_cfg.read_text() + "dt_list = 0.1\n")
        out = tmp_path / "new" / "out"
        argv = COMMANDS[command] + ["--config", str(linear_cfg), "--out", str(out)]
        assert main(argv) == 1
        assert "invalid field dt_list: continuous-only" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", list(COMMANDS))
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

    @pytest.mark.parametrize("command", list(COMMANDS))
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

    @pytest.mark.parametrize("command", list(COMMANDS))
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
        path = linear_cfg if mode == "discrete" else pendulum_cfg
        path.write_text(re.sub(r"^alpha = .*$", "alpha = nan", path.read_text(), flags=re.M))
        out = tmp_path / "out"
        argv = COMMANDS[command] + ["--config", str(path), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: invalid field alpha: weights must be >= 0")
        assert not out.exists()

    # A non-finite prior, or an eta0 for which J_0 = eta_0 P_0^-1 is
    # undefined, is a config error named by its field, caught before it
    # can fail inside the filter or the flow as a numerical one.
    @pytest.mark.parametrize("command, mode", ALL_MODES)
    @pytest.mark.parametrize(
        "line, message",
        [
            ("p0_scale = nan", "invalid field p0_scale: must be positive and finite"),
            ("p0_scale = inf", "invalid field p0_scale: must be positive and finite"),
            ("s0 = nan, 0", "invalid field s0: entries must be finite"),
            ("eta0 = inf", "invalid field eta0: must be positive and finite, got inf"),
            ("eta0 = nan", "invalid field eta0: must be positive and finite, got nan"),
            ("eta0 = 0", "invalid field eta0: must be positive and finite, got 0"),
            ("eta0 = -1", "invalid field eta0: must be positive and finite, got -1"),
        ],
        ids=["p0_scale-nan", "p0_scale-inf", "s0-nan", "eta0-inf", "eta0-nan", "eta0-0", "eta0--1"],
    )
    def test_non_finite_prior_exits_1(
        self, command, mode, line, message, linear_cfg, pendulum_cfg, tmp_path, capsys
    ):
        path = linear_cfg if mode == "discrete" else pendulum_cfg
        _set_field(path, line)
        out = tmp_path / "out"
        argv = COMMANDS[command] + ["--config", str(path), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    # A discrete T counts steps and a seed keys the Philox stream: a value
    # that is neither is a config error named by its field, never a
    # truncated run or a message from numpy.
    @pytest.mark.parametrize("command, mode", ALL_MODES[:1])
    @pytest.mark.parametrize(
        "line", ["T = 10.9", "T = nan", "seed = -1"], ids=["T-fraction", "T-nan", "seed-negative"]
    )
    def test_whole_number_fields_exit_1(self, command, mode, line, linear_cfg, tmp_path, capsys):
        _set_field(linear_cfg, line)
        out = tmp_path / "out"
        argv = COMMANDS[command] + ["--config", str(linear_cfg), "--out", str(out)]
        assert main(argv) == 1
        key = line.split()[0]
        assert capsys.readouterr().err.startswith(f"error: invalid field {key}: ")
        assert not out.exists()

    # A key that only the other time domain reads is refused: the model
    # could only ignore it.  seed = 0 is refused like any other seed.
    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize(
        "domain, line",
        [
            ("discrete", "dt_list = 0.5"),
            ("continuous", "seed = 9"),
            ("continuous", "seed = 0"),
        ],
        ids=["discrete-dt_list", "continuous-seed", "continuous-seed-0"],
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
    @pytest.mark.parametrize("command, mode", ALL_MODES[1:])
    def test_infinite_continuous_horizon_exits_1(
        self, command, mode, pendulum_cfg, tmp_path, capsys
    ):
        _set_field(pendulum_cfg, "T = inf")
        out = tmp_path / "out"
        argv = COMMANDS[command] + ["--config", str(pendulum_cfg), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: invalid field T: ")
        assert not out.exists()

    # An alpha value that is not a number is named by its field, as every
    # other field is, not reported as a bare float conversion error.
    @pytest.mark.parametrize("command", list(COMMANDS))
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
    # within dt_list by its entry, before the integrator sees it: one past
    # T, or one whose grid would stop short of T (the run would end early,
    # and the study would compare grids that end at different times), or
    # a repeated dt_list entry (the study's order is a slope between two
    # step sizes).
    @pytest.mark.parametrize(
        "argv, line, message",
        [
            (
                ["compare"], "dt_list = 0.1, 2.0",
                "invalid field dt_list: need 0 < dt <= T = 1, got 2 (entry 2 of 2)",
            ),
            (
                ["compare"], "dt_list = 0.1, 0.3",
                "invalid field dt_list: need a dt that divides T = 1, got 0.3 (entry 2 of 2)",
            ),
            (
                ["compare"], "dt_list = 0.01, 0.01",
                "invalid field dt_list: repeated step size dt = 0.01 (entry 2 of 2)",
            ),
        ],
        ids=[
            "compare-dt_list", "compare-dt_list-short-grid", "compare-dt_list-repeated",
        ],
    )
    def test_step_beyond_the_horizon_names_the_field(
        self, argv, line, message, pendulum_cfg, tmp_path, capsys
    ):
        _set_field(pendulum_cfg, line)
        out = tmp_path / "out"
        assert main(argv + ["--config", str(pendulum_cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # Only the discrete map needs eta_0 <= 1; the continuous flow takes
    # any finite eta_0 > 0.
    def test_eta0_above_1_is_discrete_only_refused(self, linear_cfg, pendulum_cfg, tmp_path, capsys):
        _set_field(linear_cfg, "eta0 = 1.5")
        out = tmp_path / "discrete"
        assert main(["compare", "--config", str(linear_cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: invalid field eta0: a discrete model needs eta_0 in (0, 1], got 1.5\n"
        )
        assert not out.exists()
        _set_field(pendulum_cfg, "eta0 = 1.5")
        out = tmp_path / "continuous"
        assert main(["compare", "--config", str(pendulum_cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""


class TestUsageErrors:
    # A usage error is a configuration error (exit 1) that names the flag;
    # exit code 2 is a numerical failure.
    def test_missing_config_exits_1(self, capsys):
        assert main(["compare"]) == 1
        assert "required: --config" in capsys.readouterr().err

    # --out names a directory; a regular file there is a usage error.
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_out_naming_a_file_exits_1(self, command, linear_cfg, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        argv = COMMANDS[command] + ["--config", str(linear_cfg), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "keep\n"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--help"])
        assert exc.value.code == 0
        assert "--config CONFIG" in capsys.readouterr().out


def _csv_columns(path):
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


class TestCmdList:
    def test_lists_builtins_sorted(self, capsys):
        assert main(["list"]) == 0
        names = capsys.readouterr().out.splitlines()
        assert "static" in names
        assert "pendulum-ct" in names
        assert names == sorted(names)
