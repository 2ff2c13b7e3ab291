"""Batch front-end: parse flat key=value configs, run filters or
equivalence comparisons, and emit CSV traces plus plain-text summaries.

The config's model decides the time domain and so the pair: fading EKF and
natural gradient, or Kalman-Bucy and natural-gradient flow.  ``run --side
filter|gradient`` runs one side of the pair, ``compare`` both.

Exit codes: 0 success (or comparison pass), 1 configuration or usage
error, 2 numerical failure, 3 comparison tolerance failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import bucy as bucy_mod
from . import ekf as ekf_mod
from . import equivalence as eq_mod
from . import expfam
from . import model as model_mod
from . import natgrad as ngd_mod
from .errors import ConfigError, NumericalError, UnknownModelError
from .numerics import _finite, check_eta0

_RAMP_RE = re.compile(r"^ramp\(\s*([^,]+)\s*,\s*([^)]+)\s*\)$")


def _parse_floats(value: str) -> list[float]:
    return [float(part) for part in value.split(",") if part.strip()]


def _parse_seed(value: str) -> int:
    """A scenario seed: a whole number that keys the Philox stream."""
    seed = int(value)
    if not 0 <= seed < 2**128:
        raise ValueError(f"must lie in 0 .. 2**128 - 1, got {seed}")
    return seed


def _parse_eta0(value: str) -> float:
    """The shared initial rate eta_0, under the rule of
    :func:`kalgrad.numerics.check_eta0`."""
    return check_eta0(float(value))


# Config key -> (parser, default, the one time domain that reads it or None
# for both).  A model of the other domain refuses a key it could only
# ignore.  ``alpha[t]`` stands for the overrides alpha[1], alpha[2], ...,
# which the parser reads one value at a time into {t: alpha_t}.
_KEYS = {
    "scenario": (str, None, None),
    "family": (str, None, "discrete"),
    "obs_cov": (_parse_floats, None, "discrete"),
    "T": (float, None, None),
    "dt": (float, None, "continuous"),
    "dt_list": (_parse_floats, None, "continuous"),
    "seed": (_parse_seed, None, "discrete"),
    "s0": (_parse_floats, None, None),
    "p0_scale": (float, 1.0, None),
    "alpha": (str, "0.0", None),
    "alpha[t]": (float, {}, "discrete"),
    "eta0": (_parse_eta0, 0.5, None),
}


def parse_config(path: str | Path) -> dict:
    """Read a flat key = value file with # comments into the values of
    :data:`_KEYS` by key, defaults filled in; a key may appear once."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    overrides: dict[int, float] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        m = re.match(r"^alpha\[(\d+)\]$", key)
        store, slot = (overrides, int(m.group(1))) if m else (raw, key)
        if slot in store:
            raise ConfigError(f"{path}:{lineno}: repeated field {key}")
        store[slot] = _field(key, _KEYS["alpha[t]"][0], value) if m else value

    if "scenario" not in raw:
        raise ConfigError("missing required field: scenario")

    cfg = {key: default for key, (_, default, _) in _KEYS.items()}
    cfg["alpha[t]"] = overrides
    for key, (parse, _, _) in _KEYS.items():
        if key in raw and key != "alpha[t]":
            cfg[key] = _field(key, parse, raw.pop(key))
    if raw:
        raise ConfigError(f"unknown field: {sorted(raw)[0]}")
    return cfg


def _field(key: str, fn, *args):
    """``fn(*args)``, with a ValueError reported as an invalid ``key``."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(f"invalid field {key}: {exc}") from exc


def _alpha_values(cfg: dict) -> tuple[bool, list[float]]:
    """The alpha spec as (is a ramp, values): the ends (a, b) of
    ``ramp(a, b)``, or the constant or list of values."""
    spec = cfg["alpha"].strip()
    m = _RAMP_RE.match(spec)
    if m:
        return True, [_field("alpha", float, end) for end in m.groups()]
    return False, _field("alpha", _parse_floats, spec)


def _alpha_schedule(cfg: dict, horizon: int) -> np.ndarray:
    """Expand the alpha spec (constant | list | ramp(a, b)) over t = 1..T."""
    ramp, values = _alpha_values(cfg)
    if ramp:
        alpha = np.linspace(values[0], values[1], horizon)
    elif len(values) == 1:
        alpha = np.full(horizon, values[0])
    elif len(values) == horizon:
        alpha = np.asarray(values)
    else:
        raise ConfigError(f"invalid field alpha: need 1 or {horizon} values, got {len(values)}")
    for t, value in cfg["alpha[t]"].items():
        if not 1 <= t <= horizon:
            raise ConfigError(f"invalid field alpha[{t}]: t outside 1..{horizon}")
        alpha[t - 1] = value
    _check_weights(alpha)
    return alpha


def _check_weights(values) -> None:
    if not np.all(np.asarray(values) >= 0):
        raise ConfigError("invalid field alpha: weights must be >= 0")


def _alpha_fn(cfg: dict, horizon: float):
    """Alpha as a function of continuous time."""
    ramp, values = _alpha_values(cfg)
    if ramp:
        lo, hi = values
        _check_weights([lo, hi])
        return lambda t: lo + (hi - lo) * t / horizon
    if len(values) != 1:
        raise ConfigError("invalid field alpha: continuous runs need a constant or ramp")
    _check_weights(values)
    return float(values[0])


def _build_family(cfg: dict, model: model_mod.DynamicalModel) -> expfam.ObservationFamily:
    family = cfg["family"]
    if family is None:
        raise ConfigError("missing required field: family")
    if family == "gaussian":
        diag = cfg["obs_cov"]
        if diag is None:
            raise ConfigError("missing required field: obs_cov (gaussian family)")
        if len(diag) == 1:
            diag = diag * model.dim_obs
        if len(diag) != model.dim_obs:
            raise ConfigError(
                f"invalid field obs_cov: need 1 or {model.dim_obs} entries"
            )
        return expfam.gaussian(np.diag(diag))
    if family == "bernoulli":
        if model.dim_obs != 1:
            raise ConfigError(
                f"invalid field family: bernoulli observations have dimension 1,"
                f" {cfg['scenario']} observes dimension {model.dim_obs}"
            )
        return expfam.bernoulli()
    raise ConfigError(f"invalid field family: {family!r}")


def _init_state(cfg: dict, model) -> np.ndarray:
    if cfg["s0"] is None:
        return np.asarray(model.init_state, dtype=float)
    if len(cfg["s0"]) != model.dim_state:
        raise ConfigError(f"invalid field s0: need {model.dim_state} entries")
    s0 = np.asarray(cfg["s0"], dtype=float)
    if not _finite(s0):
        raise ConfigError("invalid field s0: entries must be finite")
    return s0


def _init_cov(cfg: dict, dim: int) -> np.ndarray:
    if not 0 < cfg["p0_scale"] < np.inf:
        raise ConfigError("invalid field p0_scale: must be positive and finite")
    return cfg["p0_scale"] * np.eye(dim)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write one CSV file.  Its directory is made here, so that it appears
    only once a run has validated its inputs and finished."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _load(config_path: str):
    """Parse the config, look up its model and refuse the keys that the
    model's time domain does not read."""
    cfg = parse_config(config_path)
    try:
        system = model_mod.builtin(cfg["scenario"])
    except UnknownModelError as exc:
        raise ConfigError(str(exc)) from exc
    domain = "continuous" if isinstance(system, model_mod.ContinuousModel) else "discrete"
    for key, (_, default, owner) in _KEYS.items():
        if owner not in (None, domain) and cfg[key] != default:
            raise ConfigError(
                f"invalid field {key}: {owner}-only, and {cfg['scenario']!r} is a {domain} model"
            )
    if cfg["T"] is None:
        raise ConfigError("missing required field: T")
    return cfg, system


def _discrete_inputs(cfg: dict, system):
    """Scenario, prior mean, prior covariance and alpha_1..alpha_T of a
    discrete run; the scenario seed defaults to 0."""
    if not (cfg["T"] >= 0 and cfg["T"].is_integer()):
        raise ConfigError(f"invalid field T: need a whole number of steps >= 0, got {cfg['T']:g}")
    if not cfg["eta0"] <= 1:  # both sides refuse what the gradient side cannot map
        raise ConfigError(
            f"invalid field eta0: a discrete model needs eta_0 in (0, 1], got {cfg['eta0']:g}"
        )
    horizon = int(cfg["T"])
    family = _build_family(cfg, system)
    scenario = model_mod.generate_scenario(system, family, horizon, cfg["seed"] or 0)
    s0 = _init_state(cfg, system)
    p0 = _init_cov(cfg, system.dim_state)
    return scenario, s0, p0, _alpha_schedule(cfg, horizon)


def _continuous_inputs(cfg: dict, system):
    """Horizon, alpha(t), prior mean and prior covariance of a continuous run."""
    horizon = float(cfg["T"])
    if not 0 < horizon < np.inf:
        raise ConfigError(f"invalid field T: need a finite time span > 0, got {horizon:g}")
    alpha = _alpha_fn(cfg, horizon)
    return horizon, alpha, _init_state(cfg, system), _init_cov(cfg, system.dim_state)


def _scenario_columns(scenario: model_mod.Scenario) -> tuple[list[str], np.ndarray]:
    """Leading columns of a discrete trace: t, the true state, and the
    observation's sufficient statistics (the gaussian vector or the
    bernoulli label; zero at t = 0, where there is none)."""
    horizon = scenario.horizon
    width = scenario.family.mean_dim
    y_block = np.zeros((horizon + 1, width))
    y_block[1:] = scenario.stats
    names = (
        ["t"]
        + [f"s_true_{i}" for i in range(scenario.model.dim_state)]
        + [f"y_{i}" for i in range(width)]
    )
    times = np.arange(horizon + 1, dtype=float)
    return names, np.column_stack([times, scenario.true_states, y_block])


def cmd_run(config_path: str, side: str, out: Path = Path(".")) -> int:
    """Run one side of the model's pair, the filter or the gradient, and
    write trace.csv / summary.txt."""
    cfg, system = _load(config_path)
    gradient = side == "gradient"
    if isinstance(system, model_mod.ContinuousModel):
        mode = "cngd" if gradient else "bucy"
        horizon, alpha, s0, p0 = _continuous_inputs(cfg, system)
        dt = cfg["dt"]
        if dt is None:
            raise ConfigError("missing required field: dt")
        _field("dt", bucy_mod.grid_steps, dt, horizon)
        grid = (dt, horizon, alpha)
        dim = system.dim_state
        if gradient:
            metric0 = eq_mod.initial_metric(p0, cfg["eta0"])
            trace = bucy_mod.integrate(bucy_mod.CNGD, s0, metric0, system, *grid, cfg["eta0"])
            factors = trace.factors  # J = U^T U
            prefix, mats, extra = "j", factors.transpose(0, 2, 1) @ factors, [trace.etas]
        else:
            trace = bucy_mod.integrate(bucy_mod.BUCY, s0, p0, system, *grid)
            prefix, mats, extra = "p", trace.covs, []
        header = (
            ["t"]
            + [f"y_{i}" for i in range(system.dim_obs)]
            + [f"s_{i}" for i in range(dim)]
            + [f"{prefix}_{i}_{j}" for i in range(dim) for j in range(dim)]
            + ["eta"] * len(extra)
        )
        obs = np.array([system.obs_path(t) for t in trace.times])
        rows = np.column_stack(
            [trace.times, obs, trace.states, mats.reshape(len(mats), -1), *extra]
        )
        details = [f"T = {horizon}", f"dt = {dt}"]
    else:
        mode = "natgrad" if gradient else "ekf"
        scenario, s0, p0, alpha = _discrete_inputs(cfg, system)
        if gradient:
            eta = eq_mod.map_alpha_to_eta(alpha, cfg["eta0"], scenario.horizon)[1:]
            metric0 = eq_mod.initial_metric(p0, cfg["eta0"])
            trace = ngd_mod.run(scenario, eta, eta, s0, metric0)
        else:
            trace = ekf_mod.run(scenario, alpha, s0, p0)
        header, block = _scenario_columns(scenario)
        header += [f"s_est_{i}" for i in range(system.dim_state)]
        rows = np.column_stack([block, trace.states])
        details = [
            f"T = {scenario.horizon}",
            f"seed = {scenario.seed}",
            "note = y columns at t = 0 are zero placeholders (no observation)",
        ]

    _write_csv(out / "trace.csv", header, rows)
    summary = [f"mode = {mode}", f"scenario = {cfg['scenario']}", *details, f"rows = {len(rows)}"]
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return 0


def cmd_compare(config_path: str, out: Path = Path("."), mutate: str | None = None) -> int:
    """Run the model's matched filter/gradient pair and report deviations."""
    cfg, system = _load(config_path)
    if isinstance(system, model_mod.ContinuousModel):
        mode = "continuous"
        if mutate is not None:
            raise ConfigError("invalid field mutate: the negative controls are discrete-only")
        horizon, alpha, s0, p0 = _continuous_inputs(cfg, system)
        if not cfg["dt_list"]:
            raise ConfigError("missing required field: dt_list")
        dts = _field("dt_list", bucy_mod.step_sizes, cfg["dt_list"], horizon)
        report = eq_mod.check_continuous(system, s0, p0, alpha, dts, horizon, eta0=cfg["eta0"])
        header = ["dt", "t", "state_dev", "metric_dev"]
        rows, details = [], []
        for rep in report.reports:
            for i, sd in enumerate(rep.state_devs):
                rows.append([rep.dt, i * rep.dt, sd, rep.metric_devs[i]])
            details.append(
                f"dt = {_fmt(rep.dt)} : max_state_dev = {_fmt(rep.max_state_dev)},"
                f" max_metric_dev = {_fmt(rep.max_metric_dev)}"
            )
        details += [
            f"order_state = {_fmt(report.order_state)}",
            f"order_metric = {_fmt(report.order_metric)}",
            f"tol = {_fmt(report.reports[-1].tol)}",
            f"pass = {report.passed}",
        ]
    else:
        mode = "discrete"
        scenario, s0, p0, alpha = _discrete_inputs(cfg, system)
        report = eq_mod.check_discrete(scenario, s0, p0, alpha, eta0=cfg["eta0"], mutate=mutate)
        header, block = _scenario_columns(scenario)
        dim = system.dim_state
        header += (
            [f"s_ekf_{i}" for i in range(dim)]
            + [f"s_ngd_{i}" for i in range(dim)]
            + ["state_dev", "metric_dev"]
        )
        rows = np.column_stack(
            [block, report.filter_states, report.grad_states, report.state_devs, report.metric_devs]
        )
        details = [
            f"max_state_dev = {_fmt(report.max_state_dev)}",
            f"max_metric_dev = {_fmt(report.max_metric_dev)}",
            f"tol = {_fmt(report.tol)}",
            f"mutate = {mutate or 'none'}",
            f"pass = {report.passed}",
        ]

    _write_csv(out / "deviations.csv", header, rows)
    summary = [f"mode = {mode}", f"scenario = {cfg['scenario']}", *details]
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return 0 if report.passed else 3


def cmd_list() -> int:
    """Print the built-in scenario names, sorted, one per line."""
    for name in model_mod.builtin_names():
        print(name)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error (exit 1): exit code 2
    is a numerical failure."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="kalgrad",
        description="Fading-memory Kalman filtering vs. natural gradient descent",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one side of the model's pair and write its trace")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--side", required=True, choices=("filter", "gradient"))
    p_run.add_argument("--out", type=Path, default=Path("."))

    p_cmp = sub.add_parser("compare", help="run a matched pair and compare traces")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", type=Path, default=Path("."))
    p_cmp.add_argument("--mutate", default=None)

    sub.add_parser("list", help="list built-in scenario names")

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args.config, args.side, args.out)
        if args.command == "compare":
            return cmd_compare(args.config, args.out, args.mutate)
        return cmd_list()
    except (ConfigError, ValueError, OSError) as exc:
        # An OSError comes from the config or --out path, a usage input.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
