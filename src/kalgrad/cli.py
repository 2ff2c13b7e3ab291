"""Batch front-end: parse flat key=value configs, run filters or
equivalence comparisons, and emit CSV traces plus plain-text summaries.

Exit codes: 0 success (or comparison pass), 1 configuration error,
2 numerical failure, 3 comparison tolerance failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bucy as bucy_mod
from . import ekf as ekf_mod
from . import equivalence as eq_mod
from . import expfam
from . import model as model_mod
from . import natgrad as ngd_mod
from .errors import ConfigError, NumericalError, UnknownModelError

RUN_MODES = ("ekf", "natgrad", "bucy", "cngd")
COMPARE_MODES = ("discrete", "continuous")

_RAMP_RE = re.compile(r"^ramp\(\s*([^,]+)\s*,\s*([^)]+)\s*\)$")


@dataclass
class RunConfig:
    """Declarative description of one run or comparison."""

    scenario: str
    family: str | None = None
    obs_cov: list[float] | None = None
    horizon: float | None = None
    dt: float | None = None
    dt_list: list[float] | None = None
    seed: int = 0
    s0: list[float] | None = None
    p0_scale: float = 1.0
    alpha_spec: str = "0.0"
    alpha_overrides: dict[int, float] = field(default_factory=dict)
    eta0: float = 0.5


def _parse_floats(value: str) -> list[float]:
    return [float(part) for part in value.split(",") if part.strip()]


def _parse_seed(value: str) -> int:
    """A scenario seed: a whole number that keys the Philox stream."""
    seed = int(value)
    if not 0 <= seed < 2**128:
        raise ValueError(f"must lie in 0 .. 2**128 - 1, got {seed}")
    return seed


# Config key -> (RunConfig field, parser).  ``scenario`` and the alpha[t]
# overrides are read separately.
_FIELDS = {
    "family": ("family", str),
    "obs_cov": ("obs_cov", _parse_floats),
    "T": ("horizon", float),
    "dt": ("dt", float),
    "dt_list": ("dt_list", _parse_floats),
    "seed": ("seed", _parse_seed),
    "s0": ("s0", _parse_floats),
    "p0_scale": ("p0_scale", float),
    "alpha": ("alpha_spec", str),
    "eta0": ("eta0", float),
}


def parse_config(path: str | Path) -> RunConfig:
    """Read a flat key = value file with # comments and alpha[t] overrides."""
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
        if m:
            overrides[int(m.group(1))] = float(value)
            continue
        raw[key] = value

    if "scenario" not in raw:
        raise ConfigError("missing required field: scenario")

    cfg = RunConfig(scenario=raw.pop("scenario"), alpha_overrides=overrides)
    for key, (name, parse) in _FIELDS.items():
        if key in raw:
            try:
                setattr(cfg, name, parse(raw.pop(key)))
            except ValueError as exc:
                raise ConfigError(f"invalid field {key}: {exc}") from exc
    if raw:
        raise ConfigError(f"unknown field: {sorted(raw)[0]}")
    return cfg


def _alpha_schedule(cfg: RunConfig, horizon: int) -> np.ndarray:
    """Expand the alpha spec (constant | list | ramp(a, b)) over t = 1..T."""
    spec = cfg.alpha_spec.strip()
    m = _RAMP_RE.match(spec)
    if m:
        alpha = np.linspace(float(m.group(1)), float(m.group(2)), horizon)
    else:
        values = _parse_floats(spec)
        if len(values) == 1:
            alpha = np.full(horizon, values[0])
        elif len(values) == horizon:
            alpha = np.asarray(values)
        else:
            raise ConfigError(
                f"invalid field alpha: need 1 or {horizon} values, got {len(values)}"
            )
    for t, value in cfg.alpha_overrides.items():
        if not 1 <= t <= horizon:
            raise ConfigError(f"invalid field alpha[{t}]: t outside 1..{horizon}")
        alpha[t - 1] = value
    _check_weights(alpha)
    return alpha


def _check_weights(values) -> None:
    if not np.all(np.asarray(values) >= 0):
        raise ConfigError("invalid field alpha: weights must be >= 0")


def _alpha_fn(cfg: RunConfig, horizon: float):
    """Alpha as a function of continuous time."""
    if cfg.alpha_overrides:
        raise ConfigError("invalid field alpha[t]: per-step overrides are discrete-only")
    spec = cfg.alpha_spec.strip()
    m = _RAMP_RE.match(spec)
    if m:
        lo, hi = float(m.group(1)), float(m.group(2))
        _check_weights([lo, hi])
        return lambda t: lo + (hi - lo) * t / horizon
    values = _parse_floats(spec)
    if len(values) != 1:
        raise ConfigError("invalid field alpha: continuous runs need a constant or ramp")
    _check_weights(values)
    return float(values[0])


def _build_family(cfg: RunConfig, model: model_mod.DynamicalModel) -> expfam.ObservationFamily:
    if cfg.family is None:
        raise ConfigError("missing required field: family")
    if cfg.family == "gaussian":
        if cfg.obs_cov is None:
            raise ConfigError("missing required field: obs_cov (gaussian family)")
        diag = cfg.obs_cov
        if len(diag) == 1:
            diag = diag * model.dim_obs
        if len(diag) != model.dim_obs:
            raise ConfigError(
                f"invalid field obs_cov: need 1 or {model.dim_obs} entries"
            )
        return expfam.gaussian(np.diag(diag))
    if cfg.family == "bernoulli":
        if model.dim_obs != 1:
            raise ConfigError(
                f"invalid field family: bernoulli observations have dimension 1,"
                f" {cfg.scenario} observes dimension {model.dim_obs}"
            )
        return expfam.bernoulli()
    raise ConfigError(f"invalid field family: {cfg.family!r}")


def _init_state(cfg: RunConfig, model) -> np.ndarray:
    if cfg.s0 is None:
        return np.asarray(model.init_state, dtype=float)
    if len(cfg.s0) != model.dim_state:
        raise ConfigError(f"invalid field s0: need {model.dim_state} entries")
    s0 = np.asarray(cfg.s0, dtype=float)
    if not np.isfinite(s0).all():
        raise ConfigError("invalid field s0: entries must be finite")
    return s0


def _init_cov(cfg: RunConfig, dim: int) -> np.ndarray:
    if not 0 < cfg.p0_scale < np.inf:
        raise ConfigError("invalid field p0_scale: must be positive and finite")
    return cfg.p0_scale * np.eye(dim)


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
    """Parse the config and look up its model."""
    cfg = parse_config(config_path)
    try:
        system = model_mod.builtin(cfg.scenario)
    except UnknownModelError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.horizon is None:
        raise ConfigError("missing required field: T")
    return cfg, system


def _discrete_inputs(cfg: RunConfig, system):
    """Scenario, prior mean, prior covariance and alpha_1..alpha_T of a
    discrete run."""
    if not isinstance(system, model_mod.DynamicalModel):
        raise ConfigError(f"invalid field scenario: {cfg.scenario!r} is not a discrete model")
    if not (cfg.horizon >= 0 and cfg.horizon.is_integer()):
        raise ConfigError(f"invalid field T: need a whole number of steps >= 0, got {cfg.horizon:g}")
    horizon = int(cfg.horizon)
    family = _build_family(cfg, system)
    scenario = model_mod.generate_scenario(system, family, horizon, cfg.seed)
    s0 = _init_state(cfg, system)
    p0 = _init_cov(cfg, system.dim_state)
    return scenario, s0, p0, _alpha_schedule(cfg, horizon)


def _continuous_inputs(cfg: RunConfig, system):
    """Horizon, alpha(t), prior mean and prior covariance of a continuous run."""
    if not isinstance(system, model_mod.ContinuousModel):
        raise ConfigError(f"invalid field scenario: {cfg.scenario!r} is not a continuous model")
    for key, value in (("family", cfg.family), ("obs_cov", cfg.obs_cov)):
        if value is not None:
            raise ConfigError(
                f"invalid field {key}: a continuous model fixes its own observation"
                " path and covariance"
            )
    horizon = float(cfg.horizon)
    alpha = _alpha_fn(cfg, horizon)
    return horizon, alpha, _init_state(cfg, system), _init_cov(cfg, system.dim_state)


def _scenario_columns(scenario: model_mod.Scenario) -> tuple[list[str], np.ndarray]:
    """Leading columns of a discrete trace: t, the true state, and the
    observation (the gaussian vector or the bernoulli label; zero at
    t = 0, where there is none)."""
    horizon = scenario.horizon
    width = scenario.family.mean_dim
    y_block = np.zeros((horizon + 1, width))
    for t in range(1, horizon + 1):
        y_block[t] = np.asarray(scenario.obs(t), dtype=float)
    names = (
        ["t"]
        + [f"s_true_{i}" for i in range(scenario.model.dim_state)]
        + [f"y_{i}" for i in range(width)]
    )
    times = np.arange(horizon + 1, dtype=float)
    return names, np.column_stack([times, scenario.true_states, y_block])


def cmd_run(config_path: str, mode: str, out: Path = Path(".")) -> int:
    """Run one filter or flow and write trace.csv / summary.txt."""
    if mode not in RUN_MODES:
        raise ConfigError(f"unknown run mode {mode!r}; choose from {RUN_MODES}")
    cfg, system = _load(config_path)
    summary: list[str] = [f"mode = {mode}", f"scenario = {cfg.scenario}"]

    if mode in ("ekf", "natgrad"):
        scenario, s0, p0, alpha = _discrete_inputs(cfg, system)
        if mode == "ekf":
            trace = ekf_mod.run(scenario, alpha, s0, p0)
        else:
            eta = eq_mod.map_alpha_to_eta(alpha, cfg.eta0, scenario.horizon)[1:]
            metric0 = eq_mod.initial_metric(p0, cfg.eta0)
            trace = ngd_mod.run(scenario, eta, eta, s0, metric0)
        header, block = _scenario_columns(scenario)
        header += [f"s_est_{i}" for i in range(system.dim_state)]
        rows = np.column_stack([block, trace.states])
        summary.append(f"T = {scenario.horizon}")
        summary.append(f"seed = {cfg.seed}")
        summary.append("note = y columns at t = 0 are zero placeholders (no observation)")
    else:
        horizon, alpha, s0, p0 = _continuous_inputs(cfg, system)
        if cfg.dt is None:
            raise ConfigError("missing required field: dt")
        icfg = bucy_mod.IntegratorConfig(dt=cfg.dt, horizon=horizon, alpha=alpha)
        dim = system.dim_state
        if mode == "bucy":
            trace = bucy_mod.integrate(bucy_mod.BUCY, s0, p0, system, icfg)
            prefix, mats, extra = "p", trace.covs, []
        else:
            metric0 = eq_mod.initial_metric(p0, cfg.eta0)
            trace = bucy_mod.integrate(bucy_mod.CNGD, s0, metric0, system, icfg, cfg.eta0)
            prefix, mats, extra = "j", trace.metrics, [trace.etas]
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
        summary.append(f"T = {horizon}")
        summary.append(f"dt = {cfg.dt}")

    _write_csv(out / "trace.csv", header, rows)
    summary.append(f"rows = {len(rows)}")
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return 0


def cmd_compare(
    config_path: str,
    mode: str,
    out: Path = Path("."),
    mutate: str | None = None,
) -> int:
    """Run the matched filter/gradient pair and report deviations."""
    if mode not in COMPARE_MODES:
        raise ConfigError(f"unknown compare mode {mode!r}; choose from {COMPARE_MODES}")
    cfg, system = _load(config_path)
    summary: list[str] = [f"mode = {mode}", f"scenario = {cfg.scenario}"]

    if mode == "discrete":
        scenario, s0, p0, alpha = _discrete_inputs(cfg, system)
        report = eq_mod.check_discrete(scenario, s0, p0, alpha, eta0=cfg.eta0, mutate=mutate)
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
        _write_csv(out / "deviations.csv", header, rows)
        summary += [
            f"max_state_dev = {_fmt(report.max_state_dev)}",
            f"max_metric_dev = {_fmt(report.max_metric_dev)}",
            f"tol = {_fmt(report.tol)}",
            f"mutate = {mutate or 'none'}",
            f"pass = {report.passed}",
        ]
        passed = report.passed
    else:
        if mutate is not None:
            raise ConfigError("invalid field mutate: the negative controls are discrete-only")
        horizon, alpha, s0, p0 = _continuous_inputs(cfg, system)
        if not cfg.dt_list:
            raise ConfigError("missing required field: dt_list")
        result = eq_mod.check_continuous(
            system, s0, p0, alpha, cfg.dt_list, horizon, eta0=cfg.eta0
        )
        rows = []
        for rep in result.reports:
            for i, sd in enumerate(rep.state_devs):
                rows.append([rep.dt, i * rep.dt, sd, rep.metric_devs[i]])
        _write_csv(
            out / "deviations.csv", ["dt", "t", "state_dev", "metric_dev"], rows
        )
        for rep in result.reports:
            summary.append(
                f"dt = {_fmt(rep.dt)} : max_state_dev = {_fmt(rep.max_state_dev)},"
                f" max_metric_dev = {_fmt(rep.max_metric_dev)}"
            )
        summary += [
            f"order_state = {_fmt(result.order_state)}",
            f"order_metric = {_fmt(result.order_metric)}",
            f"tol = {_fmt(result.reports[-1].tol)}",
            f"pass = {result.passed}",
        ]
        passed = result.passed

    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return 0 if passed else 3


def cmd_list() -> int:
    """Print the built-in scenario names, sorted, one per line."""
    for name in model_mod.builtin_names():
        print(name)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kalgrad",
        description="Fading-memory Kalman filtering vs. natural gradient descent",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one filter and write its trace")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--mode", required=True, choices=RUN_MODES)
    p_run.add_argument("--out", type=Path, default=Path("."))

    p_cmp = sub.add_parser("compare", help="run a matched pair and compare traces")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--mode", required=True, choices=COMPARE_MODES)
    p_cmp.add_argument("--out", type=Path, default=Path("."))
    p_cmp.add_argument("--mutate", default=None)

    sub.add_parser("list", help="list built-in scenario names")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.mode, args.out)
        if args.command == "compare":
            return cmd_compare(args.config, args.mode, args.out, args.mutate)
        return cmd_list()
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
