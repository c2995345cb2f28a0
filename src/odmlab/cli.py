"""Command-line front end.

Subcommands: simulate | check | fit | loglik | forecast | mc-consistency.
Exit codes: 0 success, 2 usage or domain error, 3 degraded numerical outcome
(non-convergence, too many replicate failures).  All outputs are
deterministic given the flags: JSON uses lexicographic keys and shortest
round-trip floats, CSV/TSV fixed headers, and no timestamps are written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from itertools import repeat
from typing import Optional

from .conditions import check_identifiable, check_model
from .experiment import ExperimentConfig, run_mc_consistency
from .fit import (
    FitFailureError,
    FitOptions,
    ThetaBox,
    default_box,
    fit_mle,
    forecast_one_step,
    make_box,
)
from .families import _FAMILIES, FAMILIES
from .model import (
    FEATURE_KINDS,
    ModelOrder,
    ModelSpec,
    ObservationSeries,
    ParameterVector,
    ParxConfig,
    default_initial_window,
    param_names,
    unpack_params,
)
from .likelihood import loglik
from .simulate import LatentExplosionError, SimConfig, simulate_series

USAGE_ERROR = 2
DEGRADED = 3


class CliError(Exception):
    """A usage error the CLI found itself; ``main`` prints it and exits 2."""


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# --- flag plumbing -------------------------------------------------------------


def _add_family_flags(parser: argparse.ArgumentParser, with_theta: bool = True) -> None:
    parser.add_argument("--family", required=True, choices=FAMILIES)
    if with_theta:
        parser.add_argument("--omega", type=float)
        parser.add_argument("--a", type=float, nargs="+", default=None)
        parser.add_argument("--b", type=float, nargs="+", default=None)
        parser.add_argument("--r", type=float, default=None)
        parser.add_argument("--gamma", type=float, nargs="+", default=None)
    # None when not given, so that a family without covariates can refuse them
    parser.add_argument("--xi-dim", type=int, help="PARX covariate dimension (default 1)")
    parser.add_argument("--feature", nargs="+", choices=FEATURE_KINDS,
                        help="PARX feature kinds (feature j reads covariate j; default abs)")
    parser.add_argument("--aleph", type=float, nargs="+",
                        help="PARX VAR(1) matrix, row-major (default 0.5 * identity)")
    parser.add_argument("--sigma", type=float, help="PARX noise scale (default 1)")


COVARIATE_KEYS = ("xi_dim", "feature", "aleph", "sigma")


def _build_parx_config(args) -> Optional[ParxConfig]:
    """The covariate block from the flags, for a family that takes one; else None.

    A family without covariates refuses any of ``COVARIATE_KEYS`` that is set.
    """
    if not _FAMILIES[args.family].covariates:
        given = [key for key in COVARIATE_KEYS if getattr(args, key) is not None]
        if given:
            raise CliError(f"family {args.family!r} takes no covariate settings, got "
                           f"{', '.join(given)}")
        return None
    r_dim = 1 if args.xi_dim is None else args.xi_dim
    flat = args.aleph
    if flat is None:  # 0.5 * identity
        flat = [0.5 if i == j else 0.0 for i in range(r_dim) for j in range(r_dim)]
    elif len(flat) != r_dim * r_dim:
        raise CliError(f"--aleph needs {r_dim * r_dim} entries for xi-dim {r_dim}")
    mat = tuple(tuple(flat[i * r_dim : (i + 1) * r_dim]) for i in range(r_dim))
    feature = ["abs"] if args.feature is None else args.feature
    sigma = 1.0 if args.sigma is None else args.sigma
    return ParxConfig(r_dim=r_dim, feature_kinds=feature, aleph=mat, sigma=sigma)


def _build_spec_theta(args) -> tuple[ModelSpec, ParameterVector]:
    if args.omega is None or args.a is None or args.b is None:
        raise CliError("--omega, --a and --b are required")
    order = ModelOrder(p=len(args.a), q=len(args.b))
    spec = ModelSpec(family=args.family, order=order, parx=_build_parx_config(args))
    return spec, spec.params(args.omega, args.a, args.b, r=args.r, gamma=args.gamma)


def _build_spec_orders(args) -> ModelSpec:
    return ModelSpec(family=args.family, order=ModelOrder(p=args.p, q=args.q),
                     parx=_build_parx_config(args))


# --- CSV -----------------------------------------------------------------------


def series_to_csv(series: ObservationSeries) -> str:
    r_dim = 0 if series.covariates is None else series.covariates.shape[1]
    header = "t,y" + "".join(f",xi_{j}" for j in range(1, r_dim + 1))
    lines = [header]
    rows = series.covariates.tolist() if r_dim else repeat(())
    for t, (y, row) in enumerate(zip(series.y.tolist(), rows)):
        lines.append(f"{t},{int(y)}" + "".join(f",{v!r}" for v in row))
    return "\n".join(lines) + "\n"


def series_from_csv(path: str, family: str) -> ObservationSeries:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if not raw:
        raise CliError(f"{path}: empty file")
    header = raw[0].split(",")
    if header[:2] != ["t", "y"]:
        raise CliError(f"{path}: line 1: header must start with 't,y'")
    xi_cols = header[2:]
    for j, name in enumerate(xi_cols, start=1):
        if name != f"xi_{j}":
            raise CliError(f"{path}: line 1: covariate columns must be xi_1..xi_r")
    ys, xis = [], []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2 + len(xi_cols):
            raise CliError(f"{path}: line {lineno}: expected {2 + len(xi_cols)} fields")
        try:
            t = int(parts[0])
            y = int(parts[1])
            row = tuple(float(v) for v in parts[2:])
        except ValueError as exc:
            raise CliError(f"{path}: line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise CliError(f"{path}: line {lineno}: covariates must be finite")
        if t != lineno - 2:
            raise CliError(f"{path}: line {lineno}: t must be 0-based and consecutive")
        if y < 0:
            raise CliError(f"{path}: line {lineno}: negative count")
        ys.append(y)
        xis.append(row)
    if not ys:
        raise CliError(f"{path}: no data rows")
    if _FAMILIES[family].covariates:
        if not xi_cols:
            raise CliError(f"{path}: PARX data needs xi_1..xi_r columns")
        return ObservationSeries(y=ys, covariates=xis)
    if xi_cols:
        raise CliError(f"{path}: family {family!r} takes no covariate columns")
    return ObservationSeries(y=ys)


# --- subcommands ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    spec, theta = _build_spec_theta(args)
    if args.require_stable:
        report = check_model(spec, theta)
        if report.verdict != "Pass":
            raise CliError(
                f"stability check verdict {report.verdict}: "
                + "; ".join(f"{c.name}={c.value:.6g}" for c in report.checks)
            )
    sim = simulate_series(spec, theta, SimConfig(n=args.n, burn_in=args.burn_in, seed=args.seed))
    out = args.out or os.path.join(args.out_dir, "series.csv")
    _write_text(out, series_to_csv(sim.series))
    print(f"seed {args.seed}")
    print(f"wrote {out}")
    return 0


def cmd_check(args) -> int:
    spec, theta = _build_spec_theta(args)
    report = check_model(spec, theta, certificate_depth=args.certificate_depth)
    payload = report.to_dict()
    payload["identifiability"] = check_identifiable(theta.a, theta.b).to_dict()
    sys.stdout.write(_json_dumps(payload))
    return 0


def _parse_pins(pins, spec: ModelSpec) -> dict[int, float]:
    names = list(param_names(spec))
    out = {}
    for item in pins or []:
        if "=" not in item:
            raise CliError(f"--pin expects name=value, got {item!r}")
        name, _, val = item.partition("=")
        if name not in names:
            raise CliError(f"unknown coordinate {name!r}; choose from {names}")
        try:
            out[names.index(name)] = float(val)
        except ValueError as exc:
            raise CliError(f"--pin {item!r}: {exc}") from exc
    return out


def _box_from_args(args, spec: ModelSpec) -> ThetaBox:
    if args.box_file:
        try:
            with open(args.box_file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            box = make_box(spec, data["lower"], data["upper"])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise CliError(f"bad box file {args.box_file}: {exc}") from exc
    else:
        box = default_box(spec)
    pins = _parse_pins(args.pin, spec)
    if pins:
        lo = list(box.lower)
        hi = list(box.upper)
        for idx, val in pins.items():
            lo[idx] = hi[idx] = val
        box = make_box(spec, lo, hi)
    return box


def cmd_fit(args) -> int:
    spec = _build_spec_orders(args)
    series = series_from_csv(args.data, spec.family)
    box = _box_from_args(args, spec)
    opts = FitOptions(
        starts=args.starts,
        max_evals=args.max_evals,
        require_stability=args.require_stable,
        guard_override=args.guard_override,
        seed=args.seed,
    )
    result = fit_mle(spec, series, box=box, opts=opts)
    out = args.out or os.path.join(args.out_dir, "fit.json")
    payload = result.to_dict(spec)
    payload["family"] = spec.family
    payload["order"] = {"p": spec.p, "q": spec.q}
    _write_text(out, _json_dumps(payload))
    print(f"wrote {out}")
    return 0 if result.converged else DEGRADED


def cmd_loglik(args) -> int:
    spec, theta = _build_spec_theta(args)
    series = series_from_csv(args.data, spec.family)
    z0 = default_initial_window(spec, series)
    val = loglik(spec, theta, z0, series, keep_path=False)
    sys.stdout.write(
        _json_dumps({"n": val.n, "normalized": val.normalized, "total": val.total})
    )
    return 0


def cmd_forecast(args) -> int:
    try:
        with open(args.theta_file, "r", encoding="utf-8") as fh:
            fitted = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read theta file {args.theta_file}: {exc}") from exc
    fitted = _json_object(fitted, "theta file")
    if fitted.get("family") != args.family:
        raise CliError(
            f"family mismatch: theta file has {fitted.get('family')!r}, flags say {args.family!r}"
        )
    order = _json_object(fitted.get("order"), "theta file 'order'")
    for key in ("p", "q"):  # int() parses a string; a number must be integral
        value = order.get(key)
        what = f"theta file order {key!r}"
        setattr(args, key, int(value) if isinstance(value, str) else _json_int(value, what))
    spec = _build_spec_orders(args)
    names = param_names(spec)
    try:
        theta_hat = _json_object(fitted["theta_hat"], "theta file 'theta_hat'")
        values = [theta_hat[name] for name in names]
        for name, value in zip(names, values):  # float() would read true as 1.0
            if isinstance(value, bool):
                raise CliError(f"theta file 'theta_hat' {name!r} must be a number, got "
                               f"{json.dumps(value)}")
        theta = unpack_params(spec, values)
    except KeyError as exc:
        raise CliError(f"theta file is missing coordinate {exc}") from exc
    except TypeError as exc:  # e.g. a null where a number belongs
        raise CliError(f"theta file 'theta_hat': {exc}") from exc
    series = series_from_csv(args.data, spec.family)
    z0 = default_initial_window(spec, series)
    dist = forecast_one_step(spec, theta, z0, series)
    y_max = dist.quantile(1.0 - 1e-6)
    pmf = dist.pmf_values(y_max)
    sys.stdout.write(
        _json_dumps(
            {
                "kind": dist.kind,
                "mean": dist.mean,
                "pmf": [float(v) for v in pmf],
                "pmf_mass": float(pmf.sum()),
            }
        )
    )
    return 0


# the config's "fit" keys; each overrides the FitOptions default of the same name
MC_FIT_KEYS = ("starts", "guard_override", "max_evals")


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise CliError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise CliError(f"{what} must be an integer, got {json.dumps(value)}")
    return int(value)


def _fit_option(key: str, value):
    """A config 'fit' value: a JSON boolean for a flag, an integer for a count."""
    if not isinstance(getattr(FitOptions, key), bool):
        return _json_int(value, f"config 'fit' {key!r}")
    if not isinstance(value, bool):
        raise CliError(f"config 'fit' {key!r} must be true or false, got {json.dumps(value)}")
    return value


def cmd_mc_consistency(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read config {args.config}: {exc}") from exc
    raw = _json_object(raw, "config")

    theta_raw = _json_object(raw.get("theta_star", {}), "config 'theta_star'")
    ns = argparse.Namespace(
        family=raw.get("family"),
        **{key: raw.get(key) for key in COVARIATE_KEYS},
        **{key: theta_raw.get(key) for key in ("omega", "a", "b", "r", "gamma")},
    )
    if ns.family not in FAMILIES:  # a tuple: an unhashable family is not one of them
        raise CliError(f"config family must be one of {FAMILIES}")
    if "xi_dim" in raw:
        ns.xi_dim = _json_int(raw["xi_dim"], "config 'xi_dim'")
    try:
        spec, theta_star = _build_spec_theta(ns)
    except TypeError as exc:  # e.g. a scalar where a list belongs
        raise CliError(f"bad model in config: {exc}") from exc

    sizes = args.n if args.n else raw.get("n")
    replicates = args.replicates if args.replicates is not None else raw.get("replicates")
    seed = args.seed if args.seed is not None else raw.get("seed", 0)
    if not sizes or replicates is None:
        raise CliError("config must provide sample sizes 'n' and 'replicates'")
    box = None
    if "box" in raw and raw["box"] is not None:
        try:
            box = make_box(spec, raw["box"]["lower"], raw["box"]["upper"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"bad box in config: {exc}") from exc
    fit_raw = _json_object(raw.get("fit", {}), "config 'fit'")
    unknown = sorted(set(fit_raw) - set(MC_FIT_KEYS))
    if unknown:
        raise CliError(f"unknown 'fit' keys in config: {unknown}; allowed: {list(MC_FIT_KEYS)}")
    fit_opts = FitOptions(**{k: _fit_option(k, v) for k, v in fit_raw.items()})
    try:
        config = ExperimentConfig(
            spec=spec,
            theta_star=theta_star,
            ns=tuple(_json_int(v, "config 'n'") for v in sizes),
            replicates=_json_int(replicates, "config 'replicates'"),
            seed=_json_int(seed, "config 'seed'"),
            box=box,
            fit_opts=fit_opts,
            burn_in=_json_int(raw.get("burn_in", ExperimentConfig.burn_in), "config 'burn_in'"),
        )
    except TypeError as exc:  # e.g. a scalar where the list of sizes belongs
        raise CliError(f"bad config: {exc}") from exc

    report = run_mc_consistency(config)
    out_dir = args.out_dir
    _write_text(os.path.join(out_dir, "consistency.json"), _json_dumps(report.to_dict()))
    _write_text(
        os.path.join(out_dir, "consistency.tsv"), "\n".join(report.tsv_lines()) + "\n"
    )
    # Wall-clock sidecar: intentionally outside the deterministic outputs.
    _write_text(
        os.path.join(out_dir, "runtimes.tsv"),
        "\n".join(f"{i}\t{t:.6f}" for i, t in enumerate(report.runtimes)) + "\n",
    )
    print(f"wrote {os.path.join(out_dir, 'consistency.json')}")
    if report.failure_fraction > 0.2:
        print(
            f"warning: {report.failure_fraction:.0%} of replicate fits failed",
            file=sys.stderr,
        )
        return DEGRADED
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odmlab",
        description="Count time-series with latent feedback: simulate, audit, fit, forecast.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="simulate a series to CSV")
    _add_family_flags(ps)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--burn-in", type=int, default=SimConfig.burn_in)
    ps.add_argument("--seed", type=int, default=SimConfig.seed)
    ps.add_argument("--out", default=None)
    ps.add_argument("--out-dir", default=".")
    ps.add_argument("--require-stable", action="store_true")
    ps.set_defaults(func=cmd_simulate)

    pc = sub.add_parser("check", help="stability/identifiability report as JSON")
    _add_family_flags(pc)
    pc.add_argument("--certificate-depth", type=int, default=None)
    pc.set_defaults(func=cmd_check)

    pf = sub.add_parser("fit", help="maximum likelihood fit from CSV")
    _add_family_flags(pf, with_theta=False)
    pf.add_argument("--p", type=int, default=1)
    pf.add_argument("--q", type=int, default=1)
    pf.add_argument("--data", required=True)
    pf.add_argument("--box-file", default=None)
    pf.add_argument("--pin", action="append", default=None, help="pin a coordinate, e.g. a1=0")
    pf.add_argument("--starts", type=int, default=FitOptions.starts)
    pf.add_argument("--max-evals", type=int, default=FitOptions.max_evals)
    pf.add_argument("--seed", type=int, default=FitOptions.seed)
    pf.add_argument("--require-stable", action="store_true")
    pf.add_argument("--guard-override", action="store_true")
    pf.add_argument("--out", default=None)
    pf.add_argument("--out-dir", default=".")
    pf.set_defaults(func=cmd_fit)

    pl = sub.add_parser("loglik", help="evaluate the log-likelihood at given parameters")
    _add_family_flags(pl)
    pl.add_argument("--data", required=True)
    pl.set_defaults(func=cmd_loglik)

    pp = sub.add_parser("forecast", help="one-step predictive distribution")
    _add_family_flags(pp, with_theta=False)
    pp.add_argument("--data", required=True)
    pp.add_argument("--theta-file", required=True, help="fit JSON produced by `odmlab fit`")
    pp.set_defaults(func=cmd_forecast)

    pm = sub.add_parser("mc-consistency", help="simulate-and-refit consistency experiment")
    pm.add_argument("--config", required=True, help="ExperimentConfig JSON")
    pm.add_argument("--n", type=int, nargs="+", default=None)
    pm.add_argument("--replicates", type=int, default=None)
    pm.add_argument("--seed", type=int, default=None)
    pm.add_argument("--out-dir", default=".")
    pm.set_defaults(func=cmd_mc_consistency)

    negative = re.compile(r"(?i)^-(inf|infinity|nan|(\d+\.?\d*|\.\d+)(e[+-]?\d+)?)$")
    for each in (parser, *sub.choices.values()):  # argparse reads -1e-3 and -inf as flags
        each._negative_number_matcher = negative
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, ValueError, LatentExplosionError, FitFailureError) as exc:
        # ValueError is the library's input-error type (DomainError and
        # CertificateBudgetError among them); other exceptions are bugs
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
