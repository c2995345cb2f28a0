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
import os
import sys

from .conditions import CertificateBudgetError, check_identifiable, check_model
from .experiment import ExperimentConfig, run_mc_consistency
from .fit import FitOptions, ThetaBox, default_box, fit_mle, forecast_one_step, make_box
from .model import (
    LOGLIN,
    NBIN,
    PARX,
    DomainError,
    ModelOrder,
    ModelSpec,
    ObservationSeries,
    ParameterVector,
    ParxConfig,
    default_initial_window,
    pack_params,
    param_names,
    unpack_params,
)
from .likelihood import loglik
from .simulate import SimConfig, simulate_series

USAGE_ERROR = 2
DEGRADED = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# --- flag plumbing -------------------------------------------------------------


def _add_family_flags(parser: argparse.ArgumentParser, with_theta: bool = True) -> None:
    parser.add_argument("--family", required=True, choices=[LOGLIN, NBIN, PARX])
    if with_theta:
        parser.add_argument("--omega", type=float)
        parser.add_argument("--a", type=float, nargs="+", default=None)
        parser.add_argument("--b", type=float, nargs="+", default=None)
        parser.add_argument("--r", type=float, default=None)
        parser.add_argument("--gamma", type=float, nargs="+", default=None)
    else:
        parser.add_argument("--p", type=int, default=1)
        parser.add_argument("--q", type=int, default=1)
    parser.add_argument("--xi-dim", type=int, default=1, help="PARX covariate dimension")
    parser.add_argument(
        "--feature",
        nargs="+",
        default=["abs"],
        choices=["square", "abs", "pos_part"],
        help="PARX feature kinds (feature j reads covariate j)",
    )
    parser.add_argument(
        "--aleph",
        type=float,
        nargs="+",
        default=None,
        help="PARX VAR(1) matrix, row-major (default 0.5 * identity)",
    )
    parser.add_argument("--sigma", type=float, default=1.0, help="PARX noise scale")


def _build_parx_config(args) -> ParxConfig:
    r_dim = args.xi_dim
    if args.aleph is None:
        mat = tuple(
            tuple(0.5 if i == j else 0.0 for j in range(r_dim)) for i in range(r_dim)
        )
    else:
        if len(args.aleph) != r_dim * r_dim:
            raise CliError(f"--aleph needs {r_dim * r_dim} entries for xi-dim {r_dim}")
        mat = tuple(
            tuple(args.aleph[i * r_dim + j] for j in range(r_dim)) for i in range(r_dim)
        )
    try:
        return ParxConfig(
            r_dim=r_dim, feature_kinds=tuple(args.feature), aleph=mat, sigma=args.sigma
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _build_spec_theta(args) -> tuple[ModelSpec, ParameterVector]:
    if args.omega is None or args.a is None or args.b is None:
        raise CliError("--omega, --a and --b are required")
    order = ModelOrder(p=len(args.a), q=len(args.b))
    parx = _build_parx_config(args) if args.family == PARX else None
    try:
        spec = ModelSpec(family=args.family, order=order, parx=parx)
        theta = spec.params(args.omega, args.a, args.b, r=args.r, gamma=args.gamma)
    except (ValueError, DomainError) as exc:
        raise CliError(str(exc)) from exc
    return spec, theta


def _build_spec_orders(args) -> ModelSpec:
    parx = _build_parx_config(args) if args.family == PARX else None
    try:
        return ModelSpec(family=args.family, order=ModelOrder(p=args.p, q=args.q), parx=parx)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


# --- CSV -----------------------------------------------------------------------


def series_to_csv(series: ObservationSeries) -> str:
    r_dim = len(series.covariates[0]) if series.covariates is not None else 0
    header = "t,y" + "".join(f",xi_{j}" for j in range(1, r_dim + 1))
    lines = [header]
    for t, y in enumerate(series.y):
        row = f"{t},{y}"
        if r_dim:
            row += "".join(f",{v!r}" for v in series.covariates[t])
        lines.append(row)
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
    ys = []
    xis = []
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
        if t != lineno - 2:
            raise CliError(f"{path}: line {lineno}: t must be 0-based and consecutive")
        if y < 0:
            raise CliError(f"{path}: line {lineno}: negative count")
        ys.append(y)
        xis.append(row)
    if not ys:
        raise CliError(f"{path}: no data rows")
    if family == PARX:
        if not xi_cols:
            raise CliError(f"{path}: PARX data needs xi_1..xi_r columns")
        return ObservationSeries(y=tuple(ys), covariates=tuple(xis))
    if xi_cols:
        raise CliError(f"{path}: family {family!r} takes no covariate columns")
    return ObservationSeries(y=tuple(ys))


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
    sim = simulate_series(
        spec, theta, SimConfig(n=args.n, burn_in=args.burn_in, seed=args.seed)
    )
    out = args.out or os.path.join(args.out_dir, "series.csv")
    _write_text(out, series_to_csv(sim.series))
    print(f"seed {args.seed}")
    print(f"wrote {out}")
    return 0


def cmd_check(args) -> int:
    spec, theta = _build_spec_theta(args)
    kwargs = {}
    if spec.family == LOGLIN and args.certificate_depth is not None:
        kwargs["certificate_depth"] = args.certificate_depth
    try:
        report = check_model(spec, theta, **kwargs)
    except CertificateBudgetError as exc:
        raise CliError(str(exc)) from exc
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
        except (OSError, KeyError, ValueError) as exc:
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
        polish=not args.no_polish,
        require_stability=args.require_stable,
        guard_override=args.guard_override,
        seed=args.seed,
    )
    try:
        result = fit_mle(spec, series, box=box, opts=opts)
    except (ValueError, DomainError) as exc:
        raise CliError(str(exc)) from exc
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
    if fitted.get("family") != args.family:
        raise CliError(
            f"family mismatch: theta file has {fitted.get('family')!r}, flags say {args.family!r}"
        )
    order = fitted.get("order", {})
    args.p = int(order.get("p", args.p))
    args.q = int(order.get("q", args.q))
    spec = _build_spec_orders(args)
    names = param_names(spec)
    try:
        theta = unpack_params(spec, [fitted["theta_hat"][name] for name in names])
    except KeyError as exc:
        raise CliError(f"theta file is missing coordinate {exc}") from exc
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
MC_FIT_KEYS = ("starts", "polish", "guard_override", "max_evals")


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise CliError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def cmd_mc_consistency(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read config {args.config}: {exc}") from exc
    raw = _json_object(raw, "config")

    ns = argparse.Namespace(
        family=raw.get("family"),
        omega=None,
        a=None,
        b=None,
        r=None,
        gamma=None,
        xi_dim=raw.get("xi_dim", 1),
        feature=raw.get("feature", ["abs"]),
        aleph=raw.get("aleph"),
        sigma=raw.get("sigma", 1.0),
    )
    theta_raw = _json_object(raw.get("theta_star", {}), "config 'theta_star'")
    ns.omega = theta_raw.get("omega")
    ns.a = theta_raw.get("a")
    ns.b = theta_raw.get("b")
    ns.r = theta_raw.get("r")
    ns.gamma = theta_raw.get("gamma")
    if ns.family not in (LOGLIN, NBIN, PARX):
        raise CliError(f"config family must be one of {(LOGLIN, NBIN, PARX)}")
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
    overrides = {key: fit_raw[key] for key in MC_FIT_KEYS if key in fit_raw}
    try:  # each value is cast to its default's type: int for the counts, bool for the flags
        fit_opts = FitOptions(**{k: type(getattr(FitOptions, k))(v) for k, v in overrides.items()})
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad 'fit' in config: {exc}") from exc
    try:
        config = ExperimentConfig(
            spec=spec,
            theta_star=theta_star,
            ns=tuple(int(v) for v in sizes),
            replicates=int(replicates),
            seed=int(seed),
            box=box,
            fit_opts=fit_opts,
            burn_in=int(raw.get("burn_in", ExperimentConfig.burn_in)),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from exc

    try:
        report = run_mc_consistency(config)
    except ValueError as exc:  # e.g. a malformed ODMLAB_THREADS
        raise CliError(str(exc)) from exc
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
    pf.add_argument("--data", required=True)
    pf.add_argument("--box-file", default=None)
    pf.add_argument("--pin", action="append", default=None, help="pin a coordinate, e.g. a1=0")
    pf.add_argument("--starts", type=int, default=FitOptions.starts)
    pf.add_argument("--max-evals", type=int, default=FitOptions.max_evals)
    pf.add_argument("--seed", type=int, default=FitOptions.seed)
    pf.add_argument("--no-polish", action="store_true")
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
