"""Maximum likelihood over a compact box, plus one-step forecasting.

The optimizer is multistart local search: a derivative-free simplex descent
on the negative normalized log-likelihood followed by a projected-gradient
polish using the exact gradient.  It is implemented here rather than
delegated so that box projection and tie-breaking are explicit and every
seeded run is bit-reproducible.  Coordinates whose box is a single point are
pinned and excluded from the search.

The search evaluates the likelihood's vectorized kernel, which agrees with
the sequential pass to rounding.  Each start's final point is then
re-evaluated once by the exact sequential pass; those values rank the
starts, and the winner's is reported, so the reported log-likelihood equals
:func:`loglik` at the estimate bit for bit.  The forecast runs the same
sequential recursion over the prepared data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng as rngmod
from .conditions import ConditionReport, check_model
from .families import PredictiveDistribution, predictive
from .likelihood import (
    GradientUndefinedError,
    LikelihoodValue,
    _design,
    _kernel,
    _loglik_prepared,
    _prepare,
    loglik,  # unused here; bench/tracing.py wraps odmlab.fit.loglik
)
from .model import (
    LOGLIN,
    NBIN,
    LatentWindow,
    ModelSpec,
    ObservationSeries,
    ParameterVector,
    _latent_path,
    default_initial_window,
    iterate_latent,  # unused here; bench/tracing.py wraps odmlab.fit.iterate_latent
    pack_params,
    param_names,
    unpack_params,
    validate_params,
)

_POS_FLOOR = 1e-8  # hard floor for strictly positive coordinates


class FitFailureError(RuntimeError):
    """Every start produced a non-finite objective."""


@dataclass(frozen=True)
class ThetaBox:
    """Per-coordinate bounds on the packed parameter vector.

    Family hard constraints (positivity of omega, nonnegativity of a, b,
    gamma, positivity of r) are intersected in at construction.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("bound lengths differ")
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ValueError(f"empty box: lower {lo} > upper {hi}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def clip(self, vec: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(vec, self.lower), self.upper)

    def contains(self, vec: np.ndarray, tol: float = 0.0) -> bool:
        return bool(
            np.all(np.asarray(vec) >= np.asarray(self.lower) - tol)
            and np.all(np.asarray(vec) <= np.asarray(self.upper) + tol)
        )

    def center(self) -> np.ndarray:
        return (np.asarray(self.lower) + np.asarray(self.upper)) / 2.0


def _hard_bounds(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    p, q = spec.p, spec.q
    if spec.family == LOGLIN:
        lo = [-math.inf] * (1 + p + q)
        hi = [math.inf] * (1 + p + q)
    elif spec.family == NBIN:
        lo = [_POS_FLOOR] + [0.0] * (p + q) + [_POS_FLOOR]
        hi = [math.inf] * (2 + p + q)
    else:
        lo = [_POS_FLOOR] + [0.0] * (p + q + spec.parx.d)
        hi = [math.inf] * (1 + p + q + spec.parx.d)
    return np.array(lo), np.array(hi)


def make_box(spec: ModelSpec, lower: Sequence[float], upper: Sequence[float]) -> ThetaBox:
    """Build a box for ``spec``, intersecting the family hard constraints."""
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    hard_lo, hard_hi = _hard_bounds(spec)
    if lo.shape != hard_lo.shape:
        raise ValueError(f"box must have {hard_lo.size} coordinates, got {lo.size}")
    lo = np.maximum(lo, hard_lo)
    hi = np.minimum(hi, hard_hi)
    return ThetaBox(lower=tuple(float(v) for v in lo), upper=tuple(float(v) for v in hi))


def default_box(spec: ModelSpec) -> ThetaBox:
    """Generous per-family defaults bracketing the stability regions."""
    p, q = spec.p, spec.q
    if spec.family == LOGLIN:
        lo = [-5.0] + [-1.0] * (p + q)
        hi = [5.0] + [1.0] * (p + q)
    elif spec.family == NBIN:
        lo = [1e-4] + [0.0] * (p + q) + [1e-2]
        hi = [50.0] + [1.0] * (p + q) + [50.0]
    else:
        lo = [1e-4] + [0.0] * (p + q) + [0.0] * spec.parx.d
        hi = [50.0] + [1.0] * (p + q) + [10.0] * spec.parx.d
    return make_box(spec, lo, hi)


@dataclass(frozen=True)
class FitOptions:
    starts: int = 8
    extra_starts: tuple = ()  # ParameterVector candidates evaluated as extra starts
    max_evals: int = 4000
    tol_value: float = 1e-8
    tol_simplex: float = 1e-6
    polish: bool = True
    polish_max_iter: int = 200
    require_stability: bool = False
    guard_override: bool = False
    seed: int = 0


@dataclass(frozen=True)
class StartTrace:
    start_index: int
    initial: tuple[float, ...]
    final: tuple[float, ...]
    value: float
    evals: int
    converged: bool
    polish: str  # "ok" | "skipped" | "off"
    excluded: bool = False

    def to_dict(self) -> dict:
        return {
            "start_index": self.start_index,
            "initial": list(self.initial),
            "final": list(self.final),
            "value": self.value,
            "evals": self.evals,
            "converged": self.converged,
            "polish": self.polish,
            "excluded": self.excluded,
        }


@dataclass(frozen=True)
class FitResult:
    """The estimate, its log-likelihood and the per-start trace.

    ``loglik`` is computed in streaming mode and holds no per-term values or
    latent path; call :func:`loglik` with ``keep_path=True`` at ``theta_hat``
    for those.
    """

    theta_hat: ParameterVector
    loglik: LikelihoodValue
    starts: int
    converged: bool
    condition_report: ConditionReport
    trace: tuple[StartTrace, ...]

    def to_dict(self, spec: ModelSpec) -> dict:
        names = param_names(spec)
        packed = pack_params(spec, self.theta_hat)
        return {
            "theta_hat": {name: float(v) for name, v in zip(names, packed)},
            "loglik": {
                "normalized": self.loglik.normalized,
                "total": self.loglik.total,
                "n": self.loglik.n,
            },
            "starts": self.starts,
            "converged": self.converged,
            "condition_report": self.condition_report.to_dict(),
            "trace": [t.to_dict() for t in self.trace],
        }


_HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _halton(index: int, base: int) -> float:
    # radical-inverse sequence; index >= 1
    result = 0.0
    f = 1.0 / base
    i = index
    while i > 0:
        result += f * (i % base)
        i //= base
        f /= base
    return result


def _quasi_random_points(dim: int, count: int) -> np.ndarray:
    if dim > len(_HALTON_PRIMES):
        raise ValueError(f"quasi-random starts support at most {len(_HALTON_PRIMES)} dims")
    pts = np.empty((count, dim))
    for i in range(count):
        for j in range(dim):
            pts[i, j] = _halton(i + 1, _HALTON_PRIMES[j])
    return pts


def _data_informed_start(spec: ModelSpec, series: ObservationSeries, box: ThetaBox) -> np.ndarray:
    p, q = spec.p, spec.q
    ybar = sum(series.y) / len(series.y)
    if spec.family == LOGLIN:
        a = [0.2 / p] * p
        b = [0.2 / q] * q
        omega = math.log1p(ybar) * (1.0 - sum(a) - sum(b))
        vec = [omega, *a, *b]
    elif spec.family == NBIN:
        yvar = float(np.var(np.asarray(series.y, dtype=float)))
        xbar = max(yvar / max(ybar, 1e-6) - 1.0, 0.1)
        r0 = max(ybar / xbar, 1e-2)
        a = [0.2 / p] * p
        b = [0.2 / (q * max(r0, 1.0))] * q
        omega = max(xbar * (1.0 - sum(a) - r0 * sum(b)), 1e-3)
        vec = [omega, *a, *b, r0]
    else:
        d = spec.parx.d
        a = [0.2 / p] * p
        b = [0.2 / q] * q
        omega = max(ybar * (1.0 - sum(a) - sum(b)), 1e-3)
        vec = [omega, *a, *b] + [0.1] * d
    return box.clip(np.array(vec, dtype=float))


def _nelder_mead(fn, x0, lo, hi, tol_value, tol_x, max_evals):
    """Minimize fn over the box via the classic simplex method.

    Vertices are projected into the box before every evaluation.  Returns
    (best_x, best_f, evals, converged).
    """
    d = x0.size
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return fn(np.minimum(np.maximum(x, lo), hi))

    sim = [x0.copy()]
    for j in range(d):
        step = 0.05 * (hi[j] - lo[j])
        if not math.isfinite(step) or step == 0.0:
            step = 0.05 * max(1.0, abs(x0[j]))
        v = x0.copy()
        v[j] = v[j] + step if v[j] + step <= hi[j] else v[j] - step
        sim.append(v)
    sim = [np.minimum(np.maximum(v, lo), hi) for v in sim]
    fs = [f(v) for v in sim]

    converged = False
    while evals < max_evals:
        order = sorted(range(d + 1), key=lambda i: fs[i])
        sim = [sim[i] for i in order]
        fs = [fs[i] for i in order]
        spread = fs[-1] - fs[0]
        diam = max(float(np.max(np.abs(v - sim[0]))) for v in sim[1:]) if d else 0.0
        rel = 1.0 + float(np.max(np.abs(sim[0])))
        if spread < tol_value and diam < tol_x * rel:
            converged = True
            break
        centroid = np.mean(sim[:-1], axis=0)
        xr = centroid + (centroid - sim[-1])
        fr = f(xr)
        if fr < fs[0]:
            xe = centroid + 2.0 * (centroid - sim[-1])
            fe = f(xe)
            if fe < fr:
                sim[-1], fs[-1] = xe, fe
            else:
                sim[-1], fs[-1] = xr, fr
        elif fr < fs[-2]:
            sim[-1], fs[-1] = xr, fr
        else:
            if fr < fs[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (sim[-1] - centroid)
            fc = f(xc)
            if fc < min(fr, fs[-1]):
                sim[-1], fs[-1] = xc, fc
            else:
                for i in range(1, d + 1):
                    sim[i] = sim[0] + 0.5 * (sim[i] - sim[0])
                    fs[i] = f(sim[i])
    order = sorted(range(d + 1), key=lambda i: fs[i])
    best = np.minimum(np.maximum(sim[order[0]], lo), hi)
    return best, fs[order[0]], evals, converged


def _projected_gradient(value_fn, grad_fn, x0, lo, hi, max_iter):
    """Maximize via projected gradient ascent with an adaptive step.

    Returns (x, value, status) where status is "ok" or "skipped" (non-finite
    gradient before any progress).
    """
    x = x0.copy()
    fx = value_fn(x)
    step = 0.1
    status = "ok"
    progressed = False
    for _ in range(max_iter):
        try:
            g = grad_fn(x)
        except GradientUndefinedError:
            g = None
        if g is None or not np.all(np.isfinite(g)):
            if not progressed:
                status = "skipped"
            break
        if float(np.max(np.abs(g))) < 1e-11:
            break
        moved = False
        while step >= 1e-14:
            cand = np.minimum(np.maximum(x + step * g, lo), hi)
            if np.array_equal(cand, x):
                break
            fc = value_fn(cand)
            if fc > fx:
                improvement = fc - fx
                x, fx = cand, fc
                step *= 1.5
                moved = True
                progressed = True
                if improvement < 1e-14 * (1.0 + abs(fx)):
                    return x, fx, status
                break
            step *= 0.5
        if not moved:
            break
    return x, fx, status


def fit_mle(
    spec: ModelSpec,
    series: ObservationSeries,
    box: Optional[ThetaBox] = None,
    z_init: Optional[LatentWindow] = None,
    opts: Optional[FitOptions] = None,
) -> FitResult:
    """Maximize the conditional log-likelihood over the box.

    Starts are the box center, a data-informed point, quasi-random fill-ins,
    and any ``opts.extra_starts``; each runs simplex descent then (by
    default) a projected-gradient polish.  The best final value wins, ties
    broken by lowest start index.  Raises ``FitFailureError`` when every
    start is non-finite.
    """
    opts = opts or FitOptions()
    box = box or default_box(spec)
    if z_init is None:
        z_init = default_initial_window(spec, series)
    dim = pack_params(spec, unpack_params(spec, box.lower)).size  # validates length
    guard = 10 * dim
    if series.n < guard and not opts.guard_override:
        raise ValueError(
            f"series has n = {series.n} likelihood terms < {guard} (10 x dim); "
            "pass guard_override=True to fit anyway"
        )

    lower = np.asarray(box.lower)
    upper = np.asarray(box.upper)
    active = upper > lower
    base = box.center()
    prep = _prepare(spec, z_init, series)
    des = _design(spec, prep)

    def expand(v_active: np.ndarray) -> np.ndarray:
        full = base.copy()
        full[active] = v_active
        return full

    def clip(full: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(full, lower), upper)

    def objective_full(full: np.ndarray) -> float:
        total = _kernel(des, clip(full))[0]
        return -total / des.n if math.isfinite(total) else math.inf

    # Start list: center, data-informed, quasi-random, then user extras.  The
    # quasi-random block is a Halton set under a seeded rotation (the start
    # jitter substream), so starts are low-discrepancy yet seed-dependent.
    starts_full = [base.copy(), _data_informed_start(spec, series, box)][: max(opts.starts, 1)]
    n_quasi = max(opts.starts - len(starts_full), 0)
    if n_quasi and active.any():
        shift = rngmod.substream(opts.seed, rngmod.JITTER).random(int(active.sum()))
        unit = (_quasi_random_points(int(active.sum()), n_quasi) + shift) % 1.0
        for row in unit:
            full = base.copy()
            full[active] = lower[active] + row * (upper[active] - lower[active])
            starts_full.append(full)
    for extra in opts.extra_starts:
        vec = extra if isinstance(extra, np.ndarray) else pack_params(spec, extra)
        starts_full.append(box.clip(np.asarray(vec, dtype=float)))

    if opts.require_stability:
        kept = [
            v
            for v in starts_full
            if check_model(spec, unpack_params(spec, box.clip(v))).verdict == "Pass"
        ]
        if kept:
            starts_full = kept

    traces = []
    values = []  # each start's sequential LikelihoodValue, aligned with traces
    for idx, start in enumerate(starts_full):
        start = box.clip(start)
        final_full, evals, converged, polish_status = start, 1, True, "off"
        if active.any():
            lo_a, hi_a = lower[active], upper[active]
            xb, fb, evals, converged = _nelder_mead(
                lambda v: objective_full(expand(v)),
                start[active],
                lo_a,
                hi_a,
                opts.tol_value,
                opts.tol_simplex,
                opts.max_evals,
            )
            if opts.polish and math.isfinite(fb):
                xb, _, polish_status = _projected_gradient(
                    lambda v: -objective_full(expand(v)),
                    lambda v: _kernel(des, clip(expand(v)), grad=True)[1][active],
                    xb,
                    lo_a,
                    hi_a,
                    opts.polish_max_iter,
                )
            final_full = box.clip(expand(xb))
        theta = unpack_params(spec, final_full)
        values.append(_loglik_prepared(spec, theta, prep, False, False))
        value = values[-1].normalized
        if not math.isfinite(value):
            value = -math.inf
        excluded = False
        if opts.require_stability and math.isfinite(value):
            excluded = check_model(spec, theta).verdict != "Pass"
        traces.append(
            StartTrace(
                start_index=idx,
                initial=tuple(float(v) for v in start),
                final=tuple(float(v) for v in final_full),
                value=value,
                evals=evals,
                converged=converged,
                polish=polish_status,
                excluded=excluded,
            )
        )

    candidates = [t for t in traces if not t.excluded and math.isfinite(t.value)]
    if not candidates:
        raise FitFailureError(
            "every start produced a non-finite objective; check the data/box pairing "
            f"(family {spec.family}, n = {series.n})"
        )
    best = max(candidates, key=lambda t: (t.value, -t.start_index))
    theta_hat = unpack_params(spec, best.final)
    validate_params(spec, theta_hat)
    report = check_model(spec, theta_hat)
    return FitResult(
        theta_hat=theta_hat,
        loglik=values[best.start_index],
        starts=len(starts_full),
        converged=best.converged,
        condition_report=report,
        trace=tuple(traces),
    )


def forecast_one_step(
    spec: ModelSpec,
    theta: ParameterVector,
    z_init: LatentWindow,
    series: ObservationSeries,
) -> PredictiveDistribution:
    """Predictive law of the next count after the observed series.

    Runs the latent recursion over all n + 1 observations, so a series of
    one observation (n = 0) forecasts too.
    """
    validate_params(spec, theta)
    prep = _prepare(spec, z_init, series)
    x_next = _latent_path(theta, prep.xw0, prep.uw0, prep.u, prep.feats)[-1]
    return predictive(spec, theta, x_next)
