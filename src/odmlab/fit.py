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
:func:`loglik` at the estimate bit for bit.  Clamping warns at most once, and
only when the pass at the estimate clamps.  The search and the re-ranking
share one prepared form of the series; the forecast runs the same
sequential recursion over its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng as rngmod
from .conditions import ConditionReport, check_model
from .families import ClampWarning, PredictiveDistribution, predictive
from .likelihood import (
    GradientUndefinedError,
    LikelihoodValue,
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
    _count_mean,
    _integer,
    default_initial_window,
    iterate_latent,  # unused here; bench/tracing.py wraps odmlab.fit.iterate_latent
    pack_params,
    param_names,
    unpack_params,
    validate_params,
)

_POS_FLOOR = 1e-8  # hard floor for strictly positive coordinates
# The simplex stops when its values spread by less than TOL_VALUE and its
# diameter is below TOL_SIMPLEX relative to 1 + the best vertex's max-norm.
TOL_VALUE = 1e-8
TOL_SIMPLEX = 1e-6


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
    polish: bool = True
    polish_max_iter: int = 200
    require_stability: bool = False
    guard_override: bool = False
    seed: int = 0

    def __post_init__(self):
        for what in ("starts", "max_evals", "polish_max_iter", "seed"):
            _integer(getattr(self, what), what)


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
            "trace": [asdict(t) for t in self.trace],
        }


def _first_primes(count: int) -> list[int]:
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _quasi_random_points(dim: int, count: int) -> np.ndarray:
    """The first ``count`` Halton points in ``dim`` dims, one prime base per dim."""
    # radical inverses of 1..count, one base digit per pass over the array
    bases = np.array(_first_primes(dim), dtype=np.int64)
    i = np.tile(np.arange(1, count + 1)[:, None], dim)
    f = 1.0 / bases
    pts = np.zeros((count, dim))
    while i.any():
        pts += f * (i % bases)
        i //= bases
        f /= bases
    return pts


def _data_informed_start(spec: ModelSpec, series: ObservationSeries, box: ThetaBox) -> np.ndarray:
    p, q = spec.p, spec.q
    ybar = _count_mean(series)
    if spec.family == LOGLIN:
        a = [0.2 / p] * p
        b = [0.2 / q] * q
        omega = math.log1p(ybar) * (1.0 - sum(a) - sum(b))
        vec = [omega, *a, *b]
    elif spec.family == NBIN:
        yvar = float(np.var(series.y))
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


@np.errstate(invalid="ignore")  # a spread of inf - inf is NaN and fails the stopping test
def _nelder_mead(fn, x0, lo, hi, max_evals):
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

    step = 0.05 * (hi - lo)
    step = np.where(np.isfinite(step) & (step != 0.0), step, 0.05 * np.maximum(1.0, np.abs(x0)))
    sim = np.tile(x0, (d + 1, 1))
    diag = np.arange(d)
    sim[diag + 1, diag] = np.where(x0 + step <= hi, x0 + step, x0 - step)
    sim = np.minimum(np.maximum(sim, lo), hi)
    fs = np.array([f(v) for v in sim])

    converged = False
    while evals < max_evals:
        order = np.argsort(fs, kind="stable")
        sim, fs = sim[order], fs[order]
        spread = fs[-1] - fs[0]
        diam = float(np.max(np.abs(sim[1:] - sim[0])))
        rel = 1.0 + float(np.max(np.abs(sim[0])))
        if spread < TOL_VALUE and diam < TOL_SIMPLEX * rel:
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
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fs[1:] = [f(v) for v in sim[1:]]
    best = int(np.argmin(fs))  # the first minimum, as a stable sort would put first
    return np.minimum(np.maximum(sim[best], lo), hi), fs[best], evals, converged


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

    def expand(v_active: np.ndarray) -> np.ndarray:
        full = base.copy()
        full[active] = v_active
        return full

    # Every point evaluated below is inside the box: the simplex and the polish
    # project their active coordinates, and the pinned ones are the center's.
    def objective_full(full: np.ndarray) -> float:  # the kernel's total is finite or -inf
        return -_kernel(prep, full)[0] / prep.n

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
        starts_full.append(box.clip(pack_params(spec, extra)))

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
                opts.max_evals,
            )
            if opts.polish and math.isfinite(fb):
                xb, _, polish_status = _projected_gradient(
                    lambda v: -objective_full(expand(v)),
                    lambda v: _kernel(prep, expand(v), grad=True)[1][active],
                    xb,
                    lo_a,
                    hi_a,
                    opts.polish_max_iter,
                )
            final_full = expand(xb)
        theta = unpack_params(spec, final_full)
        with warnings.catch_warnings():  # only the estimate's pass may warn, below
            warnings.simplefilter("ignore", ClampWarning)
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
    value = values[best.start_index]
    if value.clamped:  # the same pass again, this time warning about the estimate
        value = _loglik_prepared(spec, theta_hat, prep, False, False)
    report = check_model(spec, theta_hat)
    return FitResult(
        theta_hat=theta_hat,
        loglik=value,
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
    prep = _prepare(spec, z_init, series, min_n=0)
    x_next = prep.latent_path(theta, prep.n + 1)[-1]
    return predictive(spec, theta, x_next)
