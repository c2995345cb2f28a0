"""Maximum likelihood over a compact box, plus one-step forecasting.

The optimizer is multistart local search: from each start, one projected
quasi-Newton search on the negative normalized log-likelihood and its exact
gradient.  It is implemented here rather than delegated so that box
projection, the rejection of points where the likelihood or its gradient is
undefined, and tie-breaking are explicit, and every seeded run is
bit-reproducible.  Coordinates whose box is a single point are pinned and
excluded from the search.

The search evaluates the likelihood's vectorized kernel, which agrees with
the sequential pass to rounding.  Each start leaves one record: its trace,
the exact sequential pass at its final point, and, under
``require_stability``, its final's stability report.  The sequential values
rank the starts and the winner's record supplies the result, so the reported
log-likelihood equals :func:`loglik` at the estimate bit for bit and no
final is audited twice.  The passes warn of nothing; the fit warns once,
from the winner's record, if the pass at the estimate clamped.  The search
and the re-ranking share one prepared form; the forecast runs the same
sequential recursion over its own, keeping only the last latent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng as rngmod
from .conditions import ConditionReport, check_model
from .families import _FAMILIES, PredictiveDistribution, _warn_clamped, predictive
from .likelihood import (
    GradientUndefinedError,
    LikelihoodValue,
    _kernel,
    _loglik_prepared,
    _prepare,
    loglik,  # unused here; bench/tracing.py wraps odmlab.fit.loglik
)
from .model import (
    LatentWindow,
    ModelSpec,
    ObservationSeries,
    ParameterVector,
    _LAST_LOOP,
    _count_mean,
    _integer,
    default_initial_window,
    iterate_latent,  # unused here; bench/tracing.py wraps odmlab.fit.iterate_latent
    pack_params,
    param_names,
    unpack_params,
    validate_params,
)

# The search converges when the projected gradient's max-norm is at most
# TOL_PGRAD, or an accepted step lowers the objective by at most TOL_REL
# relative to max(1, |value|).  The objective is the normalized negative
# log-likelihood, so both tolerances are per term.
TOL_PGRAD = 1e-10
TOL_REL = 1e-15
ARMIJO = 1e-4  # share of the first-order decrease a step must achieve
MAX_HALVINGS = 20
EPS_BIND = 1e-3  # cap on the distance at which a pressed coordinate counts as bound
CURVATURE = 1e-10  # an update needs s.y above this times |s| |y|


class FitFailureError(RuntimeError):
    """No start is finite, or none of the finite ones passes the stability check."""


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


def _bounds(spec: ModelSpec) -> np.ndarray:
    """Rows: hard lower, hard upper, default lower, default upper of each packed coordinate."""
    omega, coef, extra = _FAMILIES[spec.family].bounds
    extras = len(param_names(spec)) - 1 - spec.p - spec.q
    return np.array([omega, *[coef] * (spec.p + spec.q), *[extra] * extras]).T


def make_box(spec: ModelSpec, lower: Sequence[float], upper: Sequence[float]) -> ThetaBox:
    """Build a box for ``spec``, intersecting the family hard constraints."""
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    hard_lo, hard_hi = _bounds(spec)[:2]
    if lo.shape != hard_lo.shape:
        raise ValueError(f"box must have {hard_lo.size} coordinates, got {lo.size}")
    lo = np.maximum(lo, hard_lo)
    hi = np.minimum(hi, hard_hi)
    return ThetaBox(lower=tuple(float(v) for v in lo), upper=tuple(float(v) for v in hi))


def default_box(spec: ModelSpec) -> ThetaBox:
    """Generous per-family defaults bracketing the stability regions."""
    return make_box(spec, *_bounds(spec)[2:])


@dataclass(frozen=True)
class FitOptions:
    starts: int = 8
    extra_starts: tuple = ()  # ParameterVector candidates evaluated as extra starts
    max_evals: int = 4000  # value-and-gradient evaluations per start
    polish_max_iter: int = 200  # iterations of each start's search
    require_stability: bool = False
    guard_override: bool = False
    seed: int = 0

    def __post_init__(self):
        for what, least in (("starts", 1), ("max_evals", 1), ("polish_max_iter", 0)):
            if (value := _integer(getattr(self, what), what)) < least:
                raise ValueError(f"{what} must be >= {least}, got {value}")
        _integer(self.seed, "seed")
        for what in ("require_stability", "guard_override"):
            if not isinstance(getattr(self, what), bool):
                raise ValueError(f"{what} must be True or False, got {getattr(self, what)!r}")


@dataclass(frozen=True)
class StartTrace:
    start_index: int
    initial: tuple[float, ...]
    final: tuple[float, ...]
    value: float
    evals: int  # value-and-gradient evaluations
    converged: bool
    polish: str  # "skipped" when the search rejected its start, else "ok"
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
    converged: bool
    condition_report: ConditionReport
    trace: tuple[StartTrace, ...]

    @property
    def starts(self) -> int:
        """The number of starts searched, one trace entry each."""
        return len(self.trace)

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


@np.errstate(over="ignore", invalid="ignore")  # a huge gradient's products read inf or NaN
def _projected_bfgs(fg, x0, lo, hi, max_iter, max_evals):
    """Minimize over the box [lo, hi] by projected quasi-Newton search.

    The method is Bertsekas's (SIAM J. Control Optim. 20, 1982): a dense
    BFGS inverse Hessian steers the free coordinates, those the gradient
    does not press against a box face, while the pressed ones take steepest
    descent into their face.  An Armijo backtrack runs along the projection
    arc, starting from twice the last accepted step.  ``fg(x)`` returns
    (value, gradient); a non-finite value or a raised
    ``GradientUndefinedError`` rejects the point.  Returns (x, evals, iters,
    converged, status), where status is "skipped" when the start itself is
    rejected and x is then the start, else "ok".
    """
    evals = 0

    def evaluate(x):
        nonlocal evals
        evals += 1
        try:
            f, g = fg(x)
        except GradientUndefinedError:
            return None
        return (f, g) if math.isfinite(f) else None

    x = x0.copy()
    first = evaluate(x)
    if first is None:
        return x, evals, 0, False, "skipped"
    f, g = first
    inv_h = np.eye(x.size)
    fresh = True  # inv_h is the identity: scale it at the next update
    t_last = 0.5  # so that the first trial step is 1
    iters = 0
    while True:
        pg_norm = float(np.max(np.abs(np.minimum(np.maximum(x - g, lo), hi) - x), initial=0.0))
        if pg_norm <= TOL_PGRAD:
            return x, evals, iters, True, "ok"
        if iters >= max_iter or evals >= max_evals:
            return x, evals, iters, False, "ok"
        eps = min(EPS_BIND, pg_norm)
        free = ~(((x <= lo + eps) & (g > 0.0)) | ((x >= hi - eps) & (g < 0.0)))
        g_free = np.where(free, g, 0.0)  # inv_h @ g_free is inv_h's free block times g's
        d = np.where(free, -(inv_h @ g_free), -g)
        if not g_free @ d < 0.0:
            inv_h, fresh, d = np.eye(x.size), True, -g
        t = min(1.0, 2.0 * t_last)
        trial = None
        for _ in range(MAX_HALVINGS + 1):
            xt = np.minimum(np.maximum(x + t * d, lo), hi)
            slope = float(g @ (xt - x))
            if not slope < 0.0 or evals >= max_evals:
                break
            trial = evaluate(xt)
            if trial is not None and trial[0] <= f + ARMIJO * slope:
                break
            trial = None
            t *= 0.5
        if trial is None:  # the backtrack failed: retry once by steepest descent
            if fresh or evals >= max_evals:
                return x, evals, iters, False, "ok"
            inv_h, fresh = np.eye(x.size), True
            continue
        ft, gt = trial
        s, y = xt - x, gt - g
        sy = float(s @ y)
        yy = float(y @ y)
        if sy > CURVATURE * math.sqrt(float(s @ s) * yy):
            if fresh:
                inv_h *= sy / yy
                fresh = False
            hy = inv_h @ y
            u = s / sy
            inv_h += np.outer(u, (1.0 + float(y @ hy) / sy) * s - hy) - np.outer(hy, u)
        iters += 1
        decrease = f - ft
        x, f, g, t_last = xt, ft, gt, t
        if decrease <= TOL_REL * max(1.0, abs(f)):
            return x, evals, iters, True, "ok"


def fit_mle(
    spec: ModelSpec,
    series: ObservationSeries,
    box: Optional[ThetaBox] = None,
    opts: Optional[FitOptions] = None,
) -> FitResult:
    """Maximize the conditional log-likelihood over the box.

    Starts are the box center, a data-informed point, quasi-random fill-ins,
    and any ``opts.extra_starts``; each runs one projected quasi-Newton
    search and leaves one record.  Under ``require_stability`` the search
    runs from the passing starts (all when none passes) and excludes the
    finals that do not pass.  The best final value wins, ties broken by
    lowest start index.  Raises ``FitFailureError`` when every start is
    non-finite, or every finite one fails ``require_stability``.
    """
    opts = opts or FitOptions()
    box = box or default_box(spec)
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

    # Start list, each start clipped into the box here and only here: center,
    # data-informed, quasi-random, then user extras.  The quasi-random block is
    # a Halton set under a seeded rotation (the start jitter substream), so
    # starts are low-discrepancy yet seed-dependent.
    informed = _FAMILIES[spec.family].start(spec, _count_mean(series), series.y)
    starts = [base, np.array(informed, dtype=float)][: opts.starts]
    n_quasi = opts.starts - len(starts)
    if n_quasi and active.any():
        shift = rngmod.substream(opts.seed, rngmod.JITTER).random(int(active.sum()))
        unit = (_quasi_random_points(int(active.sum()), n_quasi) + shift) % 1.0
        starts += [expand(lower[active] + row * (upper[active] - lower[active])) for row in unit]
    starts += [pack_params(spec, extra) for extra in opts.extra_starts]
    starts = [box.clip(v) for v in starts]
    if opts.require_stability:  # search the passing starts, or all when none passes
        starts = [v for v in starts if check_model(spec, unpack_params(spec, v)).passed] or starts

    def value_grad(v: np.ndarray):
        total, grad = _kernel(prep, expand(v), grad=True)
        return -total / prep.n, -grad[active]

    records = []  # per start: its trace, its sequential value, its final's report or None
    for idx, start in enumerate(starts):
        xb, evals, _, converged, status = _projected_bfgs(
            value_grad, start[active], lower[active], upper[active],
            opts.polish_max_iter, opts.max_evals,
        )
        final = expand(xb)
        theta = unpack_params(spec, final)
        value = _loglik_prepared(spec, theta, prep, False, False)
        finite = math.isfinite(value.normalized)
        report = check_model(spec, theta) if opts.require_stability and finite else None
        trace = StartTrace(
            start_index=idx,
            initial=tuple(float(v) for v in start),
            final=tuple(float(v) for v in final),
            value=value.normalized if finite else -math.inf,
            evals=evals,
            converged=converged,
            polish=status,
            excluded=report is not None and not report.passed,
        )
        records.append((trace, value, report))

    candidates = [r for r in records if math.isfinite(r[0].value) and not r[0].excluded]
    if not candidates:
        cause = ("every start with a finite objective was excluded by the stability check"
                 if any(r[0].excluded for r in records)
                 else "every start produced a non-finite objective")
        raise FitFailureError(
            f"{cause}; check the data/box pairing (family {spec.family}, n = {series.n})"
        )
    best, value, report = max(candidates, key=lambda r: (r[0].value, -r[0].start_index))
    theta_hat = unpack_params(spec, best.final)
    validate_params(spec, theta_hat)
    _warn_clamped(value)
    return FitResult(
        theta_hat=theta_hat,
        loglik=value,
        converged=best.converged,
        condition_report=report or check_model(spec, theta_hat),
        trace=tuple(r[0] for r in records),
    )


def forecast_one_step(
    spec: ModelSpec,
    theta: ParameterVector,
    z_init: LatentWindow,
    series: ObservationSeries,
) -> PredictiveDistribution:
    """Predictive law of the next count after the observed series.

    Runs the latent recursion over all n + 1 observations, keeping only its
    last latent, so a series of one observation (n = 0) forecasts too.  It
    builds no ln y!, so a count whose ln y! overflows a double (above about
    2.56e305), where the likelihood raises ``DomainError``, does not stop it.
    """
    validate_params(spec, theta)
    prep = _prepare(spec, z_init, series, min_n=0)
    x_next = prep.latent_path(theta, prep.n + 1, _LAST_LOOP)
    return predictive(spec, theta, x_next)
