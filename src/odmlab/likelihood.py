"""Exact conditional log-likelihood and its gradient.

With omega, the observation lags, the PARX feature term and (for k <= p) the
initial window collected in d_k, the latents x_1..x_n solve the banded unit
lower-triangular system x_k - sum_i a_i x_{k-i} = d_k; the first observation
only conditions the recursion.  :func:`loglik` takes the latent path from
the model's one sequential recursion (the same arithmetic as
:func:`~odmlab.model.iterate_latent`), then evaluates the family's density
at each term and sums the terms in order; that alone matches a brute-force
recomputation to 1e-12 absolute on explosive log-linear totals (up to 1e96).
A private vectorized kernel solves the system with LAPACK ``dtbtrs`` and
gets the gradient from one transposed solve for the adjoint weights; the
optimizer and :func:`grad_loglik` use it, and its value agrees with
:func:`loglik` to rounding.  Both cost O(n * (p + q)).  Private prepared
forms of (series, initial window) let the optimizer and the forecast reuse
the reduced data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.special import digamma, gammaln

from .families import CLAMP_HI, CLAMP_LO, ClampWarning, covariate_log_density, lnfact
from .model import (
    LOGLIN,
    NBIN,
    PARX,
    LatentWindow,
    ModelSpec,
    ObservationSeries,
    ParameterVector,
    _latent_path,
    check_series,
    pack_params,
    unpack_params,
    validate_params,
    validate_window,
)


class GradientUndefinedError(ValueError):
    """The log-likelihood is -inf (or non-finite) at this point."""


@dataclass(frozen=True)
class LikelihoodValue:
    """Normalized and total conditional log-likelihood with diagnostics.

    ``per_term`` holds the n per-observation terms and ``latent_path`` the
    n + 1 latent values x_0..x_n (intensity component for PARX); both are
    dropped in streaming mode.  ``bad_term`` names the first k whose term is
    -inf or non-finite, in which case ``total`` is -inf and ``per_term``
    stops at term k; ``latent_path`` is always whole.  ``clamped`` counts
    the log-linear terms whose latent was clamped to [CLAMP_LO, CLAMP_HI]
    before exponentiation; a pass that clamps warns once.
    """

    normalized: float
    total: float
    n: int
    per_term: Optional[tuple[float, ...]] = None
    latent_path: Optional[tuple[float, ...]] = None
    bad_term: Optional[int] = None
    clamped: int = 0


@dataclass(frozen=True)
class _Prepared:
    """Reduced data and seed buffers, independent of the parameter point."""

    n: int
    y: tuple[int, ...]
    u: tuple[float, ...]  # reduced observations; PARX: the counts
    feats: Optional[tuple[tuple[float, ...], ...]]  # PARX feature rows
    lnf: tuple[float, ...]  # ln(y_k!) for k = 1..n
    xw0: tuple[float, ...]
    uw0: tuple[float, ...]
    covariates: Optional[tuple[tuple[float, ...], ...]]


def _prepare(spec: ModelSpec, z_init: LatentWindow, series: ObservationSeries) -> _Prepared:
    validate_window(spec, z_init)
    check_series(spec, series)
    n = series.n
    y = tuple(int(v) for v in series.y)
    cache: dict[int, float] = {}
    for v in y:
        if v not in cache:
            cache[v] = lnfact(v)
    lnf = tuple(cache[v] for v in y[1:])
    if spec.family == LOGLIN:
        u = tuple(math.log1p(v) for v in y)
    else:
        u = tuple(float(v) for v in y)
    if spec.family == PARX:
        feats = tuple(spec.parx.feature_values(row) for row in series.covariates)
        xw0 = tuple(e[0] for e in z_init.x)
        uw0 = tuple(e[0] for e in z_init.u)
        return _Prepared(n, y, u, feats, lnf, xw0, uw0, series.covariates)
    return _Prepared(n, y, u, None, lnf, tuple(z_init.x), tuple(z_init.u), None)


def _require_terms(n: int) -> None:
    if n < 1:
        raise ValueError("need at least two observations (n >= 1 likelihood terms)")


@dataclass(frozen=True)
class _Design:
    """The vectorized kernel's arrays for one prepared series."""

    n: int
    p: int
    family: str
    # (n, dim): row k - 1 is d_k's coefficient on each packed parameter:
    # 1 | x_{k-i} from the initial window, else 0 | u_{k-j} | 0 (NBIN r) | f_{k-1}
    matrix: np.ndarray
    y: np.ndarray  # y_1..y_n
    lnf_sum: float
    counts: Optional[tuple[np.ndarray, np.ndarray]]  # NBIN: distinct y_k, multiplicities


def _design(spec: ModelSpec, prep: _Prepared) -> _Design:
    n, p, q = prep.n, spec.p, spec.q
    _require_terms(n)
    matrix = np.zeros((n, 1 + p + q + (spec.family == NBIN)))
    matrix[:, 0] = 1.0
    for k in range(1, min(p, n) + 1):
        for i in range(k, p + 1):
            matrix[k - 1, i] = prep.xw0[k - i - 1]
    ext = np.array(prep.uw0 + prep.u[:n])  # u_{1-q}..u_{n-1}
    for j in range(1, q + 1):
        matrix[:, p + j] = ext[q - j : q - j + n]
    if prep.feats is not None:
        matrix = np.hstack((matrix, prep.feats[:n]))
    y = np.array(prep.y[1:], dtype=float)
    counts = None
    if spec.family == NBIN:
        vals, mult = np.unique(y, return_counts=True)
        counts = (vals, mult.astype(float))
    return _Design(n, p, spec.family, matrix, y, math.fsum(prep.lnf), counts)


def _loglik_prepared(
    spec: ModelSpec,
    theta: ParameterVector,
    prep: _Prepared,
    keep_path: bool,
    include_covariate_density: bool,
) -> LikelihoodValue:
    n, lnf = prep.n, prep.lnf
    _require_terms(n)
    xs = _latent_path(theta, prep.xw0, prep.uw0, prep.u[:n], prep.feats)
    ys = prep.y[1:]
    terms = []
    add = terms.append
    clamped = first_clamped = 0
    log = math.log
    inf = math.inf
    if spec.family == LOGLIN:
        exp = math.exp
        for x, yk, lf in zip(xs, ys, lnf):
            if not CLAMP_LO <= x <= CLAMP_HI and x == x:  # NaN passes through
                clamped += 1
                first_clamped = first_clamped or len(terms) + 1  # this term's k
                x = CLAMP_LO if x < CLAMP_LO else CLAMP_HI
            add(-exp(x) + yk * x - lf)
    elif spec.family == NBIN:
        r = theta.r
        log1p = math.log1p
        lgamma_r = math.lgamma(r)
        # Per distinct count: lgamma(r + y) - ln y! - lgamma(r), associated
        # exactly as in families.log_density.
        head = {v: math.lgamma(r + v) - lnfact(v) - lgamma_r for v in set(ys)}
        for x, yk in zip(xs, ys):
            if 0.0 < x < inf:
                l1 = log1p(x)
                add(head[yk] - r * l1 + yk * log(x) - yk * l1)
            else:
                add(0.0 if x == 0.0 and yk == 0 else -inf)
    else:  # PARX
        for x, yk, lf in zip(xs, ys, lnf):
            if 0.0 < x < inf:
                add(-x + yk * log(x) - lf)
            else:
                add(0.0 if x == 0.0 and yk == 0 else -inf)
        if include_covariate_density:
            cov = prep.covariates
            terms = [
                t + covariate_log_density(spec, cov[k], cov[k + 1]) for k, t in enumerate(terms)
            ]

    # np.cumsum adds in order, so its last entry is the sequential sum
    values = np.array(terms)
    finite = np.isfinite(values)
    bad = None if finite.all() else int(finite.argmin()) + 1
    total = -inf if bad else float(np.cumsum(values)[-1])
    if clamped:
        warnings.warn(
            f"{clamped} of {n} latent values clamped to [{CLAMP_LO:.0f}, {CLAMP_HI:.0f}] "
            f"before exponentiation, the first at term {first_clamped}",
            ClampWarning,
            stacklevel=3,
        )
    return LikelihoodValue(
        normalized=total / n,
        total=total,
        n=n,
        per_term=tuple(terms[:bad]) if keep_path else None,
        latent_path=(prep.xw0[-1], *xs) if keep_path else None,
        bad_term=bad,
        clamped=clamped,
    )


def loglik(
    spec: ModelSpec,
    theta: ParameterVector,
    z_init: LatentWindow,
    series: ObservationSeries,
    keep_path: bool = True,
    include_covariate_density: bool = False,
) -> LikelihoodValue:
    """Conditional log-likelihood of ``series`` given the initial window.

    ``include_covariate_density`` (PARX only) re-adds the parameter-free
    covariate transition terms for total log-likelihood reporting; it shifts
    the value by a constant in theta and never moves the maximizer.
    """
    validate_params(spec, theta)
    if include_covariate_density and spec.family != PARX:
        raise ValueError("covariate density applies to PARX only")
    prep = _prepare(spec, z_init, series)
    return _loglik_prepared(spec, theta, prep, keep_path, include_covariate_density)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing sum reads as -inf, like the loop
def _kernel(des: _Design, vec: np.ndarray, grad: bool = False):
    """Vectorized (total, gradient) at the packed point ``vec``.

    The total is -inf where it is not finite.  The gradient is that of the
    normalized log-likelihood, or None without ``grad``.  ``vec`` must
    satisfy the family constraints (the caller validates or clips into the
    box); clamping is silent here.  Where the gradient is undefined (a
    clamped log-linear latent, or a latent that is not positive and finite
    for NBIN and PARX) ``grad`` raises ``GradientUndefinedError``.
    """
    n, p, fam, y = des.n, des.p, des.family, des.y
    ab = np.empty((n, p + 1)).T  # Fortran-ordered band: row i holds -a_i
    ab[1:] = -vec[1 : 1 + p, None]
    x = dtbtrs(ab, des.matrix @ vec, uplo="L", diag="U")[0]
    if fam == LOGLIN:
        xc = np.minimum(np.maximum(x, CLAMP_LO), CLAMP_HI)
        mean = np.exp(xc)
        total = y.dot(xc) - mean.sum()
    elif fam == NBIN:
        r = vec[-1]
        vals, mult = des.counts
        l1 = np.log1p(x)
        total = mult.dot(gammaln(r + vals)) - n * gammaln(r) - r * l1.sum() + y.dot(np.log(x) - l1)
    else:
        total = y.dot(np.log(x)) - x.sum()
    # The family constraints keep NBIN and PARX latents >= omega > 0, so a
    # latent outside the density's domain is non-finite and so is the total.
    total = float(total) - des.lnf_sum
    if not math.isfinite(total):
        total = -math.inf
    if not grad:
        return total, None
    ok = (xc == x) if fam == LOGLIN else (x > 0.0) & (x < math.inf)  # NaN fails both
    if not ok.all():
        k = int(np.argmin(ok))
        why = ("is clamped; gradient undefined there" if fam == LOGLIN
               else "makes the gradient undefined")
        raise GradientUndefinedError(f"latent {float(x[k])!r} at term {k + 1} {why}")
    if fam == LOGLIN:
        dens = y - mean
    elif fam == NBIN:
        dens = y / x - (r + y) / (1.0 + x)
    else:
        dens = y / x - 1.0
    lam = dtbtrs(ab, dens, uplo="L", trans="T", diag="U")[0]
    g = lam @ des.matrix
    for i in range(1, min(p, n - 1) + 1):  # the a-columns' part on the path
        g[i] += lam[i:] @ x[: n - i]
    if fam == NBIN:
        g[-1] = mult.dot(digamma(r + vals)) - n * digamma(r) - l1.sum()
    return total, g / n


def grad_loglik(
    spec: ModelSpec,
    theta: ParameterVector,
    z_init: LatentWindow,
    series: ObservationSeries,
) -> np.ndarray:
    """Exact gradient of the normalized log-likelihood in packed order.

    Packed order is (omega, a_1..a_p, b_1..b_q, r | gamma_1..gamma_d).  The
    latent derivative recursion is seeded at zero (the initial window does
    not depend on the parameters); the NBIN shape enters only through the
    per-term density derivative.
    """
    validate_params(spec, theta)
    des = _design(spec, _prepare(spec, z_init, series))
    return _kernel(des, pack_params(spec, theta), grad=True)[1]


def finite_diff_grad(
    spec: ModelSpec,
    theta: ParameterVector,
    z_init: LatentWindow,
    series: ObservationSeries,
    step: Optional[float] = None,
) -> np.ndarray:
    """Central finite differences of the normalized log-likelihood.

    Deliberately independent of :func:`grad_loglik`; per-coordinate step
    defaults to 1e-6 * (1 + |theta_j|).
    """
    vec = pack_params(spec, theta)
    out = np.zeros_like(vec)
    for j in range(len(vec)):
        h = step if step is not None else 1e-6 * (1.0 + abs(vec[j]))
        hi = vec.copy()
        lo = vec.copy()
        hi[j] += h
        lo[j] -= h
        f_hi = loglik(spec, unpack_params(spec, hi), z_init, series, keep_path=False)
        f_lo = loglik(spec, unpack_params(spec, lo), z_init, series, keep_path=False)
        out[j] = (f_hi.normalized - f_lo.normalized) / (2.0 * h)
    return out
