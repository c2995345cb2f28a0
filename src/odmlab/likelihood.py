"""Exact conditional log-likelihood and its gradient.

With omega, the observation lags, the PARX feature term and (for k <= p) the
initial window collected in d_k, the latents x_1..x_n solve the banded unit
lower-triangular system x_k - sum_i a_i x_{k-i} = d_k; the first observation
only conditions the recursion.  :func:`loglik` takes the latent path from
the model's one sequential recursion (the same arithmetic as
:func:`~odmlab.model.iterate_latent`), then evaluates the family's count
density at each term by the term pass in :mod:`odmlab.families` (its one
copy, with the scalar formula's bits on every term that is not NaN) and sums
the terms in order; that alone matches a brute-force recomputation to 1e-12
absolute on explosive log-linear totals (up to 1e96).
A private vectorized kernel solves the system with LAPACK ``dtbtrs`` and
gets the gradient from one transposed solve for the adjoint weights; the
optimizer and :func:`grad_loglik` use it, and its value agrees with
:func:`loglik` to rounding; it binds its scipy functions on its first call,
so importing odmlab, simulating and auditing never load scipy.  Both cost
O(n * (p + q)).  One private prepared form of (series, initial window),
numpy arrays built with no loop over the observations and iterated in place
by the sequential readers, feeds the sequential pass, the kernel and the
forecast: a fit reduces once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .families import CLAMP_HI, CLAMP_LO, ClampWarning, _log_terms, covariate_log_density, lnfact
from .model import (
    LOGLIN,
    NBIN,
    PARX,
    LatentWindow,
    ModelSpec,
    ObservationSeries,
    ParameterVector,
    _latent_path,
    _scalar_window,
    check_series,
    pack_params,
    unpack_params,
    validate_params,
    validate_window,
)


# the kernel's scipy functions, bound once by _load_scipy: scipy takes longer
# to import than numpy and odmlab together, and only the kernel needs it
dtbtrs = gammaln = digamma = None


def _load_scipy() -> None:
    global dtbtrs, gammaln, digamma
    from scipy import special
    from scipy.linalg import lapack

    dtbtrs, gammaln, digamma = lapack.dtbtrs, special.gammaln, special.digamma


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
    """A series and its initial window, reduced once for every parameter point.

    numpy builds it with no loop over the observations.  The kernel and the
    term pass read the arrays; the latent recursion of the sequential pass and
    of the forecast iterates them in place through memoryviews, which yield
    the doubles without a list copy.  What only the kernel reads is built on
    its first use.
    """

    n: int
    family: str
    y: np.ndarray  # y_1..y_n
    u: np.ndarray  # reduced observations u_0..u_n; PARX: the counts
    feats: Optional[np.ndarray]  # PARX: (d, n + 1), column k is the feature row f_k
    lnf: np.ndarray  # ln(y_k!) for k = 1..n
    distinct: np.ndarray  # the distinct counts; y_k is distinct[index[k]]
    index: np.ndarray
    xw0: tuple[float, ...]
    uw0: tuple[float, ...]
    covariates: Optional[np.ndarray]  # PARX: xi_0..xi_n

    @cached_property
    def lnf_sum(self) -> float:
        return math.fsum(self.lnf.tolist())

    @cached_property
    def counts(self) -> tuple[np.ndarray, np.ndarray]:  # NBIN: distinct y_1..y_n, multiplicities
        mult = np.bincount(self.index[1:], minlength=self.distinct.size)
        return self.distinct[mult > 0], mult[mult > 0].astype(float)

    # (n, dim): row k - 1 is d_k's coefficient on each packed parameter:
    # 1 | x_{k-i} from the initial window, else 0 | u_{k-j} | 0 (NBIN r) | f_{k-1}
    @cached_property
    def matrix(self) -> np.ndarray:
        n, p, q = self.n, len(self.xw0), len(self.uw0) + 1
        xext = np.concatenate((self.xw0, np.zeros(n)))  # x_{1-p}..x_0, 0, ...
        uext = np.concatenate((self.uw0, self.u[:n]))  # u_{1-q}..u_{n-1}
        columns = [np.ones(n)] + [xext[p - i : p - i + n] for i in range(1, p + 1)]
        columns += [uext[q - j : q - j + n] for j in range(1, q + 1)]
        if self.family == NBIN:
            columns.append(np.zeros(n))
        if self.feats is not None:
            columns.extend(self.feats[:, :n])
        return np.column_stack(columns)

    def latent_path(self, theta: ParameterVector, m: int) -> list:
        """x_1..x_m by the sequential recursion, for m <= n + 1."""
        f = () if self.feats is None else map(memoryview, self.feats[:, :m])
        return _latent_path(theta, self.xw0, self.uw0, memoryview(self.u[:m]), f)


def _prepare(
    spec: ModelSpec, z_init: LatentWindow, series: ObservationSeries, min_n: int = 1
) -> _Prepared:
    validate_window(spec, z_init)
    check_series(spec, series)
    n, fam = series.n, spec.family
    if n < min_n:  # the forecast alone takes n = 0
        raise ValueError("need at least two observations (n >= 1 likelihood terms)")
    # ln y! and the loglin u once per distinct count; u by math.log1p, which
    # np.log1p does not match bit for bit
    vals, inv = np.unique(series.y, return_inverse=True)
    u = np.array([math.log1p(v) for v in vals.tolist()])[inv] if fam == LOGLIN else series.y
    lnf = np.array([lnfact(int(v)) for v in vals.tolist()])[inv[1:]]
    xw0, uw0 = _scalar_window(spec, z_init)
    cov = series.covariates
    feats = spec.parx.features(cov) if fam == PARX else None
    return _Prepared(n, fam, series.y[1:], u, feats, lnf, vals, inv, xw0, uw0, cov)


def _loglik_prepared(
    spec: ModelSpec,
    theta: ParameterVector,
    prep: _Prepared,
    keep_path: bool,
    include_covariate_density: bool,
) -> LikelihoodValue:
    n = prep.n
    xs = prep.latent_path(theta, n)
    values, clamped, first_clamped = _log_terms(spec.family, theta.r, xs, prep.y, prep.lnf,
                                                prep.distinct, prep.index[1:])
    if include_covariate_density:
        values += covariate_log_density(spec, prep.covariates[:-1], prep.covariates[1:])
    finite = np.isfinite(values)
    bad = None if finite.all() else int(finite.argmin()) + 1
    # np.cumsum adds in order, so its last entry is the sequential sum
    total = -math.inf if bad else float(np.cumsum(values)[-1])
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
        per_term=tuple(values[:bad].tolist()) if keep_path else None,
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
def _kernel(prep: _Prepared, vec: np.ndarray, grad: bool = False):
    """Vectorized (total, gradient) at the packed point ``vec``.

    The total is -inf where it is not finite.  The gradient is that of the
    normalized log-likelihood, or None without ``grad``.  ``vec`` must
    satisfy the family constraints (the caller validates or clips into the
    box); clamping is silent here.  Where the gradient is undefined (a
    clamped log-linear latent, or a latent that is not positive and finite
    for NBIN and PARX) ``grad`` raises ``GradientUndefinedError``.
    """
    if dtbtrs is None:
        _load_scipy()
    n, p, fam, y = prep.n, len(prep.xw0), prep.family, prep.y
    ab = np.empty((n, p + 1)).T  # Fortran-ordered band: row i holds -a_i
    ab[1:] = -vec[1 : 1 + p, None]
    x = dtbtrs(ab, prep.matrix @ vec, uplo="L", diag="U")[0]
    if fam == LOGLIN:
        xc = np.minimum(np.maximum(x, CLAMP_LO), CLAMP_HI)
        mean = np.exp(xc)
        total = y.dot(xc) - mean.sum()
    elif fam == NBIN:
        r = vec[-1]
        vals, mult = prep.counts
        l1 = np.log1p(x)
        total = mult.dot(gammaln(r + vals)) - n * gammaln(r) - r * l1.sum() + y.dot(np.log(x) - l1)
    else:
        total = y.dot(np.log(x)) - x.sum()
    # The family constraints keep NBIN and PARX latents >= omega > 0, so a
    # latent outside the density's domain is non-finite and so is the total.
    total = float(total) - prep.lnf_sum
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
    g = lam @ prep.matrix
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
    return _kernel(_prepare(spec, z_init, series), pack_params(spec, theta), grad=True)[1]


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
