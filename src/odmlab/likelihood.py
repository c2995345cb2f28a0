"""Exact conditional log-likelihood and its gradient, the same code for every family.

With omega, the observation lags, the PARX feature term and (for k <= p) the
initial window collected in d_k, the latents x_1..x_n solve the banded unit
lower-triangular system x_k - sum_i a_i x_{k-i} = d_k; the first observation
only conditions the recursion.  The family's record in :mod:`odmlab.families`
supplies the rest.  :func:`loglik` runs the model's one sequential recursion
(the arithmetic of :func:`~odmlab.model.iterate_latent`), the families' term
pass at each term (the scalar formula's bits on every term that is not NaN)
and sums the terms in order; that matches a brute-force recomputation to
1e-12 absolute on explosive log-linear totals (up to 1e96).  The pass counts
its clamps, and only :func:`loglik` warns of them.  A private vectorized
kernel solves the system with LAPACK ``dtbtrs``, takes the total, d ln g / dx
and where they are defined from the record, and the gradient from one
transposed solve for the adjoint weights; the optimizer and
:func:`grad_loglik` use it, and it agrees with :func:`loglik` to rounding.
It loads scipy on its first call.  Both cost O(n * (p + q)).  One private
prepared form of (series, initial window) feeds the sequential pass, the
kernel and the forecast: a fit reduces once.  Each reader builds only the
fields it reads, and takes every count from one table, the distinct counts
and each term's index into them (one sort): the forecast reads the window
and the reduced observations, the term pass gathers y and the count-only
head, and the kernel adds its design matrix, the multiplicities and the
exact ln y! sum, a ``DomainError`` where that sum overflows a double (the
sequential pass's sum then reads -inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .families import (_FAMILIES, _Family, _load_scipy, _log_terms, _warn_clamped,
                       covariate_log_density, lnfact)
from .model import (
    DomainError,
    LatentWindow,
    ModelSpec,
    ObservationSeries,
    ParameterVector,
    _PATH_LOOP,
    _latent_path,
    _scalar_window,
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
    the log-linear terms whose latent was clamped to [-745, 700] before
    exponentiation, and ``first_clamped`` is the first such k (0 if none);
    :func:`loglik` and ``fit_mle`` warn once about a pass that clamps.
    """

    normalized: float
    total: float
    n: int
    per_term: Optional[tuple[float, ...]] = None
    latent_path: Optional[tuple[float, ...]] = None
    bad_term: Optional[int] = None
    clamped: int = 0
    first_clamped: int = 0


@dataclass(frozen=True)
class _Prepared:
    """A series and its initial window, reduced once for every parameter point.

    Every family is prepared the same way, and numpy builds each field with no
    loop over the observations.  The kernel and the term pass read the arrays;
    the latent recursion of the sequential pass and of the forecast iterates
    them in place through memoryviews, which yield the doubles without a list
    copy.  The stored fields and ``u`` hold all that the forecast reads.  The
    rest are built on first use from one table of the counts: one sort of
    y_1..y_n gives ``distinct`` and ``index``, which the term pass and the
    kernel read, and the log-linear ``u``; ``_mult``, ``lnf_sum`` and
    ``matrix`` are the kernel's alone.
    """

    n: int
    fam: _Family
    obs: np.ndarray  # the counts y_0..y_n
    feats: Optional[np.ndarray]  # PARX: (d, n + 1), column k is the feature row f_k
    xw0: tuple[float, ...]
    uw0: tuple[float, ...]
    covariates: Optional[np.ndarray]  # PARX: xi_0..xi_n

    @cached_property
    def y(self) -> np.ndarray:  # y_1..y_n
        return self.obs[1:]

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(self.y, return_inverse=True)

    @property
    def distinct(self) -> np.ndarray:  # the distinct counts of y_1..y_n
        return self._table[0]

    @property
    def index(self) -> np.ndarray:  # y_k is distinct[index[k - 1]]
        return self._table[1]

    @cached_property
    def u(self) -> np.ndarray:  # reduced observations u_0..u_n; u = y: the counts
        if not self.fam.log1p:
            return self.obs
        # ln(1 + y) once per distinct count, by math.log1p, which np.log1p does
        # not match bit for bit
        logs = np.array([math.log1p(v) for v in self.distinct.tolist()])
        return np.concatenate(([math.log1p(self.obs[0])], logs[self.index]))

    @cached_property
    def _mult(self) -> np.ndarray:  # each distinct count's multiplicity, a float for the kernel
        return np.bincount(self.index, minlength=self.distinct.size).astype(float)

    @cached_property
    def lnf_sum(self) -> float:
        # fsum rounds the exact sum once, so m copies of ln(v!) may enter as the
        # exact parts ln(v!) * 2^k, one per set bit k of m: the bits of the fsum
        # over the n terms (m * ln(v!) would round first)
        parts = []
        try:
            for v, m in zip(self.distinct.tolist(), map(int, self._mult.tolist())):
                term = lnfact(int(v))
                parts += [math.ldexp(term, k) for k in range(m.bit_length()) if m >> k & 1]
            return math.fsum(parts)
        except OverflowError:  # a part, or the sum itself, beyond the largest double
            raise DomainError("the sum of ln y! over the counts overflows a double") from None

    # (n, dim): row k - 1 is d_k's coefficient on each packed parameter:
    # 1 | x_{k-i} from the initial window, else 0 | u_{k-j} | 0 (shape r) | f_{k-1}
    @cached_property
    def matrix(self) -> np.ndarray:
        n, p, q = self.n, len(self.xw0), len(self.uw0) + 1
        xext = np.concatenate((self.xw0, np.zeros(n)))  # x_{1-p}..x_0, 0, ...
        uext = np.concatenate((self.uw0, self.u[:n]))  # u_{1-q}..u_{n-1}
        columns = [np.ones(n)] + [xext[p - i : p - i + n] for i in range(1, p + 1)]
        columns += [uext[q - j : q - j + n] for j in range(1, q + 1)]
        if self.fam.shape:
            columns.append(np.zeros(n))
        if self.feats is not None:
            columns.extend(self.feats[:, :n])
        return np.column_stack(columns)

    def latent_path(self, theta: ParameterVector, m: int, loop: str = _PATH_LOOP):
        """x_1..x_m by the sequential recursion, for m <= n + 1; x_m alone with ``_LAST_LOOP``."""
        f = () if self.feats is None else map(memoryview, self.feats[:, :m])
        return _latent_path(theta, self.xw0, self.uw0, memoryview(self.u[:m]), f, loop)


def _prepare(
    spec: ModelSpec, z_init: LatentWindow, series: ObservationSeries, min_n: int = 1
) -> _Prepared:
    validate_window(spec, z_init)
    check_series(spec, series)
    if series.n < min_n:  # the forecast alone takes n = 0
        raise ValueError("need at least two observations (n >= 1 likelihood terms)")
    cov = series.covariates
    feats = None if spec.parx is None else spec.parx.features(cov)
    return _Prepared(series.n, _FAMILIES[spec.family], series.y, feats,
                     *_scalar_window(spec, z_init), cov)


def _loglik_prepared(
    spec: ModelSpec,
    theta: ParameterVector,
    prep: _Prepared,
    keep_path: bool,
    include_covariate_density: bool,
) -> LikelihoodValue:
    n = prep.n
    xs = prep.latent_path(theta, n)
    values, clamped, first = _log_terms(spec.family, theta.r, xs, prep.distinct, prep.index)
    if include_covariate_density:
        values += covariate_log_density(spec, prep.covariates[:-1], prep.covariates[1:])
    finite = np.isfinite(values)
    bad = None if finite.all() else int(finite.argmin()) + 1
    # np.cumsum adds in order, so its last entry is the sequential sum; a sum
    # that overflows reads -inf, like the loop's
    with np.errstate(over="ignore"):
        total = -math.inf if bad else float(np.cumsum(values)[-1])
    return LikelihoodValue(
        normalized=total / n,
        total=total,
        n=n,
        per_term=tuple(values[:bad].tolist()) if keep_path else None,
        latent_path=(prep.xw0[-1], *xs) if keep_path else None,
        bad_term=bad,
        clamped=clamped,
        first_clamped=first,
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
    if include_covariate_density and spec.parx is None:
        raise ValueError("covariate density applies to PARX only")
    prep = _prepare(spec, z_init, series)
    value = _loglik_prepared(spec, theta, prep, keep_path, include_covariate_density)
    _warn_clamped(value)
    return value


@np.errstate(over="ignore", invalid="ignore")  # a sum or derivative overflows to inf, like the loop
def _kernel(prep: _Prepared, vec: np.ndarray, grad: bool = False):
    """Vectorized (total, gradient) at the packed point ``vec``.

    The total is -inf where it is not finite.  The gradient is that of the
    normalized log-likelihood, or None without ``grad``.  ``vec`` must
    satisfy the family constraints (the caller validates or clips into the
    box); clamping is silent here.  Outside the family's ``defined`` domain
    (a clamped log-linear latent, or one not positive and finite for NBIN and
    PARX) ``grad`` raises ``GradientUndefinedError``.
    """
    dtbtrs = _load_scipy()[0]
    n, p, fam = prep.n, len(prep.xw0), prep.fam
    ab = np.empty((n, p + 1)).T  # Fortran-ordered band: row i holds -a_i
    ab[1:] = -vec[1 : 1 + p, None]
    x = dtbtrs(ab, prep.matrix @ vec, uplo="L", diag="U")[0]
    total, dens, shape_grad = fam.kernel(prep, x, vec)
    # The family constraints keep a latent >= 0 at or above omega > 0, so a
    # latent outside the density's domain is non-finite and so is the total.
    total = float(total) - prep.lnf_sum
    if not math.isfinite(total):
        total = -math.inf
    if not grad:
        return total, None
    if not (ok := fam.defined(x)).all():
        k = int(np.argmin(ok))
        raise GradientUndefinedError(f"latent {float(x[k])!r} at term {k + 1} makes the "
                                     "gradient undefined")
    lam = dtbtrs(ab, dens, uplo="L", trans="T", diag="U")[0]
    g = lam @ prep.matrix
    for i in range(1, min(p, n - 1) + 1):  # the a-columns' part on the path
        g[i] += lam[i:] @ x[: n - i]
    if shape_grad is not None:
        g[-1] = shape_grad
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
