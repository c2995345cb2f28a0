"""The family table: each family written once, as one private record.

A model is an affine latent recursion plus an observation kernel, and the
families differ only in their :class:`_Family` records, which every module
reads instead of testing a family's name:

* ``loglin``: u = ln(1 + y), a real latent, counts Poisson(e^x), x clamped;
* ``nbin``: u = y, a latent >= 0, counts negative binomial, shape r, mean r*x;
* ``parx``: u = y, an intensity >= 0, counts Poisson(x), and covariates from an
  autonomous Gaussian VAR(1), whose density is parameter-free: a fit leaves it out.

Each count log-density is written once, as a head that reads the count and a
part that reads the latent, run by the private term pass ``_log_terms``.  It
calls ``math``'s transcendentals once per term and does the arithmetic around
them on arrays in the scalar formula's order, so each term has the scalar
formula's bits on Python floats (a NaN term's sign bit is not kept).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import rng as rngmod

if TYPE_CHECKING:
    from .model import ModelSpec, ParameterVector

LOGLIN = "loglin"
NBIN = "nbin"
PARX = "parx"

# Poisson log-density clamps the latent here before exponentiating; outside
# this range e^x would under/overflow a double.
CLAMP_LO = -745.0
CLAMP_HI = 700.0
# the forecast's pmf covers at most this many counts, and its mean at most this
# many: scipy's quantile and the pmf both cost time or memory linear in the mean
PMF_SUPPORT_MAX = 10**6
# NBIN's gamma factors are drawn this many at a time: the stream does not depend
# on it, and a small block keeps a long simulation's memory flat
_GAMMA_CHUNK = 4096
_POS_FLOOR = 1e-8  # the fit's hard floor for strictly positive coordinates
# the log-linear simulator's top: the largest double whose exp, the Poisson mean, is <= 4e18
_LOGLIN_HI = math.log(4.0e18)
while math.exp(_LOGLIN_HI) > 4.0e18:
    _LOGLIN_HI = math.nextafter(_LOGLIN_HI, -math.inf)

_LNFACT_TABLE_SIZE = 257
_lnfact_table = [0.0] * _LNFACT_TABLE_SIZE
for _k in range(2, _LNFACT_TABLE_SIZE):
    _lnfact_table[_k] = _lnfact_table[_k - 1] + math.log(_k)


class DomainError(ValueError):
    """An argument is outside the family's domain."""


class ClampWarning(RuntimeWarning):
    """The latent was clamped before exponentiation."""


def _warn_clamped(value) -> None:
    """Warn once, at the public call's caller, about a likelihood pass that clamped."""
    if value.clamped:
        warnings.warn(f"{value.clamped} of {value.n} latent values clamped to [{CLAMP_LO:.0f}, "
                      f"{CLAMP_HI:.0f}] before exponentiation, the first at term "
                      f"{value.first_clamped}", ClampWarning, stacklevel=3)


@cache
def _load_scipy():
    """The kernel's (dtbtrs, gammaln, digamma): scipy imports slower than numpy and odmlab."""
    from scipy import special
    from scipy.linalg import lapack

    return lapack.dtbtrs, special.gammaln, special.digamma


def check_count(y) -> None:
    """Raise ``DomainError`` unless ``y`` is a nonnegative integer value with a float64 form."""
    if not 0 <= y < math.inf or y % 1:  # NaN and inf fail before the %
        raise DomainError(f"counts must be nonnegative integers, got {y!r}")
    if y > sys.float_info.max:  # compared exactly: a Python int this large has no float
        raise DomainError("counts must be nonnegative integers with a float64 form, got one "
                          f"above the largest double, {sys.float_info.max:.6g}")


def _lgamma(v: float, what: str) -> float:
    """math.lgamma(v); ``DomainError`` naming ``what`` and v where it overflows a double."""
    try:
        return math.lgamma(v)
    except OverflowError:  # v above about 2.56e305
        raise DomainError(f"ln Gamma({what}) overflows a double at {what} = {v:.6g}") from None


def lnfact(y: int) -> float:
    """ln(y!) -- table lookup for y <= 256, lgamma beyond; ``DomainError`` above about 2.56e305."""
    if y < _LNFACT_TABLE_SIZE:
        return _lnfact_table[y]
    return _lgamma(y + 1.0, "y + 1")


@dataclass(frozen=True)
class PredictiveDistribution:
    """Conditional law of the next count given the latent value.

    ``kind`` is "poisson" (with ``mean``) or "negbinomial" (shape ``r``,
    success odds x/(1+x) where x = mean / r).
    """

    kind: str
    mean: float
    r: Optional[float] = None

    def _check_mean(self) -> None:
        if not 0.0 <= self.mean < math.inf:
            raise DomainError(f"predictive mean must be finite and >= 0, got {self.mean}")
        if self.mean > PMF_SUPPORT_MAX:
            raise DomainError(f"predictive mean {self.mean:.6g} is above the largest "
                              f"forecast support, {PMF_SUPPORT_MAX} counts")

    def quantile(self, prob: float) -> int:
        """Smallest y with CDF(y) >= prob."""
        from scipy import stats  # slow to import, and only the forecast needs it
        self._check_mean()  # scipy's ppf slows down or fails far beyond the cap
        if self.kind == "poisson":
            y = stats.poisson.ppf(prob, self.mean)
        else:
            y = stats.nbinom.ppf(prob, self.r, 1.0 / (1.0 + self.mean / self.r))
        if not math.isfinite(y):
            raise DomainError(f"quantile {prob} of the predictive law at mean "
                              f"{self.mean:.6g} is not finite")
        return int(y)

    def pmf_values(self, y_max: int) -> np.ndarray:
        """P(Y = y) for y = 0..y_max."""
        self._check_mean()
        if y_max + 1 > PMF_SUPPORT_MAX:
            raise DomainError(f"pmf support of {y_max + 1} counts is above the largest "
                              f"forecast support, {PMF_SUPPORT_MAX} counts")
        # Poisson(m) is the PARX law at x = m, and NB(r, m) the NBIN law at x = m / r
        family, x = (PARX, self.mean) if self.kind == "poisson" else (NBIN, self.mean / self.r)
        terms = _log_terms(family, self.r, [x] * (y_max + 1), np.arange(y_max + 1.0))[0]
        return np.fromiter(map(math.exp, terms.tolist()), float, y_max + 1)


@dataclass(frozen=True)
class _Family:
    """What one family decides.  Coordinates pack as omega, a, b, then r, then gamma."""

    title: str  # the family in messages
    latent: str  # the latent in a negative-latent message
    log1p: bool  # the reduction: u(y) = ln(1 + y), else u(y) = y
    positive: bool  # latent, window, omega, a, b >= 0, -inf outside (0, inf); else clamped
    shape: bool  # the density has a shape r > 0
    covariates: bool  # takes a ParxConfig: the latent is (intensity, xi), gamma >= 0
    bounds: tuple  # fit._bounds rows of omega, of each of a and b, of each extra coordinate
    safe_range: tuple  # the latents simulate_series draws at
    sampler: Callable  # (theta, seed) -> the count draw at x, unchecked: x must lie in safe_range
    predictive: Callable  # (theta, x in the domain) -> PredictiveDistribution
    log_head: Callable  # (r, counts) -> each count's count-only part of ln g
    log_latent: Callable  # (x, xs, y, head, r) -> the terms at latents x (list xs) in the domain
    kernel: Callable  # (prep, x, vec) -> (total but ln y!, d ln g / dx, r-gradient or None)
    start: Callable  # (spec, mean count, counts) -> the data-informed packed start
    balance: Optional[Callable]  # theta -> the sharp stability sum (< 1); None: the certificate

    def defined(self, x: np.ndarray) -> np.ndarray:  # where ln g and d ln g / dx are defined
        return (0.0 < x) & (x < math.inf) if self.positive else (CLAMP_LO <= x) & (x <= CLAMP_HI)

    def intensity(self, x):
        """The latent the count law reads: a PARX pair's intensity, or ``x``."""
        return x[0] if self.covariates and isinstance(x, tuple) else x


def _each(f, xs) -> np.ndarray:  # math's f per latent: numpy's differ by an ulp
    return np.fromiter(map(f, xs), float, len(xs))


def _lnfact_head(r, counts) -> np.ndarray:  # ln y!, which the Poisson terms subtract
    return np.array([lnfact(int(v)) for v in counts])


def _nbin_head(r, counts) -> np.ndarray:  # ln Gamma(r + y) - ln y! - ln Gamma(r), added
    lgamma_r = _lgamma(r, "r")
    return np.array([_lgamma(r + v, "r + y") - lnfact(int(v)) - lgamma_r for v in counts])


def _nbin_latent(x, xs, y, head, r):
    l1 = _each(math.log1p, xs)
    return (head - r * l1 + y * _each(math.log, xs)) - y * l1


def _loglin_kernel(prep, x, vec):
    xc = np.minimum(np.maximum(x, CLAMP_LO), CLAMP_HI)
    mean = np.exp(xc)
    return prep.y.dot(xc) - mean.sum(), prep.y - mean, None


def _nbin_kernel(prep, x, vec):
    _, gammaln, digamma = _load_scipy()
    n, y, r, vals, mult = prep.n, prep.y, vec[-1], prep.distinct, prep._mult
    l1 = np.log1p(x)
    total = mult.dot(gammaln(r + vals)) - n * gammaln(r) - r * l1.sum() + y.dot(np.log(x) - l1)
    return (total, y / x - (r + y) / (1.0 + x),
            mult.dot(digamma(r + vals)) - n * digamma(r) - l1.sum())


def _loglin_start(spec, ybar, y) -> list:
    a, b = [0.2 / spec.p] * spec.p, [0.2 / spec.q] * spec.q
    return [math.log1p(ybar) * (1.0 - sum(a) - sum(b)), *a, *b]


def _nbin_start(spec, ybar, y) -> list:
    p, q = spec.p, spec.q
    with np.errstate(over="ignore"):  # counts above about 1e154: the variance reads inf
        yvar = float(np.var(y))
    xbar = max(yvar / max(ybar, 1e-6) - 1.0, 0.1)
    r0 = max(ybar / xbar, 1e-2)
    a = [0.2 / p] * p
    b = [0.2 / (q * max(r0, 1.0))] * q
    return [max(xbar * (1.0 - sum(a) - r0 * sum(b)), 1e-3), *a, *b, r0]


def _parx_start(spec, ybar, y) -> list:
    a, b = [0.2 / spec.p] * spec.p, [0.2 / spec.q] * spec.q
    return [max(ybar * (1.0 - sum(a) - sum(b)), 1e-3), *a, *b, *[0.1] * spec.parx.d]


def _loglin_sampler(theta, seed):
    poisson, exp = rngmod.substream(seed, rngmod.OBSERVATION).poisson, math.exp
    return lambda x: int(poisson(exp(x)))


def _nbin_sampler(theta, seed):  # the gamma-Poisson mixture: any real shape, one factor a step
    poisson = rngmod.substream(seed, rngmod.OBSERVATION).poisson
    gammas, r = rngmod.substream(seed, rngmod.GAMMA).standard_gamma, theta.r
    # x * standard_gamma(r) is gamma(r, x) bit for bit, and at x = 0 it is 0
    factor = chain.from_iterable(iter(lambda: gammas(r, _GAMMA_CHUNK).tolist(), None)).__next__
    return lambda x: int(poisson(x * factor()))


def _poisson_sampler(theta, seed):
    poisson = rngmod.substream(seed, rngmod.OBSERVATION).poisson
    return lambda x: int(poisson(x))


_INF = math.inf
_POSITIVE_BOUNDS = ((_POS_FLOOR, _INF, 1e-4, 50.0), (0.0, _INF, 0.0, 1.0))
_FAMILIES = {
    LOGLIN: _Family(
        "log-linear", "log-linear latent", log1p=True, positive=False, shape=False,
        covariates=False, bounds=((-_INF, _INF, -5.0, 5.0), (-_INF, _INF, -1.0, 1.0), None),
        safe_range=(-1e3, _LOGLIN_HI), sampler=_loglin_sampler,
        predictive=lambda theta, x: PredictiveDistribution("poisson", math.exp(x)),
        log_head=_lnfact_head,
        log_latent=lambda x, xs, y, head, r: (-_each(math.exp, xs) + y * x) - head,
        kernel=_loglin_kernel, start=_loglin_start, balance=None,
    ),
    NBIN: _Family(
        "NBIN", "NBIN latent", log1p=False, positive=True, shape=True, covariates=False,
        bounds=(*_POSITIVE_BOUNDS, (_POS_FLOOR, _INF, 1e-2, 50.0)),
        safe_range=(0.0, 1e12), sampler=_nbin_sampler,
        predictive=lambda theta, x: PredictiveDistribution("negbinomial", theta.r * x, theta.r),
        log_head=_nbin_head, log_latent=_nbin_latent, kernel=_nbin_kernel, start=_nbin_start,
        balance=lambda theta: sum(theta.a) + theta.r * sum(theta.b),
    ),
    PARX: _Family(
        "PARX", "PARX intensity", log1p=False, positive=True, shape=False, covariates=True,
        bounds=(*_POSITIVE_BOUNDS, (0.0, _INF, 0.0, 10.0)),
        safe_range=(0.0, 1e12), sampler=_poisson_sampler,
        predictive=lambda theta, x: PredictiveDistribution("poisson", float(x)),
        log_head=_lnfact_head,
        log_latent=lambda x, xs, y, head, r: (-x + y * _each(math.log, xs)) - head,
        kernel=lambda prep, x, vec: (prep.y.dot(np.log(x)) - x.sum(), prep.y / x - 1.0, None),
        start=_parx_start,
        balance=lambda theta: sum(theta.a) + sum(theta.b),
    ),
}
FAMILIES = tuple(_FAMILIES)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing term reads as inf, like a float
def _log_terms(family: str, r, xs: list, distinct, index=None):
    """ln g(x_k; y_k) for each term in order: (terms array, clamped, first clamped k or 0).

    It never warns.  ``xs`` is a list of latents and ``r`` the NBIN shape.
    y_k is ``distinct[index[k]]`` (without ``index``, ``distinct[k]``), and
    the count-only head is computed once per distinct count, then gathered.
    A real latent is clamped to [CLAMP_LO, CLAMP_HI] and NaN passes through;
    a latent >= 0 gives -inf outside (0, inf), and 0 at x = 0 with y = 0.
    """
    fam = _FAMILIES[family]
    x = np.fromiter(xs, float, len(xs))
    y = np.asarray(distinct, dtype=float)
    head = fam.log_head(r, y.tolist())
    if index is not None:
        y, head = y[index], head[index]
    if not fam.positive:
        out = (x < CLAMP_LO) | (x > CLAMP_HI)  # NaN passes through
        clamped = int(np.count_nonzero(out))
        if clamped:
            x = np.clip(x, CLAMP_LO, CLAMP_HI)
            xs = x.tolist()
        return fam.log_latent(x, xs, y, head, r), clamped, int(out.argmax()) + 1 if clamped else 0
    out = ~fam.defined(x)
    masked = out.any()
    if masked:
        xs = np.where(out, 1.0, x).tolist()  # math.log raises at 0
    terms = fam.log_latent(x, xs, y, head, r)
    if masked:
        terms[out] = np.where((x[out] == 0.0) & (y[out] == 0.0), 0.0, -math.inf)
    return terms, 0, 0


def _in_domain(fam: _Family, x):
    """``x``'s intensity, checked >= 0, or clamped to [CLAMP_LO, CLAMP_HI] with a warning."""
    x = fam.intensity(x)
    if fam.positive:
        if x < 0.0:
            raise DomainError(f"{fam.latent} must be >= 0, got {x}")
    elif not (CLAMP_LO <= x <= CLAMP_HI or math.isnan(x)):
        warnings.warn(f"latent {x:.6g} clamped to [{CLAMP_LO:.0f}, {CLAMP_HI:.0f}] before "
                      "exponentiation", ClampWarning, stacklevel=3)
        return CLAMP_LO if x < CLAMP_LO else CLAMP_HI
    return x


def log_density(spec: ModelSpec, theta: ParameterVector, x, y: int) -> float:
    """ln g(x; y), the conditional count log-density at latent ``x``.

    For PARX, ``x`` is the intensity or the pair (intensity, xi) that
    :func:`~odmlab.model.link_step` returns, and the covariate density is
    left out (see :func:`covariate_log_density`).  NBIN and PARX at x = 0
    with y > 0, or at x = inf or NaN, return -inf.
    """
    check_count(y)
    y = int(y)
    fam = _FAMILIES[spec.family]
    return _log_terms(spec.family, theta.r, [_in_domain(fam, x)], [y])[0].item()


def covariate_log_density(spec: ModelSpec, xi_prev, xi_next):
    """Gaussian VAR(1) transition log-density of the PARX covariates.

    Rows broadcast: two covariate vectors give a float, two (m, r) arrays m values.
    """
    if spec.parx is None:
        raise DomainError("covariate density is defined for PARX only")
    cfg = spec.parx
    resid = np.subtract(xi_next, np.asarray(xi_prev, dtype=float) @ cfg.aleph_matrix().T)
    s2 = cfg.sigma * cfg.sigma
    out = -0.5 * cfg.r_dim * math.log(2.0 * math.pi * s2) - np.square(resid).sum(-1) / (2.0 * s2)
    return float(out) if out.ndim == 0 else out


def predictive(spec: ModelSpec, theta: ParameterVector, x) -> PredictiveDistribution:
    """The conditional law of the next count at latent ``x`` (PARX: as in :func:`log_density`)."""
    fam = _FAMILIES[spec.family]
    return fam.predictive(theta, _in_domain(fam, x))
