"""Observation kernels: densities, samplers, and predictive laws.

The latent value parameterizes the count distribution: Poisson with mean e^x
(log-linear), negative binomial with shape r and mean r*x (NBIN), Poisson
with mean x (PARX).  PARX additionally carries an autonomous Gaussian VAR(1)
covariate kernel whose density does not depend on the model parameters, so
it is excluded from the fitting objective by default and can be re-added for
total log-likelihood reporting.  Each family's count log-density is written
once, in the private term pass ``_log_terms``: the likelihood's sequential
pass, :func:`log_density` and the forecast pmf all call it.  It calls
``math``'s transcendentals once per term and does the arithmetic around them
on arrays in the scalar formula's order, so each term has the bits of the
scalar formula on Python floats (a NaN term's sign bit is not kept).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import LOGLIN, NBIN, PARX, DomainError, ModelSpec, ParameterVector, check_count

# Poisson log-density clamps the latent here before exponentiating; outside
# this range e^x would under/overflow a double.
CLAMP_LO = -745.0
CLAMP_HI = 700.0
# the forecast's pmf covers at most this many counts, and its mean at most this
# many: scipy's quantile and the pmf both cost time or memory linear in the mean
PMF_SUPPORT_MAX = 10**6

_LNFACT_TABLE_SIZE = 257
_lnfact_table = [0.0] * _LNFACT_TABLE_SIZE
for _k in range(2, _LNFACT_TABLE_SIZE):
    _lnfact_table[_k] = _lnfact_table[_k - 1] + math.log(_k)


class ClampWarning(RuntimeWarning):
    """The latent was clamped before exponentiation."""


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


def _clamped(x: float) -> float:
    if CLAMP_LO <= x <= CLAMP_HI or math.isnan(x):
        return x
    warnings.warn(
        f"latent {x:.6g} clamped to [{CLAMP_LO:.0f}, {CLAMP_HI:.0f}] before exponentiation",
        ClampWarning,
        stacklevel=3,
    )
    return CLAMP_LO if x < CLAMP_LO else CLAMP_HI


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


@np.errstate(over="ignore", invalid="ignore")  # an overflowing term reads as inf, like a float
def _log_terms(family: str, r, xs: list, distinct, index=None):
    """ln g(x_k; y_k) for each term in order: (terms array, clamped, first clamped k or 0).

    The one copy of each family's count density; it never warns.  ``xs`` is
    a list of latents and ``r`` the NBIN shape.  The counts come as a table:
    y_k is ``distinct[index[k]]`` (without ``index``, ``distinct[k]``), and
    ln(y!) and NBIN's count-only head are computed once per value of
    ``distinct``, then gathered.  Each transcendental is ``math``'s, called
    once per term or per distinct count (numpy's differ from it by an ulp);
    the arithmetic around it runs in numpy in the scalar formula's
    left-to-right order, which rounds the same, so every term has the scalar
    formula's bits (a NaN term's sign may differ).  Log-linear clamps x to
    [CLAMP_LO, CLAMP_HI] and lets NaN through; NBIN and PARX give -inf outside
    (0, inf), and 0 at x = 0 with y = 0.
    """
    n = len(xs)
    x = np.fromiter(xs, float, n)
    y = np.asarray(distinct, dtype=float)
    # each term's count-only part, once per distinct count: ln y! (subtracted),
    # or NBIN's lgamma(r + y) - ln y! - lgamma(r) (added)
    if family == NBIN:
        lgamma_r = _lgamma(r, "r")
        part = np.array([_lgamma(r + v, "r + y") - lnfact(int(v)) - lgamma_r for v in y.tolist()])
    else:
        part = np.array([lnfact(int(v)) for v in y.tolist()])
    if index is not None:
        y, part = y[index], part[index]
    if family == LOGLIN:
        out = (x < CLAMP_LO) | (x > CLAMP_HI)  # NaN passes through
        clamped = int(np.count_nonzero(out))
        if clamped:
            x = np.clip(x, CLAMP_LO, CLAMP_HI)
            xs = x.tolist()
        e = np.fromiter(map(math.exp, xs), float, n)
        return (-e + y * x) - part, clamped, int(out.argmax()) + 1 if clamped else 0
    out = ~((0.0 < x) & (x < math.inf))
    masked = out.any()
    if masked:
        xs = np.where(out, 1.0, x).tolist()  # math.log raises at 0
    lx = np.fromiter(map(math.log, xs), float, n)
    if family == NBIN:
        l1 = np.fromiter(map(math.log1p, xs), float, n)
        terms = (part - r * l1 + y * lx) - y * l1
    else:  # PARX
        terms = (-x + y * lx) - part
    if masked:
        terms[out] = np.where((x[out] == 0.0) & (y[out] == 0.0), 0.0, -math.inf)
    return terms, 0, 0


def log_density(spec: ModelSpec, theta: ParameterVector, x: float, y: int) -> float:
    """ln g(x; y), the conditional count log-density at latent ``x``.

    For PARX this is the Poisson factor only; the covariate transition
    density is parameter-free (see :func:`covariate_log_density`).  NBIN and
    PARX at x = 0 with y > 0, or at x = inf or NaN, return -inf.
    """
    check_count(y)
    y = int(y)
    if spec.family == LOGLIN:
        x = _clamped(x)
    elif x < 0.0:
        what = "NBIN latent" if spec.family == NBIN else "PARX intensity"
        raise DomainError(f"{what} must be >= 0, got {x}")
    return _log_terms(spec.family, theta.r, [x], [y])[0].item()


def covariate_log_density(spec: ModelSpec, xi_prev, xi_next):
    """Gaussian VAR(1) transition log-density of the PARX covariates.

    Rows broadcast: two covariate vectors give a float, two (m, r) arrays m values.
    """
    if spec.family != PARX:
        raise DomainError("covariate density is defined for PARX only")
    cfg = spec.parx
    resid = np.subtract(xi_next, np.asarray(xi_prev, dtype=float) @ cfg.aleph_matrix().T)
    s2 = cfg.sigma * cfg.sigma
    out = -0.5 * cfg.r_dim * math.log(2.0 * math.pi * s2) - np.square(resid).sum(-1) / (2.0 * s2)
    return float(out) if out.ndim == 0 else out


def bind_sampler(spec: ModelSpec, theta: ParameterVector, rng: np.random.Generator):
    """The family's count draw at latent ``x``, bound once to (spec, theta, rng).

    The returned function maps ``x`` to one count.  It checks nothing: ``x``
    must lie in the simulator's safe range (``simulate.SAFE_RANGE``).  Each
    call draws from ``rng`` in a fixed order: NBIN draws gamma, then poisson
    (the gamma-Poisson mixture, so the shape may be any positive real, and no
    gamma at x = 0); the Poisson families draw poisson only.  For PARX, ``x``
    is the intensity component: the covariates do not depend on the counts.
    """
    poisson = rng.poisson
    if spec.family == LOGLIN:
        exp = math.exp
        return lambda x: int(poisson(exp(x)))
    if spec.family == NBIN:
        gamma, r = rng.gamma, theta.r
        return lambda x: int(poisson(gamma(r, x) if x > 0.0 else 0.0))
    return lambda x: int(poisson(x))


def predictive(spec: ModelSpec, theta: ParameterVector, x) -> PredictiveDistribution:
    """The conditional law of the next count at latent ``x``."""
    if spec.family == LOGLIN:
        return PredictiveDistribution(kind="poisson", mean=math.exp(_clamped(x)))
    if spec.family == NBIN:
        if x < 0.0:
            raise DomainError(f"NBIN latent must be >= 0, got {x}")
        return PredictiveDistribution(kind="negbinomial", mean=theta.r * x, r=theta.r)
    intensity = x[0] if isinstance(x, tuple) else x
    if intensity < 0.0:
        raise DomainError(f"PARX intensity must be >= 0, got {intensity}")
    return PredictiveDistribution(kind="poisson", mean=float(intensity))
