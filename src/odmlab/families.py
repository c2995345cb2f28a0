"""Observation kernels: densities, samplers, and predictive laws.

The latent value parameterizes the count distribution: Poisson with mean e^x
(log-linear), negative binomial with shape r and mean r*x (NBIN), Poisson
with mean x (PARX).  PARX additionally carries an autonomous Gaussian VAR(1)
covariate kernel whose density does not depend on the model parameters, so
it is excluded from the fitting objective by default and can be re-added for
total log-likelihood reporting.  Each family's scalar count log-density is
written once, in the private term loop ``_log_terms``: the likelihood's
sequential pass, :func:`log_density` and the forecast pmf all call it.
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

_LNFACT_TABLE_SIZE = 257
_lnfact_table = [0.0] * _LNFACT_TABLE_SIZE
for _k in range(2, _LNFACT_TABLE_SIZE):
    _lnfact_table[_k] = _lnfact_table[_k - 1] + math.log(_k)


class ClampWarning(RuntimeWarning):
    """The latent was clamped before exponentiation."""


def lnfact(y: int) -> float:
    """ln(y!) -- table lookup for y <= 256, lgamma beyond."""
    if y < _LNFACT_TABLE_SIZE:
        return _lnfact_table[y]
    return math.lgamma(y + 1.0)


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

    def quantile(self, prob: float) -> int:
        """Smallest y with CDF(y) >= prob."""
        from scipy import stats  # slow to import, and only the forecast needs it
        if self.kind == "poisson":
            return int(stats.poisson.ppf(prob, self.mean))
        x = self.mean / self.r
        return int(stats.nbinom.ppf(prob, self.r, 1.0 / (1.0 + x)))

    def pmf_values(self, y_max: int) -> np.ndarray:
        """P(Y = y) for y = 0..y_max."""
        if not 0.0 <= self.mean < math.inf:
            raise DomainError(f"predictive mean must be finite and >= 0, got {self.mean}")
        ys = range(y_max + 1)
        # Poisson(m) is the PARX law at x = m, and NB(r, m) the NBIN law at x = m / r
        family, x = (PARX, self.mean) if self.kind == "poisson" else (NBIN, self.mean / self.r)
        terms = _log_terms(family, self.r, [x] * len(ys), ys, [lnfact(y) for y in ys])[0]
        return np.array([math.exp(t) for t in terms])


def _log_terms(family: str, r, xs, ys, lnf, distinct=None):
    """ln g(x_k; y_k) for each term in order: (terms, clamped, first clamped k or 0).

    The one scalar copy of each family's count density; it never warns.
    ``lnf`` holds ln(y_k!) and ``r`` the NBIN shape, whose count-only head is
    computed once per value of ``distinct`` (default ``ys``).  Log-linear
    clamps x to [CLAMP_LO, CLAMP_HI] and lets NaN through; NBIN and PARX give
    -inf outside (0, inf), and 0 at x = 0 with y = 0.
    """
    terms = []
    add = terms.append
    clamped = first_clamped = 0
    log, inf = math.log, math.inf
    if family == LOGLIN:
        exp = math.exp
        for x, yk, lf in zip(xs, ys, lnf):
            if not CLAMP_LO <= x <= CLAMP_HI and x == x:  # NaN passes through
                clamped += 1
                first_clamped = first_clamped or len(terms) + 1  # this term's k
                x = CLAMP_LO if x < CLAMP_LO else CLAMP_HI
            add(-exp(x) + yk * x - lf)
    elif family == NBIN:
        log1p = math.log1p
        lgamma_r = math.lgamma(r)
        # lgamma(r + y) - ln y! - lgamma(r), once per distinct count
        head = {v: math.lgamma(r + v) - lnfact(int(v)) - lgamma_r for v in distinct or ys}
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
    return terms, clamped, first_clamped


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
    return _log_terms(spec.family, theta.r, [x], [y], [lnfact(y)])[0][0]


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

    The returned function maps ``x`` to one count and raises ``DomainError``
    outside the family's domain.  Each call draws from ``rng`` in a fixed
    order: NBIN draws gamma, then poisson (the gamma-Poisson mixture, so the
    shape may be any positive real, and no gamma at x = 0); the Poisson
    families draw poisson only.  For PARX, ``x`` is the intensity component:
    the covariates do not depend on the counts.
    """
    poisson = rng.poisson
    if spec.family == LOGLIN:
        exp = math.exp

        def draw(x):
            if x > CLAMP_HI:
                raise DomainError(
                    f"latent {x:.6g} gives Poisson mean e^x beyond double range; "
                    "run the stability check on these parameters"
                )
            mean = exp(x)
            if mean > 4.0e18:  # sampler rejects larger means
                raise DomainError(
                    f"latent {x:.6g} gives Poisson mean {mean:.3g} beyond the sampler range; "
                    "run the stability check on these parameters"
                )
            return int(poisson(mean))

    elif spec.family == NBIN:
        gamma, r = rng.gamma, theta.r

        def draw(x):
            if x < 0.0:
                raise DomainError(f"NBIN latent must be >= 0, got {x}")
            return int(poisson(gamma(r, x) if x > 0.0 else 0.0))

    else:

        def draw(x):
            if x < 0.0:
                raise DomainError(f"PARX intensity must be >= 0, got {x}")
            return int(poisson(x))

    return draw


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
