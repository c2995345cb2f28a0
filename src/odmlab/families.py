"""Observation kernels: densities, samplers, and predictive laws.

The latent value parameterizes the count distribution: Poisson with mean e^x
(log-linear), negative binomial with shape r and mean r*x (NBIN), Poisson
with mean x (PARX).  PARX additionally carries an autonomous Gaussian VAR(1)
covariate kernel whose density does not depend on the model parameters, so
it is excluded from the fitting objective by default and can be re-added for
total log-likelihood reporting.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import LOGLIN, NBIN, PARX, DomainError, ModelSpec, ParameterVector

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

    def log_pmf(self, y: int) -> float:
        if y < 0 or y != int(y):
            raise DomainError(f"counts must be nonnegative integers, got {y!r}")
        y = int(y)
        if self.kind == "poisson":
            if self.mean == 0.0:
                return 0.0 if y == 0 else -math.inf
            return -self.mean + y * math.log(self.mean) - lnfact(y)
        x = self.mean / self.r
        return _nbin_log_pmf(self.r, x, y)

    def quantile(self, prob: float) -> int:
        """Smallest y with CDF(y) >= prob."""
        from scipy import stats  # slow to import, and only the forecast needs it
        if self.kind == "poisson":
            return int(stats.poisson.ppf(prob, self.mean))
        x = self.mean / self.r
        return int(stats.nbinom.ppf(prob, self.r, 1.0 / (1.0 + x)))

    def pmf_values(self, y_max: int) -> np.ndarray:
        return np.array([math.exp(self.log_pmf(y)) for y in range(y_max + 1)])


def _nbin_log_pmf(r: float, x: float, y: int) -> float:
    if x < 0.0:
        raise DomainError(f"NBIN latent must be >= 0, got {x}")
    if x == 0.0:
        return 0.0 if y == 0 else -math.inf
    return (
        math.lgamma(r + y)
        - lnfact(y)
        - math.lgamma(r)
        - r * math.log1p(x)
        + y * math.log(x)
        - y * math.log1p(x)
    )


def log_density(spec: ModelSpec, theta: ParameterVector, x: float, y: int) -> float:
    """ln g(x; y), the conditional count log-density at latent ``x``.

    For PARX this is the Poisson factor only; the covariate transition
    density is parameter-free (see :func:`covariate_log_density`).  NBIN at
    x = 0 with y > 0 returns -inf.
    """
    if y < 0 or y != int(y):
        raise DomainError(f"counts must be nonnegative integers, got {y!r}")
    y = int(y)
    if spec.family == LOGLIN:
        xc = _clamped(x)
        return -math.exp(xc) + y * xc - lnfact(y)
    if spec.family == NBIN:
        return _nbin_log_pmf(theta.r, x, y)
    # PARX: Poisson with mean x (x >= omega > 0 in-domain).
    if x < 0.0:
        raise DomainError(f"PARX intensity must be >= 0, got {x}")
    if x == 0.0:
        return 0.0 if y == 0 else -math.inf
    return -x + y * math.log(x) - lnfact(y)


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
