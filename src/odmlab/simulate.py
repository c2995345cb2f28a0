"""Trajectory generation with burn-in and long-run moment estimation.

Observation draws, covariate noise, and start jitter each use an independent
named substream of the master seed, so the PARX covariate path is identical
across count-parameter changes and replicates can be parallelized with
derived seeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rngmod
from .conditions import check_model
from .families import sample_observation
from .model import (
    LOGLIN,
    NBIN,
    PARX,
    DomainError,
    LatentWindow,
    ModelSpec,
    ObservationSeries,
    ParameterVector,
    _affine,
    constant_window,
    validate_params,
    validate_window,
)

EXPLOSION_LOGLIN = 1e3  # on |x|
EXPLOSION_OTHER = 1e12  # on x


class LatentExplosionError(RuntimeError):
    """The latent recursion left the configured safe range during simulation."""


@dataclass(frozen=True)
class SimConfig:
    n: int
    burn_in: int = 1000
    seed: int = 0
    z_init: Optional[LatentWindow] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")


@dataclass(frozen=True)
class SimResult:
    series: ObservationSeries
    latents: tuple[float, ...]  # x_0..x_n (intensity component for PARX)
    seed: int


def default_simulation_window(spec: ModelSpec, theta: ParameterVector) -> LatentWindow:
    """A fixed admissible starting window; burn-in absorbs the transient."""
    if spec.family == LOGLIN:
        return constant_window(spec, 0.0, 0)
    if spec.family == NBIN:
        return constant_window(spec, theta.omega, 0)
    return constant_window(spec, theta.omega, 0, xi1=(0.0,) * spec.parx.r_dim)


def simulate_series(spec: ModelSpec, theta: ParameterVector, cfg: SimConfig) -> SimResult:
    """Generate ``burn_in + n + 1`` steps and return the last ``n + 1``.

    Fully determined by ``cfg.seed``.  Raises ``LatentExplosionError`` when
    the latent leaves the safe range (|x| > 1e3 log-linear, x > 1e12
    otherwise), which for sustained runs means the parameters fail their
    stability condition.
    """
    validate_params(spec, theta)
    z0 = cfg.z_init if cfg.z_init is not None else default_simulation_window(spec, theta)
    validate_window(spec, z0)
    obs_rng = rngmod.substream(cfg.seed, rngmod.OBSERVATION)
    omega, a, b, gamma = theta.omega, theta.a, theta.b, theta.gamma or ()
    loglin = spec.family == LOGLIN
    limit = EXPLOSION_LOGLIN if loglin else EXPLOSION_OTHER
    ys: list[int] = []
    xs: list[float] = []
    xis: Optional[list[tuple[float, ...]]] = None
    feats = ()
    if spec.family == PARX:
        cov_rng = rngmod.substream(cfg.seed, rngmod.COVARIATE)
        cfgx = spec.parx
        aleph = cfgx.aleph_matrix()
        xi = np.asarray(z0.x[-1][1], dtype=float)
        xis = []
        xw = [e[0] for e in z0.x]
        uw = [e[0] for e in z0.u]
    else:
        xw = list(z0.x)
        uw = list(z0.u)
    for t in range(cfg.burn_in + cfg.n + 1):
        x = xw[-1]
        bad = (abs(x) > limit) if loglin else (not 0.0 <= x <= limit)
        if bad or not math.isfinite(x):
            raise LatentExplosionError(
                f"latent {x:.6g} left the safe range (limit {limit:.0e}) at step {t}; "
                "run the stability check on these parameters"
            )
        try:
            y = sample_observation(spec, theta, x, obs_rng)
        except DomainError as exc:
            raise LatentExplosionError(f"at step {t}: {exc}") from exc
        if xis is not None:
            xi = aleph @ xi + cfgx.sigma * cov_rng.standard_normal(cfgx.r_dim)
            feats = cfgx.feature_values(xi)
        if t >= cfg.burn_in:
            ys.append(y)
            xs.append(x)
            if xis is not None:
                xis.append(tuple(float(v) for v in xi))
        uw.append(math.log1p(y) if loglin else float(y))
        xw.append(_affine(omega, a, b, xw, uw, gamma, feats))
        del xw[0]
        del uw[0]
    series = ObservationSeries(y=tuple(ys), covariates=None if xis is None else tuple(xis))
    return SimResult(series=series, latents=tuple(xs), seed=cfg.seed)


@dataclass(frozen=True)
class MomentEstimate:
    mean_x: float
    mean_y: float
    se_x: float
    se_y: float
    samples: int
    batches: int


def stationary_moment_estimate(
    spec: ModelSpec,
    theta: ParameterVector,
    n: int,
    seed: int,
    burn_in: int = 1000,
    batches: int = 32,
) -> MomentEstimate:
    """Batch-means estimates of the stationary latent and count means.

    Warns (but proceeds) when the family's stability condition does not
    certify the parameters.
    """
    if n < 2 * batches:
        raise ValueError(f"need n >= {2 * batches} samples for {batches} batches")
    report = check_model(spec, theta)
    if report.verdict != "Pass":
        warnings.warn(
            f"stability check verdict {report.verdict}; moment estimates may not converge",
            RuntimeWarning,
            stacklevel=2,
        )
    sim = simulate_series(spec, theta, SimConfig(n=n - 1, burn_in=burn_in, seed=seed))
    xs = np.asarray(sim.latents, dtype=float)
    ys = np.asarray(sim.series.y, dtype=float)
    length = (n // batches) * batches
    bx = xs[:length].reshape(batches, -1).mean(axis=1)
    by = ys[:length].reshape(batches, -1).mean(axis=1)
    return MomentEstimate(
        mean_x=float(xs[:length].mean()),
        mean_y=float(ys[:length].mean()),
        se_x=float(bx.std(ddof=1) / math.sqrt(batches)),
        se_y=float(by.std(ddof=1) / math.sqrt(batches)),
        samples=length,
        batches=batches,
    )
