"""Trajectory generation with burn-in and long-run moment estimation.

Observation draws, covariate noise, and start jitter each use an independent
named substream of the master seed, so the PARX covariate path is identical
across count-parameter changes and replicates can be parallelized with
derived seeds.

Draw order is part of the reproducibility contract.  On the observation
substream each step draws, in order, NBIN's gamma and then the poisson count
(the Poisson families draw the count only).  On the covariate substream the
noise of the whole run is one ``standard_normal((steps, r))`` block, which
numpy fills in the order of ``steps`` sequential ``standard_normal(r)`` calls.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from . import rng as rngmod
from .conditions import check_model
from .families import bind_sampler
from .model import (
    LOGLIN,
    PARX,
    DomainError,
    LatentWindow,
    ModelSpec,
    ObservationSeries,
    ParameterVector,
    ParxConfig,
    _affine,
    _integer,
    _same,
    _scalar_window,
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
        if _integer(self.n, "n") < 1:
            raise ValueError("n must be >= 1")
        if _integer(self.burn_in, "burn_in") < 0:
            raise ValueError("burn_in must be >= 0")
        _integer(self.seed, "seed")


@dataclass(frozen=True, eq=False)
class SimResult:
    """A simulated series with its latents x_0..x_n (PARX: the intensities).

    ``latents`` is a read-only float64 array.  Equality is exact and
    compares dtypes too.
    """

    series: ObservationSeries
    latents: np.ndarray
    seed: int

    def __eq__(self, other):
        if not isinstance(other, SimResult):
            return NotImplemented
        return (self.seed == other.seed and self.series == other.series
                and _same(self.latents, other.latents))


def default_simulation_window(spec: ModelSpec, theta: ParameterVector) -> LatentWindow:
    """A fixed admissible starting window; burn-in absorbs the transient."""
    return constant_window(spec, 0.0 if spec.family == LOGLIN else theta.omega, 0)


def covariate_path(cfg: ParxConfig, xi0, noise: np.ndarray) -> np.ndarray:
    """Xi_1..Xi_m of the VAR(1) recursion Xi_t = aleph Xi_{t-1} + noise_t.

    ``xi0`` is Xi_0 and row t - 1 of the (m, r) block ``noise`` is noise_t,
    the scaled draw sigma * N(0, I).
    """
    aleph = cfg.aleph_matrix()
    xi = np.asarray(xi0, dtype=float)
    path = np.empty_like(noise)
    for t, e in enumerate(noise):
        xi = aleph @ xi + e
        path[t] = xi
    return path


def _explosion(x: float, limit: float, t: int) -> LatentExplosionError:
    return LatentExplosionError(
        f"latent {x:.6g} left the safe range (limit {limit:.0e}) at step {t}; "
        "run the stability check on these parameters"
    )


def simulate_series(spec: ModelSpec, theta: ParameterVector, cfg: SimConfig) -> SimResult:
    """Generate ``burn_in + n + 1`` steps and return the last ``n + 1``.

    Fully determined by ``cfg.seed``: step t draws its count from the
    observation substream (NBIN: gamma, then poisson), and the PARX covariate
    noise of all steps is drawn up front as one block from the covariate
    substream.  Raises ``LatentExplosionError`` when the latent leaves the
    safe range (|x| > 1e3 log-linear, x > 1e12 otherwise), which for
    sustained runs means the parameters fail their stability condition.
    """
    validate_params(spec, theta)
    z0 = cfg.z_init if cfg.z_init is not None else default_simulation_window(spec, theta)
    validate_window(spec, z0)
    burn_in, n = cfg.burn_in, cfg.n
    steps = burn_in + n + 1
    draw = bind_sampler(spec, theta, rngmod.substream(cfg.seed, rngmod.OBSERVATION))
    omega, a, b, gamma = theta.omega, theta.a, theta.b, theta.gamma or ()
    loglin = spec.family == LOGLIN
    limit = EXPLOSION_LOGLIN if loglin else EXPLOSION_OTHER
    lo = -limit if loglin else 0.0
    log1p = math.log1p
    ys, xs = np.empty(n + 1), np.empty(n + 1)
    # item assignment through a memoryview: the cheapest store of one number
    keep_y, keep_x = memoryview(ys), memoryview(xs)
    xw, uw = _scalar_window(spec, z0)
    covariates = None
    feats = repeat(())
    if spec.family == PARX:
        px = spec.parx
        noise = rngmod.substream(cfg.seed, rngmod.COVARIATE).standard_normal((steps, px.r_dim))
        noise *= px.sigma
        path = covariate_path(px, z0.x[-1][1], noise)
        del noise
        covariates = path[burn_in:]
        covariates.flags.writeable = False
        feats = zip(*map(memoryview, px.features(path)))
    # p = q = 1 without gamma steps x in a local: _affine's additions in
    # _affine's order, inlined, as in _latent_path
    fast = len(a) == len(b) == 1 and not gamma
    a1, b1 = a[0], b[0]
    x = xw[-1]
    step, observe = xw.append, uw.append
    for k in range(-burn_in, n + 1):  # k = t - burn_in at step t
        if not lo <= x <= limit:
            raise _explosion(x, limit, k + burn_in)
        try:
            y = draw(x)
        except DomainError as exc:
            raise LatentExplosionError(f"at step {k + burn_in}: {exc}") from exc
        if k >= 0:
            keep_y[k] = y
            keep_x[k] = x
        u = log1p(y) if loglin else y
        if fast:
            x = omega + a1 * x + b1 * u
        else:
            observe(u)
            x = _affine(omega, a, b, xw, uw, gamma, next(feats))
            step(x)
            del xw[0]
            del uw[0]
    ys.flags.writeable = xs.flags.writeable = False
    series = ObservationSeries(y=ys, covariates=covariates)
    return SimResult(series=series, latents=xs, seed=cfg.seed)


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
    n, batches = _integer(n, "n"), _integer(batches, "batches")
    if batches < 2:
        raise ValueError(f"batches must be >= 2, got {batches}")
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
    xs, ys = sim.latents, sim.series.y
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
