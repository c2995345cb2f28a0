"""Trajectory generation with burn-in and long-run moment estimation.

Observation draws, covariate noise, and start jitter each use an independent
named substream of the master seed, so the PARX covariate path is identical
across count-parameter changes and replicates can be parallelized with
derived seeds.

Draw order is part of the reproducibility contract.  On the observation
substream each step draws one count, a scalar ``poisson``.  NBIN's count is
Poisson at mean x times a Gamma(r, 1) factor; step t takes the t-th
``standard_gamma(r)`` draw of the gamma substream, whatever x, and the
factors are drawn ahead in blocks, which numpy fills in the order of
sequential ``standard_gamma(r)`` calls, so the block size does not move the
stream (``x * standard_gamma(r)`` is numpy's ``gamma(r, x)`` bit for bit).
On the covariate substream the noise of the whole run is one
``standard_normal((steps, r))`` block, which numpy fills in the order of
``steps`` sequential ``standard_normal(r)`` calls.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rngmod
from .conditions import check_model
from .families import _FAMILIES, bind_sampler
from .model import (
    LatentWindow,
    ModelSpec,
    ObservationSeries,
    ParameterVector,
    ParxConfig,
    _compiled,
    _integer,
    _same,
    _scalar_window,
    constant_window,
    validate_params,
    validate_window,
)

# the simulator's loop for _compiled: the affine step, with step t's draw before it
_LOOP = """\
def loop(omega, a, b, gamma, xw, uw, ks, draw, loglin, lo, hi, keep_y, keep_x):
{head}
    log1p = math.log1p
    for k{f} in ks:  # k = t - burn_in at step t
        if not lo <= x <= hi:
            return k, x
        y = draw(x)
        if k >= 0:
            keep_y[k] = y
            keep_x[k] = x
        u1 = log1p(y) if loglin else y
{step}
"""


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
    return constant_window(spec, theta.omega if _FAMILIES[spec.family].positive else 0.0, 0)


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


def simulate_series(spec: ModelSpec, theta: ParameterVector, cfg: SimConfig) -> SimResult:
    """Generate ``burn_in + n + 1`` steps and return the last ``n + 1``.

    Fully determined by ``cfg.seed``: step t draws its count from the
    observation substream (NBIN: at a mean scaled by step t's factor, the
    t-th draw of the gamma substream), and the PARX covariate noise of all
    steps is drawn up front as one block from the covariate substream.
    Raises ``LatentExplosionError`` at the first step whose latent leaves
    the family's safe range ([-1e3, 42.83282603501271] log-linear, the top
    being the largest x with e^x <= 4e18; [0, 1e12] otherwise; never NaN),
    which for sustained runs means the parameters fail their stability
    condition.
    """
    validate_params(spec, theta)
    z0 = cfg.z_init if cfg.z_init is not None else default_simulation_window(spec, theta)
    validate_window(spec, z0)
    burn_in, n = cfg.burn_in, cfg.n
    steps = burn_in + n + 1
    draw = bind_sampler(spec, theta, cfg.seed)
    fam = _FAMILIES[spec.family]
    lo, hi = fam.safe_range
    ys, xs = np.empty(n + 1), np.empty(n + 1)
    covariates, ks, gamma = None, range(-burn_in, n + 1), theta.gamma or ()
    if spec.parx is not None:
        px = spec.parx
        noise = rngmod.substream(cfg.seed, rngmod.COVARIATE).standard_normal((steps, px.r_dim))
        noise *= px.sigma
        path = covariate_path(px, z0.x[-1][1], noise)
        del noise
        covariates = path[burn_in:]
        covariates.flags.writeable = False
        ks = zip(ks, *map(memoryview, px.features(path)))
    run = _compiled(len(theta.a), len(theta.b), len(gamma), _LOOP)
    # item assignment through a memoryview: the cheapest store of one number
    stop = run(theta.omega, theta.a, theta.b, gamma, *_scalar_window(spec, z0), ks, draw,
               fam.log1p, lo, hi, memoryview(ys), memoryview(xs))
    if stop is not None:
        k, x = stop
        raise LatentExplosionError(
            f"latent {x:.6g} left the safe range (limit {lo if x < lo else hi:.6g}) "
            f"at step {k + burn_in}; run the stability check on these parameters"
        )
    ys.flags.writeable = xs.flags.writeable = False
    return SimResult(ObservationSeries(y=ys, covariates=covariates), xs, cfg.seed)


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
