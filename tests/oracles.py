"""Independent reference implementations used as test oracles.

These deliberately avoid the library's sliding-window machinery: the latent
path is rebuilt from scratch with dictionary indexing straight from the
defining recursion, densities are written out as formulas, the PARX features
are written from the kind definitions one covariate at a time, polynomial
stability is decided by an argument-principle winding count on the unit
circle, and switched companion products are multiplied out one by one.
"""

import itertools
import math

import numpy as np

from odmlab.families import CLAMP_HI, CLAMP_LO, lnfact
from odmlab.model import LOGLIN, NBIN, PARX

# feature kind -> its value at one covariate coordinate v
FEATURE_FORMULAS = {
    "square": lambda v: v * v,
    "abs": abs,
    "pos_part": lambda v: v if v > 0.0 else 0.0,
}


def parx_features(cfg, xi):
    """The feature row of covariate row ``xi``: feature j is kind j at coordinate j."""
    return tuple(FEATURE_FORMULAS[k](float(v)) for k, v in zip(cfg.feature_kinds, xi))


def attach_series(spec, z_init, series):
    """Index maps (xs, us, feats) covering the initial window and the data."""
    p, q = spec.p, spec.q
    xs = {}
    us = {}
    feats = {}
    if spec.family == PARX:
        for offset, entry in enumerate(z_init.x):
            xs[-p + 1 + offset] = entry[0]
        for offset, entry in enumerate(z_init.u):
            us[-q + 1 + offset] = entry[0]
            feats[-q + 1 + offset] = entry[1]
        for t, y in enumerate(series.y):
            us[t] = float(y)
            feats[t] = parx_features(spec.parx, series.covariates[t])
    else:
        for offset, x in enumerate(z_init.x):
            xs[-p + 1 + offset] = x
        for offset, u in enumerate(z_init.u):
            us[-q + 1 + offset] = u
        for t, y in enumerate(series.y):
            us[t] = math.log1p(y) if spec.family == LOGLIN else float(y)
    return xs, us, feats


def unrolled_latent_path(spec, theta, z_init, series, n):
    """x_1..x_n via the raw indexed recursion, no window reuse."""
    xs, us, feats = attach_series(spec, z_init, series)
    omega, a, b = theta.omega, theta.a, theta.b
    p, q = spec.p, spec.q
    out = []
    for k in range(1, n + 1):
        acc = omega
        for i in range(1, p + 1):
            acc += a[i - 1] * xs[k - i]
        for j in range(1, q + 1):
            acc += b[j - 1] * us[k - j]
        if spec.family == PARX:
            gamma = theta.gamma
            f = feats[k - 1]
            for m in range(len(gamma)):
                acc += gamma[m] * f[m]
        xs[k] = acc
        out.append(acc)
    return out


def nbin_simulation(spec, theta, z_init, n, burn_in, seed):
    """(counts, latents) of steps burn_in..burn_in + n of an NBIN run, one scalar draw at a time.

    Step t draws one ``standard_gamma(r)`` factor from the gamma substream and
    then the count from the observation substream, Poisson at mean x_t times
    the factor; x_{t+1} follows from the raw indexed recursion.
    """
    from odmlab import rng as rngmod

    factors = rngmod.substream(seed, rngmod.GAMMA)
    draws = rngmod.substream(seed, rngmod.OBSERVATION)
    p, q = spec.p, spec.q
    xs = {-p + 1 + offset: x for offset, x in enumerate(z_init.x)}
    us = {-q + 1 + offset: u for offset, u in enumerate(z_init.u)}
    for t in range(burn_in + n + 1):
        us[t] = float(int(draws.poisson(xs[t] * factors.standard_gamma(theta.r))))
        acc = theta.omega
        for i in range(1, p + 1):
            acc += theta.a[i - 1] * xs[t + 1 - i]
        for j in range(1, q + 1):
            acc += theta.b[j - 1] * us[t + 1 - j]
        xs[t + 1] = acc
    kept = range(burn_in, burn_in + n + 1)
    return [int(us[t]) for t in kept], [xs[t] for t in kept]


def density_log_pmf(spec, theta, x, y):
    """Count log-density written straight from the family definitions.

    Mirrors the documented log-linear clamp of the latent to [-745, 700]
    before exponentiation.
    """
    if spec.family == LOGLIN:
        x = min(max(x, -745.0), 700.0)
        mean = math.exp(x)
        return -mean + y * x - math.lgamma(y + 1)
    if spec.family == NBIN:
        r = theta.r
        if x == 0.0:
            return 0.0 if y == 0 else -math.inf
        return (
            math.lgamma(r + y)
            - math.lgamma(y + 1)
            - math.lgamma(r)
            + r * math.log(1.0 / (1.0 + x))
            + y * math.log(x / (1.0 + x))
        )
    if x == 0.0:
        return 0.0 if y == 0 else -math.inf
    return -x + y * math.log(x) - math.lgamma(y + 1)


def scalar_log_terms(family, r, xs, ys, lnf, distinct=None):
    """ln g(x_k; y_k) one term at a time: (terms, clamped, first clamped k or 0).

    The library's count densities as a plain scalar loop, every operation on
    Python floats in the formula's order: the bit-for-bit reference for
    ``families._log_terms``.  Log-linear clamps x to [CLAMP_LO, CLAMP_HI] and
    lets NaN through; NBIN and PARX give -inf outside (0, inf), and 0 at
    x = 0 with y = 0.
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


def brute_force_loglik(spec, theta, z_init, series):
    """Total and normalized log-likelihood from the unrolled path."""
    n = series.n
    path = unrolled_latent_path(spec, theta, z_init, series, n)
    total = 0.0
    for k in range(1, n + 1):
        total += density_log_pmf(spec, theta, path[k - 1], series.y[k])
    return total, total / n


def winding_zero_count(c, samples=8192):
    """Number of zeros of 1 - sum c_j z^j inside the unit circle.

    Argument-principle winding number of the image of the unit circle; valid
    when no zero sits on the circle itself.
    """
    c = np.asarray(c, dtype=float)
    z = np.exp(2j * np.pi * np.arange(samples) / samples)
    vals = np.ones_like(z)
    zp = np.ones_like(z)
    for cj in c:
        zp = zp * z
        vals = vals - cj * zp
    angles = np.angle(vals)
    dphi = np.diff(np.concatenate([angles, angles[:1]]))
    dphi = (dphi + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(dphi.sum() / (2.0 * np.pi))))


def winding_stable(c):
    return winding_zero_count(c) == 0


def near_unit_circle_root(c, band=1e-6):
    """True when some root of 1 - sum c_j z^j lies within ``band`` of |z| = 1.

    Used only to exclude boundary cases from oracle comparisons.
    """
    c = np.asarray(c, dtype=float)
    if not c.any():
        return False
    coeffs = np.concatenate([-c[::-1], [1.0]])  # degree-k first
    roots = np.roots(coeffs)
    if roots.size == 0:
        return False
    return bool(np.min(np.abs(np.abs(roots) - 1.0)) < band)


def switched_product_norms(a, b, max_depth):
    """Max infinity norm over the admissible switched products, per depth.

    Entry m covers every product M_{m+1} ... M_1 of m + 1 companion matrices,
    one per history of q + m switching bits w_1..w_{q+m} (oldest first):
    M_k has top row a_j + b_j * w_{k+q-j}, j = 1..s (zero padded to
    s = max(p, q)), and the shifted identity below.  Each product is
    multiplied out matrix by matrix, with no reuse of shorter products.
    """
    p, q = len(a), len(b)
    s = max(p, q)
    a = list(a) + [0.0] * (s - p)
    b = list(b) + [0.0] * (s - q)
    norms = []
    for m in range(max_depth + 1):
        worst = 0.0
        for w in itertools.product((0, 1), repeat=q + m):
            prod = np.eye(s)
            for k in range(1, m + 2):
                mat = np.zeros((s, s))
                mat[0] = [a[j - 1] + (b[j - 1] * w[k + q - j - 1] if j <= q else 0.0)
                          for j in range(1, s + 1)]
                mat[1:, :-1] = np.eye(s - 1)
                prod = mat @ prod
            worst = max(worst, float(np.abs(prod).sum(axis=1).max()))
        norms.append(worst)
    return norms


def random_instance(rng, families=(LOGLIN, NBIN, PARX), max_order=3, stable=False):
    """A random (spec, theta) pair; ``stable`` shrinks coefficients to pass
    the family condition with margin."""
    from odmlab.model import ModelOrder, ModelSpec, ParxConfig

    family = families[int(rng.integers(len(families)))]
    p = int(rng.integers(1, max_order + 1))
    q = int(rng.integers(1, max_order + 1))
    order = ModelOrder(p, q)
    if family == LOGLIN:
        spec = ModelSpec(family=family, order=order)
        scale = 0.7 if stable else 1.0
        a = rng.uniform(-1, 1, p)
        b = rng.uniform(-1, 1, q)
        wt = abs(a).sum() + abs(b).sum()
        if stable and wt > 0:
            a *= scale * rng.uniform(0.3, 1.0) / wt
            b *= scale * rng.uniform(0.3, 1.0) / wt
        theta = spec.params(rng.uniform(-0.5, 0.8), a, b)
    elif family == NBIN:
        spec = ModelSpec(family=family, order=order)
        r = float(rng.uniform(0.5, 4.0))
        a = rng.uniform(0, 1, p)
        b = rng.uniform(0, 1, q)
        wt = a.sum() + r * b.sum()
        margin = rng.uniform(0.4, 0.85) if stable else rng.uniform(0.4, 0.95)
        a *= margin / max(wt, 1e-9)
        b *= margin / max(wt, 1e-9)
        theta = spec.params(rng.uniform(0.3, 2.0), a, b, r=r)
    else:
        r_dim = int(rng.integers(1, 3))
        d = int(rng.integers(1, r_dim + 1))
        kinds = tuple(("square", "abs", "pos_part")[int(rng.integers(3))] for _ in range(d))
        aleph = rng.uniform(-0.4, 0.4, (r_dim, r_dim))
        cfg = ParxConfig(
            r_dim=r_dim,
            feature_kinds=kinds,
            aleph=tuple(tuple(row) for row in aleph),
            sigma=float(rng.uniform(0.3, 1.2)),
        )
        spec = ModelSpec(family=family, order=order, parx=cfg)
        a = rng.uniform(0, 1, p)
        b = rng.uniform(0, 1, q)
        wt = a.sum() + b.sum()
        margin = rng.uniform(0.4, 0.85)
        a *= margin / max(wt, 1e-9)
        b *= margin / max(wt, 1e-9)
        theta = spec.params(
            rng.uniform(0.3, 2.0), a, b, gamma=rng.uniform(0.0, 0.5, d)
        )
    return spec, theta


def random_series(spec, rng, n):
    """Arbitrary valid data (not simulated from any parameter point)."""
    from odmlab.model import ObservationSeries

    y = tuple(int(v) for v in rng.poisson(3.0, n + 1))
    if spec.family == PARX:
        cov = tuple(
            tuple(float(v) for v in rng.normal(0.0, 1.0, spec.parx.r_dim))
            for _ in range(n + 1)
        )
        return ObservationSeries(y=y, covariates=cov)
    return ObservationSeries(y=y)


def random_window(spec, rng):
    """An admissible window of random entries, reduced by the oracle's own formulas."""
    from odmlab.model import LatentWindow

    p, q = spec.p, spec.q
    if spec.family == LOGLIN:
        return LatentWindow(
            x=tuple(float(v) for v in rng.normal(0.0, 1.0, p)),
            u=tuple(math.log1p(int(v)) for v in rng.poisson(2.0, q - 1)),
        )
    if spec.family == NBIN:
        return LatentWindow(
            x=tuple(float(v) for v in rng.gamma(2.0, 1.5, p)),
            u=tuple(float(int(v)) for v in rng.poisson(3.0, q - 1)),
        )
    r_dim = spec.parx.r_dim
    xs = tuple(
        (float(rng.gamma(2.0, 1.5)), tuple(float(v) for v in rng.normal(0.0, 1.0, r_dim)))
        for _ in range(p)
    )
    us = []
    for _ in range(q - 1):
        y = float(rng.poisson(3.0))
        xi = tuple(float(v) for v in rng.normal(0.0, 1.0, r_dim))
        us.append((y, parx_features(spec.parx, xi), xi))
    return LatentWindow(x=xs, u=tuple(us))


def radical_inverse(index, base):
    """The Halton radical inverse of ``index`` >= 1 in ``base``, one digit at a time."""
    result = 0.0
    f = 1.0 / base
    i = index
    while i > 0:
        result += f * (i % base)
        i //= base
        f /= base
    return result
