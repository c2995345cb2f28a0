"""Family-agnostic core of order-(p, q) count models with latent feedback.

A model couples a latent recursion with an observation kernel: the next
latent value is an affine function of the last ``p`` latents and the last
``q`` *reduced* observations, and each count is drawn from a distribution
parameterized by the current latent.  Three concrete families are supported:

* ``loglin`` -- log-linear Poisson GARCH: latent in R, counts Poisson(e^x),
  reduction u = ln(1 + y);
* ``nbin``   -- NBIN-GARCH: latent >= 0, counts negative binomial with shape
  r and mean r*x, reduction u = y;
* ``parx``   -- Poisson autoregression with exogenous covariates: the latent
  is a pair (intensity, covariate vector), counts Poisson(x), covariates an
  autonomous Gaussian VAR(1), and nonnegative covariate features feed the
  intensity.

This module owns the state objects (parameter vectors, latent windows,
observation series) and the deterministic recursions: one-step link, running
iteration, and the sliding-window step that re-expresses an order-(p, q)
model as an order-(1, 1) one.  Observation kernels live in
:mod:`odmlab.families`.

Conventions
-----------
Windows are stored oldest-first: ``x = (x_{-p+1}, ..., x_0)`` and
``u = (u_{-q+1}, ..., u_{-1})``.  Coefficient ``a[i-1]`` multiplies the i-th
most recent latent and ``b[j-1]`` the j-th most recent reduced observation.
All state objects are immutable; every function here is pure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

LOGLIN = "loglin"
NBIN = "nbin"
PARX = "parx"

FAMILIES = (LOGLIN, NBIN, PARX)

# each kind on a numpy column, rounding as on a float; pos_part maps -0.0, NaN to 0.0
_FEATURES = {"square": np.square, "abs": np.abs, "pos_part": lambda v: np.where(v > 0.0, v, 0.0)}
FEATURE_KINDS = tuple(_FEATURES)
_CHECK_BLOCK = 1 << 14  # counts checked per block by ObservationSeries


class DomainError(ValueError):
    """An argument is outside the family's domain."""


def _integer(value, what: str) -> int:
    """``value`` as an int: ValueError for a bool or a value without ``__index__``."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class ModelOrder:
    """Lag counts: ``p`` latent lags, ``q`` observation lags."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(f"order must satisfy p >= 1 and q >= 1, got ({self.p}, {self.q})")


@dataclass(frozen=True)
class ParxConfig:
    """Structural constants of the PARX covariate block.

    ``aleph`` drives the VAR(1) covariate recursion Xi_t = aleph Xi_{t-1}
    + sigma * N(0, I); it must have spectral radius < 1.  Feature j reads
    covariate coordinate j and maps it to a nonnegative value, so the number
    of features cannot exceed the covariate dimension.
    """

    r_dim: int
    feature_kinds: tuple[str, ...]
    aleph: tuple[tuple[float, ...], ...]
    sigma: float

    def __post_init__(self):
        if self.r_dim < 1:
            raise ValueError("covariate dimension must be >= 1")
        if not self.feature_kinds:
            raise ValueError("at least one feature is required")
        if len(self.feature_kinds) > self.r_dim:
            raise ValueError(
                f"{len(self.feature_kinds)} features but only {self.r_dim} covariate "
                "coordinates (feature j reads coordinate j)"
            )
        for k in self.feature_kinds:
            if k not in FEATURE_KINDS:
                raise ValueError(f"unknown feature kind {k!r}; choose from {FEATURE_KINDS}")
        mat = np.asarray(self.aleph, dtype=float)
        if mat.shape != (self.r_dim, self.r_dim):
            raise ValueError(f"aleph must be {self.r_dim}x{self.r_dim}, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("aleph entries must be finite")
        rad = float(np.max(np.abs(np.linalg.eigvals(mat))))
        if rad >= 1.0:
            raise ValueError(f"aleph spectral radius {rad:.6g} >= 1; covariates would not be stable")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be > 0 and finite")

    @property
    def d(self) -> int:
        return len(self.feature_kinds)

    def aleph_matrix(self) -> np.ndarray:
        return np.asarray(self.aleph, dtype=float)

    def features(self, cov) -> np.ndarray:
        """The (d, m) float64 features of an (m, r) covariate block; row j reads column j."""
        cols = np.asarray(cov, dtype=float).T
        return np.array([_FEATURES[k](c) for k, c in zip(self.feature_kinds, cols)])


@dataclass(frozen=True)
class ModelSpec:
    """Family tag plus order and, for PARX, the covariate block constants."""

    family: str
    order: ModelOrder
    parx: Optional[ParxConfig] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.family == PARX and self.parx is None:
            raise ValueError("PARX requires a ParxConfig")
        if self.family != PARX and self.parx is not None:
            raise ValueError(f"family {self.family!r} takes no ParxConfig")

    @property
    def p(self) -> int:
        return self.order.p

    @property
    def q(self) -> int:
        return self.order.q

    def params(self, omega, a, b, r=None, gamma=None) -> "ParameterVector":
        """Build and validate a parameter vector for this family."""
        theta = ParameterVector(
            omega=float(omega),
            a=tuple(float(v) for v in a),
            b=tuple(float(v) for v in b),
            r=None if r is None else float(r),
            gamma=None if gamma is None else tuple(float(v) for v in gamma),
        )
        validate_params(self, theta)
        return theta


@dataclass(frozen=True)
class ParameterVector:
    """Coefficients (omega, a[1..p], b[1..q]) plus the family extension.

    ``r`` is the NBIN shape parameter; ``gamma`` the PARX feature weights.
    Use :meth:`ModelSpec.params` to construct validated instances.
    """

    omega: float
    a: tuple[float, ...]
    b: tuple[float, ...]
    r: Optional[float] = None
    gamma: Optional[tuple[float, ...]] = None


def validate_params(spec: ModelSpec, theta: ParameterVector) -> None:
    """Raise ``DomainError`` unless ``theta`` satisfies the family constraints."""
    if len(theta.a) != spec.p or len(theta.b) != spec.q:
        raise DomainError(
            f"coefficient lengths ({len(theta.a)}, {len(theta.b)}) do not match order "
            f"({spec.p}, {spec.q})"
        )
    fam = spec.family
    if fam == LOGLIN:
        if theta.r is not None or theta.gamma is not None:
            raise DomainError("log-linear parameters carry no r or gamma")
        return
    if not theta.omega > 0.0:
        raise DomainError(f"{fam} requires omega > 0, got {theta.omega}")
    if any(v < 0.0 for v in theta.a) or any(v < 0.0 for v in theta.b):
        raise DomainError(f"{fam} requires a, b >= 0 elementwise")
    if fam == NBIN:
        if theta.gamma is not None:
            raise DomainError("NBIN parameters carry no gamma")
        if theta.r is None or not theta.r > 0.0:
            raise DomainError(f"NBIN requires shape r > 0, got {theta.r}")
    else:  # PARX
        if theta.r is not None:
            raise DomainError("PARX parameters carry no r")
        if theta.gamma is None or len(theta.gamma) != spec.parx.d:
            raise DomainError(f"PARX requires gamma of length {spec.parx.d}")
        if any(g < 0.0 for g in theta.gamma):
            raise DomainError("PARX requires gamma >= 0 elementwise")


def param_names(spec: ModelSpec) -> tuple[str, ...]:
    names = ["omega"]
    names += [f"a{i}" for i in range(1, spec.p + 1)]
    names += [f"b{i}" for i in range(1, spec.q + 1)]
    if spec.family == NBIN:
        names.append("r")
    elif spec.family == PARX:
        names += [f"gamma{i}" for i in range(1, spec.parx.d + 1)]
    return tuple(names)


def pack_params(spec: ModelSpec, theta: ParameterVector) -> np.ndarray:
    vec = [theta.omega, *theta.a, *theta.b]
    if spec.family == NBIN:
        vec.append(theta.r)
    elif spec.family == PARX:
        vec.extend(theta.gamma)
    return np.asarray(vec, dtype=float)


def unpack_params(spec: ModelSpec, vec: Sequence[float]) -> ParameterVector:
    vec = [float(v) for v in vec]
    p, q = spec.p, spec.q
    expected = len(param_names(spec))
    if len(vec) != expected:
        raise ValueError(f"expected {expected} parameters for {spec.family}, got {len(vec)}")
    omega, a, b = vec[0], tuple(vec[1 : 1 + p]), tuple(vec[1 + p : 1 + p + q])
    r = vec[1 + p + q] if spec.family == NBIN else None
    gamma = tuple(vec[1 + p + q :]) if spec.family == PARX else None
    return ParameterVector(omega=omega, a=a, b=b, r=r, gamma=gamma)


@dataclass(frozen=True)
class LatentWindow:
    """The running state: last ``p`` latents and last ``q - 1`` reduced observations.

    Scalar families store floats.  PARX stores pairs ``(x, xi)`` in ``x`` and
    triples ``(y, features, xi)`` in ``u``, each component a float or tuple.
    """

    x: tuple
    u: tuple


def validate_window(spec: ModelSpec, z: LatentWindow) -> None:
    if len(z.x) != spec.p or len(z.u) != spec.q - 1:
        raise DomainError(
            f"window shape ({len(z.x)}, {len(z.u)}) does not match order "
            f"({spec.p}, {spec.q - 1} stored reductions)"
        )
    if spec.family == NBIN:
        if any(v < 0.0 for v in z.x) or any(v < 0.0 for v in z.u):
            raise DomainError("NBIN window entries must be >= 0")
    elif spec.family == PARX:
        for e in z.x:
            if e[0] < 0.0 or len(e[1]) != spec.parx.r_dim:
                raise DomainError("PARX latent entries must be (x >= 0, xi of length r)")
        for e in z.u:
            if e[0] < 0.0 or len(e[1]) != spec.parx.d or len(e[2]) != spec.parx.r_dim:
                raise DomainError("PARX reduced entries must be (y >= 0, features, xi)")


def _frozen(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as a read-only float64 array of ``ndim`` dimensions.

    A read-only float64 array is kept as it is, so a simulated series is never
    copied; anything else is converted into a fresh array.
    """
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64
            and not values.flags.writeable):
        try:
            values = np.asarray(values)
            if values.dtype.kind not in "biufO":  # strings are not numbers here
                raise TypeError(f"dtype {values.dtype}")
            values = values.astype(np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"{what} must be numbers with a float64 form: {exc}") from None
        values.flags.writeable = False
    if values.ndim != ndim:
        raise ValueError(f"{what} must have {ndim} dimension(s), got shape {values.shape}")
    return values


def _same(u, v) -> bool:
    """Exact equality of two optional arrays: same dtype, shape and values."""
    if u is None or v is None:
        return u is v
    return u.dtype == v.dtype and np.array_equal(u, v)


@dataclass(frozen=True, eq=False)
class ObservationSeries:
    """Counts ``y_0..y_n`` plus, for PARX only, aligned covariate rows.

    Both are stored as read-only float64 arrays: ``y`` of shape (n + 1,) and
    ``covariates`` of shape (n + 1, r).  A read-only float64 array is stored
    without a copy; other input is converted.  Equality is exact and
    compares dtypes too.
    """

    y: np.ndarray
    covariates: Optional[np.ndarray] = None

    def __post_init__(self):
        y = _frozen(self.y, 1, "counts")
        object.__setattr__(self, "y", y)
        if y.size < 1:
            raise ValueError("series must contain at least one observation")
        for lo in range(0, y.size, _CHECK_BLOCK):  # temporaries of one block, not of n
            b = y[lo : lo + _CHECK_BLOCK]
            ok = (b >= 0.0) & (b < math.inf) & (np.floor(b) == b)  # NaN fails; % 1 warns on inf
            if not ok.all():
                bad = b[ok.argmin()].item()
                raise DomainError(f"counts must be nonnegative integers, got {bad!r}")
        if self.covariates is not None:
            cov = _frozen(self.covariates, 2, "covariates")
            object.__setattr__(self, "covariates", cov)
            if len(cov) != y.size:
                raise ValueError(f"{len(cov)} covariate rows for {y.size} observations")
            ok = np.isfinite(cov)
            if not ok.all():
                raise DomainError(f"covariates must be finite, got {cov.flat[ok.argmin()].item()!r}")

    def __eq__(self, other):
        if not isinstance(other, ObservationSeries):
            return NotImplemented
        return _same(self.y, other.y) and _same(self.covariates, other.covariates)

    @property
    def n(self) -> int:
        """Number of likelihood terms; the series holds n + 1 observations."""
        return len(self.y) - 1


def check_series(spec: ModelSpec, series: ObservationSeries) -> None:
    want = spec.parx.r_dim if spec.family == PARX else 0
    got = 0 if series.covariates is None else series.covariates.shape[1]
    if got != want:
        raise DomainError(f"family {spec.family!r} takes {want} covariate columns, got {got}")


# --- reductions and link steps ------------------------------------------------
#
# Every code path that advances the latent recursion -- the one-step link,
# the sliding-window step, the running iteration, the likelihood pass, the
# forecast and the simulator -- funnels through _affine (or the p = q = 1 line
# of _latent_path, which adds in the same order), so they all produce bitwise
# identical values.


def check_count(y) -> None:
    """Raise ``DomainError`` unless ``y`` is a nonnegative integer value."""
    if not 0 <= y < math.inf or y % 1:  # NaN and inf fail before the %
        raise DomainError(f"counts must be nonnegative integers, got {y!r}")


def reduce(spec: ModelSpec, y):
    """Apply the family's observation reduction.

    loglin: ln(1 + y); nbin: y; parx: (y, feature values, xi) where the input
    is the pair (count, covariate row), whose entries must be finite.
    """
    if spec.family == PARX:
        return _reduce_all(spec, (y,))[0]
    check_count(y)
    if spec.family == LOGLIN:
        return math.log1p(y)
    return float(y)


def _reduce_all(spec: ModelSpec, ys) -> list:
    """:func:`reduce` over ``ys``: PARX rows are checked in order, then featurized at once."""
    if spec.family != PARX:
        return [reduce(spec, y) for y in ys]
    counts, rows = [], []
    for count, xi in ys:
        check_count(count)
        xi = tuple(float(v) for v in xi)
        if not all(map(math.isfinite, xi)):
            raise DomainError(f"covariates must be finite, got {xi!r}")
        if len(xi) != spec.parx.r_dim:
            raise DomainError(f"covariate vector has length {len(xi)}, expected {spec.parx.r_dim}")
        counts.append(float(count))
        rows.append(xi)
    feats = spec.parx.features(rows).T.tolist()
    return [(c, tuple(f), xi) for c, f, xi in zip(counts, feats, rows)]


def _affine(omega: float, a, b, xw, uw, gamma=(), f=()) -> float:
    # xw has >= len(a) entries newest-last; uw has >= len(b) entries
    # newest-last (PARX: the counts).  Only the newest feature row f enters
    # (block-matrix structure of the PARX link).
    acc = omega
    i = -1
    for ai in a:
        acc += ai * xw[i]
        i -= 1
    i = -1
    for bj in b:
        acc += bj * uw[i]
        i -= 1
    i = 0
    for gm in gamma:
        acc += gm * f[i]
        i += 1
    return acc


def _latent_path(theta: ParameterVector, xw0, uw0, u, f=None) -> list:
    """x_1..x_m from the window (xw0, uw0) and the reduced data u_0..u_{m-1}.

    ``u[k]`` is u_k (PARX: the count y_k) and ``f[k]`` the PARX feature row
    f_k; x_k reads u_{k-1} and f_{k-1}.
    """
    omega, a, b, gamma = theta.omega, theta.a, theta.b, theta.gamma or ()
    if len(a) == len(b) == 1 and not gamma:
        # _affine's additions in _affine's order, inlined: at p = q = 1 a call
        # per term about doubles the cost of the pass
        a1, b1 = a[0], b[0]
        x = xw0[-1]
        path = []
        append = path.append
        for uk in u:
            x = omega + a1 * x + b1 * uk
            append(x)
        return path
    xw = list(xw0)
    uw = list(uw0)
    step, observe = xw.append, uw.append
    for uk, fk in zip(u, repeat(()) if f is None else f):
        observe(uk)
        step(_affine(omega, a, b, xw, uw, gamma, fk))
    return xw[len(xw0):]


def _scalar_window(spec: ModelSpec, z: LatentWindow) -> tuple[list, list]:
    """Fresh lists of the window's latents and reductions, as the recursion reads them.

    PARX entries are unpacked to their first component: intensity and count.
    """
    if spec.family == PARX:
        return [e[0] for e in z.x], [e[0] for e in z.u]
    return list(z.x), list(z.u)


def _window_path(spec: ModelSpec, theta: ParameterVector, z: LatentWindow, u) -> list:
    """x_1..x_m from window ``z`` over the reduced observations ``u``.

    PARX reductions are unpacked to counts and feature rows.
    """
    xw0, uw0 = _scalar_window(spec, z)
    if spec.family == PARX:
        return _latent_path(theta, xw0, uw0, [v[0] for v in u], [v[1] for v in u])
    return _latent_path(theta, xw0, uw0, u)


def link_step(spec: ModelSpec, theta: ParameterVector, z: LatentWindow, u_now):
    """One application of the affine link: the next latent value.

    ``u_now`` is a reduced observation (output of :func:`reduce`).  For PARX
    the returned latent is the pair (intensity, covariate row of ``u_now``).
    """
    x = _window_path(spec, theta, z, [u_now])[0]
    return (x, u_now[2]) if spec.family == PARX else x


def embed_step(spec: ModelSpec, theta: ParameterVector, z: LatentWindow, y) -> LatentWindow:
    """Slide the window one observation forward (the order-(1,1) view).

    The last latent entry of the result equals ``link_step`` on the same
    inputs, and folding this map over ``y_0..y_{k-1}`` then projecting
    reproduces :func:`iterate_latent` exactly.
    """
    u_now = reduce(spec, y)
    x_new = link_step(spec, theta, z, u_now)
    new_x = z.x[1:] + (x_new,)
    new_u = (z.u + (u_now,))[1:] if spec.q > 1 else ()
    return LatentWindow(x=new_x, u=new_u)


def project_latent(spec: ModelSpec, z: LatentWindow):
    """The current latent value (the newest window entry)."""
    return z.x[-1]


def iterate_latent(spec: ModelSpec, theta: ParameterVector, z_init: LatentWindow, y_prefix):
    """Run the latent recursion through ``y_prefix`` and return the final latent.

    With an empty prefix this is the projection of the initial window.  The
    prefix is reduced, then :func:`_latent_path` runs the recursion, sharing
    its arithmetic with :func:`embed_step`.
    """
    u = _reduce_all(spec, y_prefix)
    if not u:
        return project_latent(spec, z_init)
    x = _window_path(spec, theta, z_init, u)[-1]
    return (x, u[-1][2]) if spec.family == PARX else x


def constant_window(spec: ModelSpec, x1, y1, xi1=None) -> LatentWindow:
    """Window with every latent entry ``x1`` and every reduction built from ``y1``."""
    if spec.family == PARX:
        xi1 = tuple(float(v) for v in (xi1 if xi1 is not None else (0.0,) * spec.parx.r_dim))
        u1 = reduce(spec, (y1, xi1))
        return LatentWindow(x=((float(x1), xi1),) * spec.p, u=(u1,) * (spec.q - 1))
    u1 = reduce(spec, y1)
    return LatentWindow(x=(float(x1),) * spec.p, u=(u1,) * (spec.q - 1))


def _count_mean(series: ObservationSeries) -> float:
    """The mean count, with the bits of the Python integer sum over the length.

    While the total is below 2^53, every partial sum of the counts is an
    integer that float64 holds exactly, so numpy's summation order does not
    matter and the division is the one rounding.
    """
    return float(series.y.sum()) / series.y.size


def default_initial_window(spec: ModelSpec, series: ObservationSeries) -> LatentWindow:
    """Data-scaled starting window for likelihood evaluation.

    log-linear: all zeros.  NBIN/PARX: latent entries at the sample mean of
    the counts (floored at 1e-6 to stay strictly positive), reductions built
    from the first observation.  Any admissible point is allowed; these
    defaults just shorten the transient.
    """
    check_series(spec, series)
    if spec.family == LOGLIN:
        return constant_window(spec, 0.0, 0)
    x1 = max(_count_mean(series), 1e-6)
    if spec.family == NBIN:
        return constant_window(spec, x1, series.y[0])
    return constant_window(spec, x1, series.y[0], xi1=series.covariates[0])
