"""Stability, ergodicity, and identifiability audits.

Each checker returns a :class:`ConditionReport` with a three-way verdict:

* ``Pass``          -- a sufficient condition held;
* ``Fail``          -- a necessary condition was violated;
* ``Inconclusive``  -- necessary conditions hold but no implemented
  sufficient criterion could certify stability (log-linear only; the NBIN
  and PARX inequalities are sharp, so their verdicts are binary).

For the log-linear family the latent recursion switches its coefficients
with the observed zero pattern, so deciding stability exactly is a joint
spectral radius question.  The checker layers three things: closed-form
necessary root conditions, a closed-form sufficient coefficient bound, and a
finite certificate that bounds the infinity norm of every admissible product
of switched companion matrices up to a configurable depth.  Passing at depth
m implies every long product decays geometrically (split it into admissible
blocks of length m + 1), so the certificate is sound; it is searched from
depth 0 upward, which also makes it monotone in the depth budget.  Row r
of a product is the top row of the product of its first m + 1 - r matrices,
so the search stores only top rows, one per switching history: the
loglin(8, 8) check at its default depth 8 peaks near 12.5 MiB.

Inequalities in the underlying theory are strict; boundary values therefore
Fail, and every report carries the raw margin so callers can see how close
the call was.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .families import _FAMILIES
from .model import ModelSpec, ParameterVector, _integer, validate_params

TOL_RADIUS = 1e-9
TOL_ROOT = 1e-8

DEFAULT_CERT_DEPTH = 12
# bounds the certificate's deepest level at 2^(q + depth) products of s x s
# floats; the search stores only their top rows, an s-th of that
CERT_BUDGET = 2**22


class CertificateBudgetError(ValueError):
    """The requested certificate depth exceeds the enumeration budget."""


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class ConditionReport:
    verdict: str  # "Pass" | "Fail" | "Inconclusive"
    checks: tuple[ConditionCheck, ...]
    certificate_depth: Optional[int] = None
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "Pass"

    def to_dict(self) -> dict:
        """The fields, with ``extras`` merged in at the top level."""
        out = asdict(self)
        out.update(out.pop("extras"))
        return out


def companion_spectral_radius(c) -> float:
    """Spectral radius of the companion matrix of z^k - sum c_j z^(k-j)."""
    c = [float(v) for v in c]
    k = len(c)
    if k == 0 or all(v == 0.0 for v in c):
        return 0.0
    if k == 1:
        return abs(c[0])
    if k == 2:
        # z^2 - c1 z - c2 = 0
        disc = cmath.sqrt(c[0] * c[0] + 4.0 * c[1])
        r1 = abs((c[0] + disc) / 2.0)
        r2 = abs((c[0] - disc) / 2.0)
        return max(r1, r2)
    mat = np.zeros((k, k))
    mat[0, :] = c
    mat[1:, :-1] = np.eye(k - 1)
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def in_unit_disk_stable(c) -> bool:
    """True iff 1 - sum c_j z^j has no root in the closed unit disk.

    Equivalent, via z -> 1/z, to the companion matrix of
    z^k - sum c_j z^(k-j) having spectral radius strictly below 1; decided
    with a ``TOL_RADIUS`` safety band.
    """
    return companion_spectral_radius(c) < 1.0 - TOL_RADIUS


def loglin_iterate(theta: ParameterVector, x, w) -> float:
    """Run the switched log-linear coefficient recursion and return its endpoint.

    ``x`` holds the max(p, q) seed values oldest-first and ``w`` the q + m
    switching bits oldest-first; the recursion
    ``x_k = sum_j a_j x_{k-j} + sum_j b_j w_{k-j} x_{k-j}`` is advanced for
    k = 1..m+1 and x_{m+1} is returned.
    """
    a, b = theta.a, theta.b
    p, q = len(a), len(b)
    s = max(p, q)
    if len(x) != s:
        raise ValueError(f"seed must have length {s}, got {len(x)}")
    if len(w) < q:
        raise ValueError(f"need at least {q} switching bits, got {len(w)}")
    m = len(w) - q
    xs = [float(v) for v in x]
    for k in range(1, m + 2):
        val = 0.0
        for j in range(1, p + 1):
            val += a[j - 1] * xs[-j]
        for j in range(1, q + 1):
            val += b[j - 1] * w[k - j + q - 1] * xs[-j]
        xs.append(val)
        del xs[0]
    return xs[-1]


def _certificate_search(apad, bpad, q: int, max_depth: int):
    """Smallest depth m <= max_depth at which every admissible product of
    m + 1 switched companion matrices has infinity norm < 1.

    Returns (depth or None, best max-norm seen).  Row r of a depth-m product
    is the top row of its depth-(m - r) prefix, so a level stores one top row
    per switching history h, in integer order (bit j of h is its j-th newest
    bit; its prefix r levels up is h >> r).  That row is the recursion of
    :func:`loglin_iterate`: the sum over j of (a_j + b_j * bit_j(h)) times the
    top row j + 1 levels up, where level -r is row r - 1 of the identity.
    """
    s = len(apad)
    coef = np.array([apad, np.add(apad, bpad)]).T[:, :, None, None]  # [j, bit_j(h)]
    # the top rows of the last s levels, oldest first; level -r (a unit seed)
    # is one view of its identity row per history of its q - r bits
    tops = [np.broadcast_to(np.eye(s)[r - 1], (2 ** max(q - r, 0), s)) for r in range(s, 0, -1)]
    sums = [1.0] * s  # the largest absolute row sum of each of those levels
    best = math.inf
    for depth in range(max_depth + 1):
        top = np.zeros((2 ** (q + depth), s))
        for j, prefix in enumerate(reversed(tops)):
            # each prefix row heads a block of histories, and bit j of h picks
            # its half (for j >= q, b_j = 0 and the halves agree)
            top.reshape(len(prefix), 2, -1, s)[...] += coef[j] * prefix[:, None, None]
        tops = tops[1:] + [top]
        sums = sums[1:] + [float(np.abs(top).sum(axis=1).max())]
        level_max = max(sums)
        best = min(best, level_max)
        if level_max < 1.0:
            return depth, best
    return None, best


def check_loglin(
    spec: ModelSpec,
    theta: ParameterVector,
    certificate_depth: Optional[int] = None,
) -> ConditionReport:
    """Audit a log-linear parameter point for ergodicity.

    Necessary: the latent polynomial built from ``a`` and the one built from
    the zero-padded sum ``a + b`` must both have their roots outside the
    closed unit disk.  Sufficient: either the coefficient bound
    ``sum_k max(|a_k|, |a_k + b_k|) < 1`` or the switched-product norm
    certificate (searched up to ``certificate_depth``), whose deepest level
    enumerates 2^(q + depth) products of s x s floats, s = max(p, q), within
    ``CERT_BUDGET`` (only their top rows are stored).  The default depth is
    the largest <= 12 that fits; when none fits, no certificate is searched.
    An explicit depth over the budget raises ``CertificateBudgetError``; a
    negative one, a bool or a non-integer raises ``ValueError``.
    """
    validate_params(spec, theta)
    a, b = theta.a, theta.b
    q, s = len(b), max(len(a), len(b))
    apad = tuple(a) + (0.0,) * (s - len(a))
    bpad = tuple(b) + (0.0,) * (s - q)
    products = CERT_BUDGET // (s * s)  # the most s x s products the budget holds
    if certificate_depth is not None:
        certificate_depth = _integer(certificate_depth, "certificate depth")
    if certificate_depth is None:
        certificate_depth = min(DEFAULT_CERT_DEPTH, products.bit_length() - 1 - q)
        if certificate_depth < 0:
            certificate_depth = None
    elif certificate_depth < 0:
        raise ValueError(f"certificate depth must be >= 0, got {certificate_depth}")
    elif 2 ** (q + certificate_depth) > products:
        raise CertificateBudgetError(
            f"certificate depth {certificate_depth} needs 2^{q + certificate_depth} "
            f"products of {s}x{s} floats, over the budget of {CERT_BUDGET} floats; "
            "lower the depth"
        )

    rad_a = companion_spectral_radius(a)
    rad_ab = companion_spectral_radius([apad[i] + bpad[i] for i in range(s)])
    nec_a = rad_a < 1.0 - TOL_RADIUS
    nec_ab = rad_ab < 1.0 - TOL_RADIUS
    coeff_sum = sum(max(abs(apad[i]), abs(apad[i] + bpad[i])) for i in range(s))
    suff_sum = coeff_sum < 1.0

    checks = [
        ConditionCheck("latent_poly_stable", rad_a, 1.0 - TOL_RADIUS, nec_a),
        ConditionCheck("sum_poly_stable", rad_ab, 1.0 - TOL_RADIUS, nec_ab),
        ConditionCheck("coefficient_sum_bound", coeff_sum, 1.0, suff_sum),
    ]

    if not (nec_a and nec_ab):
        return ConditionReport(verdict="Fail", checks=tuple(checks))
    if suff_sum:
        return ConditionReport(verdict="Pass", checks=tuple(checks))
    if certificate_depth is None:
        return ConditionReport(verdict="Inconclusive", checks=tuple(checks))

    depth, best_norm = _certificate_search(apad, bpad, q, certificate_depth)
    checks.append(
        ConditionCheck("switched_product_norm", best_norm, 1.0, depth is not None)
    )
    if depth is not None:
        return ConditionReport(
            verdict="Pass", checks=tuple(checks), certificate_depth=depth
        )
    return ConditionReport(
        verdict="Inconclusive", checks=tuple(checks), certificate_depth=certificate_depth
    )


def check_model(
    spec: ModelSpec, theta: ParameterVector, certificate_depth: Optional[int] = None
) -> ConditionReport:
    """The family's audit: its sharp balance, or :func:`check_loglin` up to ``certificate_depth``.

    A depth given for a family with a sharp balance raises ``ValueError``.
    """
    fam = _FAMILIES[spec.family]
    if fam.balance is None:
        return check_loglin(spec, theta, certificate_depth)
    if certificate_depth is not None:
        raise ValueError(f"certificate depth applies to the log-linear family only, "
                         f"not {fam.title}")
    validate_params(spec, theta)
    lhs = fam.balance(theta)
    checks = (ConditionCheck("coefficient_balance", lhs, 1.0, lhs < 1.0),)
    return ConditionReport("Pass" if lhs < 1.0 else "Fail", checks, extras={"lhs": lhs})


@np.errstate(over="ignore", invalid="ignore")  # a root or its power beyond a double
def check_identifiable(a, b) -> ConditionReport:
    """No-common-root criterion for the latent and feedback polynomials.

    Fails when the feedback polynomial is identically zero (the criterion is
    then vacuous) or when one of its complex roots is, within ``TOL_ROOT``
    relative scale, also a root of the latent polynomial (a margin that is
    NaN fails too).  Raises ``ValueError`` where a ratio of b's coefficients
    is not finite, so that the polynomial has no finite companion matrix.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    p = len(a)
    if all(v == 0.0 for v in b):
        checks = (ConditionCheck("feedback_poly_nonzero", 0.0, 0.0, False),)
        return ConditionReport(verdict="Fail", checks=checks)
    # feedback polynomial b1 z^(q-1) + ... + bq; a nonzero constant (q = 1) has no roots
    try:
        roots = np.roots(b) if len(b) > 1 else ()
    except np.linalg.LinAlgError:
        raise ValueError(f"the feedback polynomial with b = {b} has no finite roots") from None
    if len(roots) == 0:
        checks = (ConditionCheck("min_scaled_latent_poly_at_roots", math.inf, TOL_ROOT, True),)
        return ConditionReport(verdict="Pass", checks=checks)
    pcoef = np.array([1.0] + [-v for v in a])
    vals = np.abs(np.polyval(pcoef, roots)) / (1.0 + np.abs(roots)) ** p
    far = ~np.isfinite(vals)  # z^p beyond a double: the same as |z / (1 + |z|)|^p |z^-p P(z)|
    z = roots[far]
    vals[far] = (np.abs(z) / (1.0 + np.abs(z))) ** p * np.abs(np.polyval(pcoef[::-1], 1.0 / z))
    margin = float(np.min(vals))
    ok = margin > TOL_ROOT
    checks = (ConditionCheck("min_scaled_latent_poly_at_roots", margin, TOL_ROOT, ok),)
    return ConditionReport(verdict="Pass" if ok else "Fail", checks=checks)


def nbin_stationary_mean(spec: ModelSpec, theta: ParameterVector) -> tuple[float, float]:
    """Stationary first moments (mean latent, mean count) of a stable NBIN model.

    Solves the moment balance E[X] = omega + sum(a) E[X] + sum(b) E[Y] with
    E[Y] = r E[X]; raises when the balance condition fails.
    """
    report = check_model(spec, theta)
    if not report.passed:
        raise ValueError(
            f"no finite-mean stationary regime: sum(a) + r*sum(b) = {report.extras['lhs']:.6g} >= 1"
        )
    mu_x = theta.omega / (1.0 - sum(theta.a) - theta.r * sum(theta.b))
    return mu_x, theta.r * mu_x
