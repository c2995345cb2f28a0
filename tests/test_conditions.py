import hashlib
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odmlab.conditions import (
    CertificateBudgetError,
    check_identifiable,
    check_loglin,
    check_model,
    companion_spectral_radius,
    in_unit_disk_stable,
    loglin_iterate,
    nbin_stationary_mean,
)
from odmlab.model import (FAMILIES, FEATURE_KINDS, NBIN, PARX, ModelOrder, ModelSpec,
                          ParxConfig)
from odmlab.simulate import LatentExplosionError, SimConfig, simulate_series
import oracles
from test_model import loglin_spec, nbin_spec, parx_spec


class TestUnitDisk:
    def test_linear_cases(self):
        assert in_unit_disk_stable([0.5])
        assert not in_unit_disk_stable([1.2])

    def test_boundary_root_at_one(self):
        assert not in_unit_disk_stable([0.5, 0.5])

    def test_all_zero(self):
        assert in_unit_disk_stable([0.0, 0.0, 0.0])

    def test_agrees_with_winding_oracle(self):
        rng = np.random.default_rng(314)
        checked = 0
        while checked < 1000:
            k = int(rng.integers(1, 5))
            c = rng.uniform(-1.5, 1.5, k)
            if oracles.near_unit_circle_root(c, band=1e-6):
                continue
            assert in_unit_disk_stable(c) == oracles.winding_stable(c), c
            checked += 1

    def test_spectral_radius_closed_forms(self):
        # k = 2: z^2 - 0.5 z - 0.24 = (z - 0.8)(z + 0.3)
        assert companion_spectral_radius([0.5, 0.24]) == pytest.approx(0.8, abs=1e-12)
        assert companion_spectral_radius([1.0]) == 1.0


class TestLoglinIterate:
    def test_one_step(self):
        spec = loglin_spec()
        th = spec.params(0.0, [0.5], [0.3])
        assert loglin_iterate(th, [1.0], [1]) == pytest.approx(0.8)
        assert loglin_iterate(th, [1.0], [0]) == pytest.approx(0.5)

    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            p, q, m = int(rng.integers(1, 3)), int(rng.integers(1, 3)), 3
            spec = loglin_spec(p, q)
            th = spec.params(0.0, rng.uniform(-0.8, 0.8, p), rng.uniform(-0.8, 0.8, q))
            s = max(p, q)
            x0 = [float(v) for v in rng.uniform(-1, 1, s)]
            w = [int(v) for v in rng.integers(0, 2, q + m)]

            # naive: keep the whole trajectory, index it directly
            xs = {k - s + 1: x0[k] for k in range(s)}
            for k in range(1, m + 2):
                val = sum(th.a[j - 1] * xs[k - j] for j in range(1, p + 1))
                val += sum(th.b[j - 1] * w[k - j + q - 1] * xs[k - j] for j in range(1, q + 1))
                xs[k] = val
            assert loglin_iterate(th, x0, w) == pytest.approx(xs[m + 1], abs=1e-12)


class TestCheckLoglin:
    def test_pass_example(self):
        spec = loglin_spec()
        rep = check_loglin(spec, spec.params(0.0, [0.5], [0.3]))
        assert rep.verdict == "Pass"

    def test_fail_example(self):
        spec = loglin_spec()
        rep = check_loglin(spec, spec.params(0.0, [0.5], [-1.6]))
        assert rep.verdict == "Fail"

    def test_zero_coefficients_pass(self):
        spec = loglin_spec()
        assert check_loglin(spec, spec.params(0.3, [0.0], [0.0])).verdict == "Pass"

    def test_certificate_zone_and_monotonicity(self):
        spec = loglin_spec(2, 2)
        th = spec.params(0.0, [0.6, -0.3], [0.2, 0.3])
        rep = check_loglin(spec, th, certificate_depth=8)
        assert rep.verdict == "Pass"
        assert rep.certificate_depth is not None
        deeper = check_loglin(spec, th, certificate_depth=rep.certificate_depth + 1)
        assert deeper.verdict == "Pass"
        assert deeper.certificate_depth == rep.certificate_depth

    def test_budget_error(self):
        spec = loglin_spec()
        with pytest.raises(CertificateBudgetError):
            check_loglin(spec, spec.params(0.0, [0.9], [0.5]), certificate_depth=25)

    def test_negative_depth_rejected(self):
        spec = loglin_spec(2, 2)
        th = spec.params(0.0, [0.6, -0.3], [0.2, 0.3])
        with pytest.raises(ValueError, match="certificate depth must be >= 0, got -3"):
            check_loglin(spec, th, certificate_depth=-3)

    @pytest.mark.parametrize("depth", [True, False, 2.0, 2.5, "3", np.float64(4.0)])
    def test_non_integer_depth_rejected(self, depth):
        spec = loglin_spec(2, 2)
        th = spec.params(0.0, [0.6, -0.3], [0.2, 0.3])
        msg = f"certificate depth must be an integer, got {depth!r}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            check_loglin(spec, th, certificate_depth=depth)

    def test_numpy_integer_depth_accepted(self):
        spec = loglin_spec(2, 2)
        th = spec.params(0.0, [0.6, -0.3], [0.2, 0.3])
        rep = check_loglin(spec, th, certificate_depth=np.int64(0))
        assert rep == check_loglin(spec, th, certificate_depth=0)
        assert (rep.verdict, type(rep.certificate_depth)) == ("Inconclusive", int)
        assert json.loads(json.dumps(rep.to_dict()))["certificate_depth"] == 0

    def test_search_matches_explicit_products(self):
        # margin, verdict and depth against every product multiplied out
        rng = np.random.default_rng(4431)
        verdicts = set()
        checked = 0
        while checked < 30:
            p, q = (int(v) for v in rng.integers(1, 4, 2))
            spec = loglin_spec(p, q)
            a, b = rng.uniform(-1.0, 1.0, p), rng.uniform(-1.0, 1.0, q)
            k = rng.uniform(0.8, 1.4) / (np.abs(a).sum() + np.abs(b).sum())
            th = spec.params(0.0, a * k, b * k)
            depth = int(rng.integers(0, 6))
            rep = check_loglin(spec, th, certificate_depth=depth)
            if rep.checks[-1].name != "switched_product_norm":
                continue
            checked += 1
            norms = oracles.switched_product_norms(th.a, th.b, depth)
            stop = next((m for m, v in enumerate(norms) if v < 1.0), depth)
            assert rep.checks[-1].value == pytest.approx(min(norms[: stop + 1]), rel=1e-12)
            assert rep.certificate_depth == stop
            assert rep.verdict == ("Pass" if norms[stop] < 1.0 else "Inconclusive")
            verdicts.add(rep.verdict)
        assert verdicts == {"Pass", "Inconclusive"}

    @pytest.mark.parametrize(
        "a,b,verdict",
        [
            ([0.1], [0.01] * 21, "Pass"),
            ([1.2], [0.01] * 21, "Fail"),
            ([0.9], [-1.5] + [0.0] * 19 + [0.3], "Inconclusive"),
        ],
    )
    def test_verdict_where_no_certificate_fits(self, a, b, verdict):
        # 2^21 products of 21 x 21 floats exceed the budget even at depth 0
        spec = loglin_spec(1, 21)
        rep = check_loglin(spec, spec.params(0.0, a, b))
        assert rep.verdict == verdict
        assert rep.certificate_depth is None
        assert rep.checks[-1].name == "coefficient_sum_bound"

    def test_default_depth_lowered_to_fit_budget(self):
        # s = 8: 2^(8 + 8) products of 8 x 8 floats fill the budget
        spec = loglin_spec(8, 8)
        th = spec.params(0.0, [0.9] + [0.0] * 7, [-1.5] + [0.0] * 6 + [0.3])
        rep = check_loglin(spec, th)
        assert rep.verdict == "Inconclusive"
        assert rep.certificate_depth == 8
        with pytest.raises(CertificateBudgetError):
            check_loglin(spec, th, certificate_depth=9)

    def test_certificate_only_pass_has_vanishing_iterates(self):
        # a point the closed-form bound cannot certify: check the certificate
        # verdict against a much deeper direct enumeration of switched iterates
        import itertools

        spec = loglin_spec(2, 2)
        th = spec.params(0.0, [0.6, -0.3], [0.2, 0.3])
        rep = check_loglin(spec, th, certificate_depth=8)
        assert rep.verdict == "Pass"
        assert not next(c for c in rep.checks if c.name == "coefficient_sum_bound").passed
        worst = 0.0
        for w in itertools.product((0, 1), repeat=2 + 14):
            for corner in itertools.product((-1.0, 1.0), repeat=2):
                worst = max(worst, abs(loglin_iterate(th, corner, w)))
        assert worst < 1.0

    def test_pinned_reports(self):
        # a change to any verdict, margin or certificate depth shows here
        rng = np.random.default_rng(905)
        digest = hashlib.sha256()
        searched = 0
        for _ in range(400):
            p, q = (int(v) for v in rng.integers(1, 5, 2))
            spec = loglin_spec(p, q)
            a, b = rng.uniform(-1.0, 1.0, p), rng.uniform(-1.0, 1.0, q)
            k = rng.uniform(0.8, 1.6) / (np.abs(a).sum() + np.abs(b).sum())
            th = spec.params(0.0, a * k, b * k)
            for depth in (None, 3):
                rep = check_loglin(spec, th, certificate_depth=depth)
                searched += rep.checks[-1].name == "switched_product_norm"
                digest.update(repr(rep.to_dict()).encode())
        assert searched >= 200
        assert digest.hexdigest() == (
            "7bdaebfc044396baec1b214f3a556b0fc2163a61924cab79abfd2ac0344a5d0c"
        )

    def test_pinned_high_order_searches(self):
        # orders 5..8 at depths <= 4: the recursion reads up to 8 levels back,
        # and the identity rows of each product still count
        rng = np.random.default_rng(58)
        digest = hashlib.sha256()
        searched = 0
        while searched < 60:
            p, q = (int(v) for v in rng.integers(5, 9, 2))
            spec = loglin_spec(p, q)
            a, b = rng.uniform(-1.0, 1.0, p), rng.uniform(-1.0, 1.0, q)
            k = rng.uniform(0.8, 1.6) / (np.abs(a).sum() + np.abs(b).sum())
            th = spec.params(0.0, a * k, b * k)
            rep = check_loglin(spec, th, certificate_depth=int(rng.integers(0, 5)))
            if rep.checks[-1].name != "switched_product_norm":
                continue
            searched += 1
            digest.update(repr((rep.certificate_depth, rep.checks[-1].value)).encode())
        assert digest.hexdigest() == (
            "a2fa6fbe2ecc123c6d264165fa5ae5723c58d322a741f5622c6f1c933ebcecea"
        )

    def test_deepest_search_peak_memory(self):
        # loglin(8,8) at its default depth 8 certifies only at the deepest
        # level, 2^16 products of 8 x 8 floats; the search stores their top
        # rows alone (4 MiB), plus the last 7 levels' (4 MiB together)
        spec = loglin_spec(8, 8)
        th = spec.params(0.0, (0.5, -0.3) + (0.0,) * 6, (0.4, 0.2) + (0.0,) * 6)
        tracemalloc.start()
        try:
            rep = check_loglin(spec, th)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.verdict, rep.certificate_depth) == ("Pass", 8)
        assert peak <= 24 * 2**20

    def test_order_one_equivalence_small_grid(self):
        spec = loglin_spec()
        for a in np.linspace(-1.4, 1.4, 21):
            for b in np.linspace(-1.4, 1.4, 21):
                if abs(abs(a) - 1.0) < 1e-6 or abs(abs(a + b) - 1.0) < 1e-6:
                    continue
                verdict = check_loglin(spec, spec.params(0.0, [a], [b])).verdict
                expected = "Pass" if (abs(a) < 1.0 and abs(a + b) < 1.0) else "Fail"
                assert verdict == expected, (a, b)


class TestCheckNbin:
    def test_examples(self):
        spec = nbin_spec()
        assert check_model(spec, spec.params(1.0, [0.3], [0.2], r=2.0)).verdict == "Pass"
        rep = check_model(spec, spec.params(1.0, [0.5], [0.3], r=2.0))
        assert rep.verdict == "Fail"
        assert rep.extras["lhs"] == pytest.approx(1.1)

    def test_boundary_is_fail(self):
        spec = nbin_spec(2, 1)
        rep = check_model(spec, spec.params(1.0, [0.2, 0.2], [0.3], r=2.0))
        assert rep.extras["lhs"] == pytest.approx(1.0)
        assert rep.verdict == "Fail"


class TestCheckParx:
    def test_examples(self):
        spec = parx_spec()
        g = [0.1, 0.1]
        assert check_model(spec, spec.params(1.0, [0.4], [0.3], gamma=g)).verdict == "Pass"
        assert check_model(spec, spec.params(1.0, [0.6], [0.5], gamma=g)).verdict == "Fail"
        assert check_model(spec, spec.params(1.0, [0.5], [0.5], gamma=g)).verdict == "Fail"


class TestIdentifiability:
    def test_constant_feedback_poly_passes(self):
        assert check_identifiable([0.5], [0.3]).verdict == "Pass"

    def test_roots_beyond_a_double_leak_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # b2 / b1 overflows: no finite companion matrix
            for b in ([0.5, 1e308], [5e-324, 1.0], [1.0, math.nan]):
                with pytest.raises(ValueError, match="has no finite roots"):
                    check_identifiable([0.1], b)
            # a finite root of about -1e300, whose fourth power overflows
            report = check_identifiable([0.1] * 4, [1e-200, 1e100])
        assert report.verdict == "Pass"
        assert abs(report.checks[0].value - 1.0) <= 1e-12

    def test_constant_feedback_poly_skips_the_root_finder(self):
        rng = np.random.default_rng(290)
        b1s = [-1.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300]
        b1s += (rng.choice((-1.0, 1.0), 194) * 10.0 ** rng.uniform(-300, 300, 194)).tolist()
        for b1 in b1s:
            a = rng.uniform(-2.0, 2.0, int(rng.integers(1, 4))).tolist()
            assert np.roots([b1]).size == 0
            # a leading zero keeps the polynomial and sends it through np.roots
            want = check_identifiable(a, [0.0, b1]).to_dict()
            assert check_identifiable(a, [b1]).to_dict() == want

    def test_common_root_fails(self):
        assert check_identifiable([0.3, 0.1], [1.0, -0.5]).verdict == "Fail"

    def test_zero_feedback_fails(self):
        assert check_identifiable([0.5, 0.1], [0.0, 0.0]).verdict == "Fail"

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-8.0, max_value=8.0).filter(lambda s: abs(s) > 1e-3))
    def test_scaling_invariance(self, scale):
        a = [0.3, 0.1]
        for b in ([1.0, -0.5], [0.4, 0.2], [0.9, 0.0]):
            scaled = [scale * v for v in b]
            assert (
                check_identifiable(a, scaled).verdict == check_identifiable(a, b).verdict
            )


class TestNbinStationaryMean:
    def test_balance_solution(self):
        spec = nbin_spec()
        mu_x, mu_y = nbin_stationary_mean(spec, spec.params(1.0, [0.3], [0.2], r=2.0))
        assert mu_x == pytest.approx(10.0 / 3.0, abs=1e-7)
        assert mu_y == pytest.approx(20.0 / 3.0, abs=1e-7)

    def test_iid_regime(self):
        spec = nbin_spec()
        mu_x, mu_y = nbin_stationary_mean(spec, spec.params(1.0, [0.0], [0.0], r=2.0))
        assert mu_x == 1.0 and mu_y == 2.0

    def test_unstable_raises(self):
        spec = nbin_spec()
        with pytest.raises(ValueError):
            nbin_stationary_mean(spec, spec.params(1.0, [0.5], [0.3], r=2.0))

    def test_homogeneous_in_omega(self):
        spec = nbin_spec()
        base = nbin_stationary_mean(spec, spec.params(1.0, [0.3], [0.2], r=2.0))
        scaled = nbin_stationary_mean(spec, spec.params(3.5, [0.3], [0.2], r=2.0))
        assert scaled[0] == pytest.approx(3.5 * base[0])
        assert scaled[1] == pytest.approx(3.5 * base[1])

    def test_simulation_cross_check(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.3], [0.2], r=2.0)
        from odmlab.simulate import stationary_moment_estimate

        est = stationary_moment_estimate(spec, th, n=200_000, seed=21, batches=50)
        mu_x, mu_y = nbin_stationary_mean(spec, th)
        assert abs(est.mean_x - mu_x) < 3.0 * est.se_x
        assert abs(est.mean_y - mu_y) < 3.0 * est.se_y


# a signed zero, the smallest subnormal, the largest magnitudes, the non-finite
# values and the bools, which a coefficient may be handed in place of a real
EDGE_COEFFICIENTS = (0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
                     True, False)
coefficients = st.sampled_from(EDGE_COEFFICIENTS) | st.floats(-2.0, 2.0)


@st.composite
def edge_models(draw):
    """A spec of any family, p and q up to 4, and its coefficients from the edges."""
    family = draw(st.sampled_from(FAMILIES))
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parx, r, gamma = None, None, None
    if family == PARX:
        r_dim = draw(st.integers(1, 3))
        kinds = draw(st.lists(st.sampled_from(FEATURE_KINDS), min_size=1, max_size=r_dim))
        aleph = tuple(tuple(0.5 if i == j else 0.0 for j in range(r_dim)) for i in range(r_dim))
        parx = ParxConfig(r_dim=r_dim, feature_kinds=kinds, aleph=aleph, sigma=1.0)
        gamma = draw(st.lists(coefficients, min_size=len(kinds), max_size=len(kinds)))
    if family == NBIN:
        r = draw(coefficients)
    a = draw(st.lists(coefficients, min_size=p, max_size=p))
    b = draw(st.lists(coefficients, min_size=q, max_size=q))
    return ModelSpec(family, ModelOrder(p, q), parx), (draw(coefficients), a, b, r, gamma)


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(edge_models())
def test_coefficient_edges_end_in_a_verdict_or_a_library_error(model):
    """params, both audits and a short simulation each return (an audit, a
    verdict) or raise ValueError or LatentExplosionError, and warn of nothing."""
    spec, coefs = model

    def outcome(call):  # the call's value, or None where it raised an error of the library's
        try:
            return call()
        except (ValueError, LatentExplosionError):
            return None

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        theta = outcome(lambda: spec.params(*coefs))
        if theta is not None:
            for audit in (lambda: check_model(spec, theta),
                          lambda: check_identifiable(theta.a, theta.b)):
                report = outcome(audit)
                assert report is None or report.verdict in ("Pass", "Fail", "Inconclusive")
            outcome(lambda: simulate_series(spec, theta, SimConfig(n=30, burn_in=10)))
    assert [str(w.message) for w in caught] == []
