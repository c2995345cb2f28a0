import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from odmlab.fit import (
    FitFailureError,
    FitOptions,
    ThetaBox,
    _quasi_random_points,
    default_box,
    fit_mle,
    forecast_one_step,
    make_box,
)
from odmlab.likelihood import loglik
from odmlab.model import (
    LatentWindow,
    ObservationSeries,
    default_initial_window,
    iterate_latent,
    pack_params,
    unpack_params,
)
from odmlab.families import ClampWarning, predictive
from odmlab.simulate import SimConfig, simulate_series

import oracles
from test_model import loglin_spec, nbin_spec, parx_spec


class TestThetaBox:
    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            ThetaBox(lower=(1.0,), upper=(0.0,))

    def test_hard_constraints_intersected(self):
        spec = nbin_spec()
        box = make_box(spec, [-3.0, -1.0, -1.0, -5.0], [10.0, 1.0, 1.0, 10.0])
        assert box.lower[0] > 0.0  # omega > 0
        assert box.lower[1] == 0.0 and box.lower[2] == 0.0
        assert box.lower[3] > 0.0  # r > 0

    def test_clip_and_contains(self):
        spec = loglin_spec()
        box = default_box(spec)
        v = box.clip(np.array([99.0, -99.0, 0.5]))
        assert box.contains(v)
        assert v[0] == 5.0 and v[1] == -1.0


def test_quasi_random_points_keep_their_bases_as_dims_grow():
    assert np.array_equal(_quasi_random_points(13, 9)[:, :12], _quasi_random_points(12, 9))


def test_quasi_random_points_match_the_scalar_radical_inverse():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
              79, 83, 89]
    ref = np.array([[oracles.radical_inverse(i, b) for b in primes] for i in range(1, 51)])
    for dim in range(1, 25):
        for count in range(51):
            pts = _quasi_random_points(dim, count)
            assert pts.shape == (count, dim)
            assert pts.tobytes() == ref[:count, :dim].tobytes(), (dim, count)


class TestFitOptions:
    @pytest.mark.parametrize("field, value", [("starts", 2.5), ("starts", True),
                                              ("max_evals", 100.5), ("max_evals", True),
                                              ("polish_max_iter", 2.5), ("seed", 1.5),
                                              ("seed", True), ("seed", "3")])
    def test_non_integer_counts_rejected(self, field, value):
        FitOptions(**{field: np.int64(3)})  # numpy integers are integers
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            FitOptions(**{field: value})


    @pytest.mark.parametrize("field, value", [("polish", "no"), ("polish", 1),
                                              ("require_stability", "False"),
                                              ("guard_override", np.True_)])
    def test_flags_must_be_booleans(self, field, value):
        FitOptions(**{field: True})
        with pytest.raises(ValueError, match=f"^{field} must be True or False, got {value!r}$"):
            FitOptions(**{field: value})


class TestFitFailure:
    def test_every_finite_start_excluded_by_stability(self):
        spec = loglin_spec()
        sim = simulate_series(spec, spec.params(0.1, [0.5], [0.3]), SimConfig(n=300, seed=4))
        box = make_box(spec, [-5.0, 0.99, 0.5], [5.0, 0.99, 0.5])  # a1 + b1 > 1
        opts = FitOptions(starts=2, require_stability=True)
        with pytest.raises(FitFailureError, match="^every start with a finite objective was "
                                                  "excluded by the stability check; "):
            fit_mle(spec, sim.series, box=box, opts=opts)
        # the same starts without the check are finite, and fail it
        res = fit_mle(spec, sim.series, box=box, opts=FitOptions(starts=2))
        assert all(math.isfinite(t.value) for t in res.trace)
        assert res.condition_report.verdict == "Fail"


class TestFitMle:
    def test_iid_poisson_closed_form(self):
        spec = loglin_spec()
        th = spec.params(0.7, [0.0], [0.0])
        sim = simulate_series(spec, th, SimConfig(n=500, burn_in=0, seed=2))
        box = make_box(spec, [-5, 0, 0], [5, 0, 0])
        res = fit_mle(spec, sim.series, box=box)
        closed = math.log(np.mean(sim.series.y[1:]))
        assert abs(res.theta_hat.omega - closed) < 1e-6

    def test_true_theta_never_beats_fit(self):
        spec = loglin_spec()
        th_star = spec.params(0.1, [0.5], [0.3])
        sim = simulate_series(spec, th_star, SimConfig(n=400, burn_in=200, seed=5))
        res = fit_mle(
            spec, sim.series, opts=FitOptions(starts=4, extra_starts=(th_star,))
        )
        z = default_initial_window(spec, sim.series)
        at_truth = loglik(spec, th_star, z, sim.series).normalized
        assert res.loglik.normalized >= at_truth - 1e-12

    def test_recovers_calibrated_instance(self):
        spec = loglin_spec()
        th_star = spec.params(0.1, [0.5], [0.3])
        sim = simulate_series(spec, th_star, SimConfig(n=2000, burn_in=500, seed=7))
        res = fit_mle(spec, sim.series, opts=FitOptions(starts=4))
        err = np.max(np.abs(pack_params(spec, res.theta_hat) - pack_params(spec, th_star)))
        assert err < 0.15

    def test_seeded_determinism(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.3], [0.2], r=2.0)
        sim = simulate_series(spec, th, SimConfig(n=300, burn_in=200, seed=3))
        r1 = fit_mle(spec, sim.series, opts=FitOptions(starts=4))
        r2 = fit_mle(spec, sim.series, opts=FitOptions(starts=4))
        assert pack_params(spec, r1.theta_hat).tobytes() == pack_params(spec, r2.theta_hat).tobytes()
        assert r1.loglik.normalized == r2.loglik.normalized

    def test_trace_never_below_its_start(self):
        spec = loglin_spec()
        th = spec.params(0.2, [0.4], [0.2])
        sim = simulate_series(spec, th, SimConfig(n=300, burn_in=100, seed=9))
        z = default_initial_window(spec, sim.series)
        res = fit_mle(spec, sim.series, opts=FitOptions(starts=4))
        from odmlab.model import unpack_params

        for t in res.trace:
            start_val = loglik(
                spec, unpack_params(spec, t.initial), z, sim.series, keep_path=False
            ).normalized
            assert t.value >= start_val - 1e-12

    def test_box_feasibility_of_trace(self):
        spec = loglin_spec()
        th = spec.params(0.2, [0.4], [0.2])
        sim = simulate_series(spec, th, SimConfig(n=200, burn_in=100, seed=4))
        box = default_box(spec)
        res = fit_mle(spec, sim.series, box=box, opts=FitOptions(starts=4))
        for t in res.trace:
            assert box.contains(np.array(t.initial), tol=1e-12)
            assert box.contains(np.array(t.final), tol=1e-12)

    def test_redundant_start_never_lowers_value(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.5], [0.3])
        sim = simulate_series(spec, th, SimConfig(n=300, burn_in=100, seed=12))
        base = fit_mle(spec, sim.series, opts=FitOptions(starts=4))
        more = fit_mle(spec, sim.series, opts=FitOptions(starts=4, extra_starts=(th,)))
        assert more.loglik.normalized >= base.loglik.normalized - 1e-12

    def test_short_series_guard(self):
        spec = loglin_spec()
        series = ObservationSeries(y=(1, 2, 3, 1, 0))
        with pytest.raises(ValueError):
            fit_mle(spec, series)
        fit_mle(spec, series, opts=FitOptions(starts=2, guard_override=True, max_evals=200))

    def test_parx_fit_recovers_scale(self):
        spec = parx_spec(p=1, q=1)
        th_star = spec.params(0.5, [0.3], [0.2], gamma=[0.3, 0.1])
        sim = simulate_series(spec, th_star, SimConfig(n=800, burn_in=300, seed=21))
        res = fit_mle(spec, sim.series, opts=FitOptions(starts=3))
        err = np.abs(pack_params(spec, res.theta_hat) - pack_params(spec, th_star))
        assert np.max(err) < 0.4
        z = default_initial_window(spec, sim.series)
        at_truth = loglik(spec, th_star, z, sim.series).normalized
        assert res.loglik.normalized >= at_truth - 1e-12

    def test_general_order_beyond_twelve_coordinates(self):
        spec = loglin_spec(6, 6)  # dim 13
        th = spec.params(0.1, [0.3, 0.1, 0.05, 0.0, 0.0, 0.0], [0.2, 0.1, 0.05, 0.0, 0.0, 0.0])
        sim = simulate_series(spec, th, SimConfig(n=300, burn_in=100, seed=13))
        res = fit_mle(spec, sim.series)
        assert np.all(np.isfinite(pack_params(spec, res.theta_hat)))
        assert math.isfinite(res.loglik.total)

    def test_general_order_past_certificate_budget(self):
        spec = loglin_spec(1, 21)  # no certificate fits the budget at q = 21
        th = spec.params(0.1, [0.3], [0.2] + [0.0] * 20)
        sim = simulate_series(spec, th, SimConfig(n=400, burn_in=100, seed=21))
        res = fit_mle(spec, sim.series, opts=FitOptions(starts=1))
        assert math.isfinite(res.loglik.total)
        assert res.condition_report.certificate_depth is None

    def test_warns_only_about_the_estimate(self):
        spec = loglin_spec(2, 2)
        th = spec.params(0.1, [0.3, 0.2], [0.2, 0.1])
        sim = simulate_series(spec, th, SimConfig(n=300, burn_in=100, seed=4))
        corner = default_box(spec).upper  # the latent clamps there
        pinned = make_box(spec, corner, corner)
        losing = FitOptions(starts=2, extra_starts=(unpack_params(spec, corner),))
        for box, opts, expected in ((pinned, FitOptions(starts=2), 1), (None, losing, 0)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = fit_mle(spec, sim.series, box=box, opts=opts)
            assert sum(w.category is ClampWarning for w in caught) == expected
            assert (res.loglik.clamped > 0) == (expected == 1)
            z = default_initial_window(spec, sim.series)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ClampWarning)
                assert loglik(spec, res.theta_hat, z, sim.series).total == res.loglik.total

    def test_result_carries_condition_report(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.5], [0.3])
        sim = simulate_series(spec, th, SimConfig(n=300, burn_in=100, seed=6))
        res = fit_mle(spec, sim.series, opts=FitOptions(starts=2))
        assert res.condition_report.verdict in ("Pass", "Fail", "Inconclusive")
        assert res.starts == 2
        assert res.loglik.normalized == max(t.value for t in res.trace)


class TestForecast:
    def test_history_free_loglin(self):
        spec = loglin_spec()
        th = spec.params(0.0, [0.0], [0.0])
        series = ObservationSeries(y=(4, 7, 1))
        z = default_initial_window(spec, series)
        dist = forecast_one_step(spec, th, z, series)
        assert dist.kind == "poisson" and dist.mean == 1.0

    def test_history_free_nbin(self):
        spec = nbin_spec()
        th = spec.params(1.5, [0.0], [0.0], r=2.0)
        series = ObservationSeries(y=(4, 7, 1))
        z = default_initial_window(spec, series)
        dist = forecast_one_step(spec, th, z, series)
        assert dist.kind == "negbinomial"
        assert dist.mean == pytest.approx(2.0 * 1.5)

    def test_composition_cross_check(self):
        spec = parx_spec(p=2, q=1)
        th = spec.params(0.5, [0.3, 0.1], [0.2], gamma=[0.2, 0.1])
        sim = simulate_series(spec, th, SimConfig(n=50, burn_in=50, seed=8))
        z = default_initial_window(spec, sim.series)
        dist = forecast_one_step(spec, th, z, sim.series)
        obs = list(zip(sim.series.y, sim.series.covariates))
        x_next = iterate_latent(spec, th, z, obs)
        manual = predictive(spec, th, x_next)
        assert dist == manual


def _pinned_fit_cases():
    l11, l22, n11, x11 = loglin_spec(), loglin_spec(2, 2), nbin_spec(), parx_spec(1, 1)
    t11 = l11.params(0.1, [0.5], [0.3])
    t22 = l22.params(0.1, [0.3, 0.2], [0.2, 0.1])
    return {
        "loglin11": (l11, t11, None, FitOptions(starts=4)),
        "loglin22": (l22, t22, None, FitOptions(starts=4)),
        "nbin11": (n11, n11.params(1.0, [0.3], [0.2], r=2.0), None, FitOptions(starts=4)),
        "parx11": (x11, x11.params(0.5, [0.3], [0.2], gamma=[0.3, 0.1]), None, FitOptions(starts=3)),
        "loglin11_pinned": (l11, t11, make_box(l11, [-5, 0.4, -1], [5, 0.4, 1]), FitOptions(starts=4)),
        "loglin22_require_stability": (
            l22, t22, None, FitOptions(starts=6, require_stability=True)
        ),
        "loglin11_extra_start": (l11, t11, None, FitOptions(starts=3, extra_starts=(t11,))),
        "loglin11_not_converged": (l11, t11, None, FitOptions(starts=2, max_evals=4, polish=False)),
    }


def _fit_digest(spec, theta, box, opts):
    sim = simulate_series(spec, theta, SimConfig(n=300, burn_in=100, seed=31))
    res = fit_mle(spec, sim.series, box=box, opts=opts)
    trace = [
        (t.start_index, t.initial, t.final, t.value, t.evals, t.converged, t.polish, t.excluded)
        for t in res.trace
    ]
    blob = repr((pack_params(spec, res.theta_hat).tolist(), res.loglik.total, trace))
    return hashlib.sha256(blob.encode()).hexdigest()


# sha256 of repr((theta_hat, loglik total, per-start trace fields)); any
# change to the search's arithmetic or bookkeeping moves these
PINNED_FIT_DIGESTS = {
    "loglin11": "bf89d42da5875a69f6d3e510f5a55daaef6b1a6e560911bdf8661f8ff0258dbe",
    "loglin11_extra_start": "cb4b8c57a7aa278cc799a3092d2a8558d569d50397357338f4b56cb3d1bbdc39",
    "loglin11_not_converged": "0ab2d1ea142883f92c648243fef02e4cd19f8c4b86ff7f1954eafed4c3e4d193",
    "loglin11_pinned": "9e81e24a290730c088ec19dd18f398f26a771e87d85d0295b1ae68c65b6d7ea1",
    "loglin22": "f3ff05b63382606d52224ec125322c1326e5df49c702ae140e16cec761aba118",
    "loglin22_require_stability": "e2256c3b4918f7c1c43ca5e2c04251390ae9f4f5947c5a55fd11a59b191e7465",
    "nbin11": "9981deb7b3588cb780e9599199caed8460608474973749a8633c605f6334c995",
    "parx11": "d1ea4febc31eb041d5ad64418dd26f382a64e55872b4efb442b3f6c2ab69e0b6",
}


class TestPinnedFits:
    @pytest.mark.parametrize("name", sorted(_pinned_fit_cases()))
    def test_digest(self, name):
        assert _fit_digest(*_pinned_fit_cases()[name]) == PINNED_FIT_DIGESTS[name]
