import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odmlab.families import predictive
from odmlab.fit import forecast_one_step
from odmlab.likelihood import loglik
from odmlab.model import (
    LOGLIN,
    NBIN,
    PARX,
    DomainError,
    LatentWindow,
    ModelOrder,
    ModelSpec,
    ObservationSeries,
    ParameterVector,
    ParxConfig,
    _count_mean,
    constant_window,
    default_initial_window,
    embed_step,
    iterate_latent,
    link_step,
    pack_params,
    param_names,
    project_latent,
    reduce,
    unpack_params,
    validate_params,
)

import oracles


def loglin_spec(p=1, q=1):
    return ModelSpec(family=LOGLIN, order=ModelOrder(p, q))


def nbin_spec(p=1, q=1):
    return ModelSpec(family=NBIN, order=ModelOrder(p, q))


def parx_spec(p=1, q=1, r_dim=2, kinds=("abs", "square")):
    cfg = ParxConfig(
        r_dim=r_dim,
        feature_kinds=kinds,
        aleph=tuple(tuple(0.4 if i == j else 0.0 for j in range(r_dim)) for i in range(r_dim)),
        sigma=0.8,
    )
    return ModelSpec(family=PARX, order=ModelOrder(p, q), parx=cfg)


class TestReduce:
    def test_loglin_zero(self):
        assert reduce(loglin_spec(), 0) == 0.0

    def test_loglin_two(self):
        assert reduce(loglin_spec(), 2) == pytest.approx(1.0986123, abs=1e-7)

    def test_nbin_identity(self):
        assert reduce(nbin_spec(), 7) == 7.0

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            reduce(loglin_spec(), -1)
        with pytest.raises(DomainError):
            reduce(parx_spec(), (-1, (0.0, 0.0)))

    def test_parx_triple(self):
        u = reduce(parx_spec(), (3, (-2.0, 1.5)))
        assert u == (3.0, (2.0, 2.25), (-2.0, 1.5))

    @pytest.mark.parametrize("family", [LOGLIN, NBIN, PARX])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.5, -1])
    def test_non_counts_rejected(self, family, bad):
        # the rule ObservationSeries and log_density apply, on every path
        # that reduces a raw observation
        spec = {LOGLIN: loglin_spec, NBIN: nbin_spec, PARX: parx_spec}[family]()
        extra = {NBIN: {"r": 2.0}, PARX: {"gamma": [0.2, 0.1]}}.get(family, {})
        th = spec.params(0.5, [0.3], [0.2], **extra)
        z = constant_window(spec, 1.0, 0)
        ok, y = ((1, (0.5, -0.5)), (bad, (0.5, -0.5))) if family == PARX else (1, bad)
        for call in (lambda: reduce(spec, y), lambda: embed_step(spec, th, z, y),
                     lambda: iterate_latent(spec, th, z, [ok, y, ok])):
            with pytest.raises(DomainError, match="counts must be nonnegative integers"):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_parx_non_finite_covariate_rejected(self, bad):
        spec = parx_spec()
        th = spec.params(0.5, [0.3], [0.2], gamma=[0.2, 0.1])
        z = constant_window(spec, 1.0, 0)
        y = (1, (0.5, bad))
        for call in (lambda: reduce(spec, y), lambda: embed_step(spec, th, z, y),
                     lambda: iterate_latent(spec, th, z, [(1, (0.5, 0.5)), y])):
            with pytest.raises(DomainError, match="covariates must be finite"):
                call()

    def test_parx_prefix_reports_first_bad_observation(self):
        spec = parx_spec()
        th = spec.params(0.5, [0.3], [0.2], gamma=[0.2, 0.1])
        z = constant_window(spec, 1.0, 0)
        prefix = [(1, (0.5, 0.5)), (1, (0.5,)), (-1, (0.5, 0.5)), (1, (math.nan, 0.5))]
        # each prefix holds several bad observations; its first is reported
        for start, msg in [(0, "covariate vector has length 1, expected 2"),
                           (2, "counts must be nonnegative integers"),
                           (3, "covariates must be finite")]:
            with pytest.raises(DomainError, match=msg):
                iterate_latent(spec, th, z, prefix[start:])


class TestLinkStep:
    def test_loglin_example(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.5], [0.3])
        z = LatentWindow(x=(1.0,), u=())
        got = link_step(spec, th, z, math.log(3.0))
        assert got == pytest.approx(0.1 + 0.5 + 0.3 * math.log(3.0), abs=1e-12)

    def test_degenerate_coefficients(self):
        for spec, th in [
            (loglin_spec(), loglin_spec().params(-0.7, [0.0], [0.0])),
            (nbin_spec(), nbin_spec().params(2.5, [0.0], [0.0], r=1.5)),
        ]:
            z = LatentWindow(x=(1.23,), u=())
            assert link_step(spec, th, z, reduce(spec, 4)) == th.omega

    def test_nbin_example(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.3], [0.2], r=2.0)
        z = LatentWindow(x=(2.0,), u=())
        assert link_step(spec, th, z, 5.0) == pytest.approx(2.6, abs=1e-12)

    def test_parx_carries_newest_covariate(self):
        spec = parx_spec(p=1, q=1)
        th = spec.params(0.5, [0.2], [0.1], gamma=[0.3, 0.0])
        z = LatentWindow(x=((1.0, (0.0, 0.0)),), u=())
        u_now = reduce(spec, (4, (-2.0, 1.0)))
        x_new = link_step(spec, th, z, u_now)
        assert x_new[1] == (-2.0, 1.0)
        assert x_new[0] == pytest.approx(0.5 + 0.2 * 1.0 + 0.1 * 4 + 0.3 * 2.0, abs=1e-12)


class TestIterateLatent:
    def test_empty_prefix_projects(self):
        spec = loglin_spec(p=3, q=2)
        th = spec.params(0.0, [0.1, 0.1, 0.1], [0.1, 0.1])
        z = LatentWindow(x=(1.0, 2.0, 3.0), u=(0.5,))
        assert iterate_latent(spec, th, z, []) == 3.0

    def test_two_step_hand_unroll(self):
        spec = loglin_spec()
        th = spec.params(0.0, [0.5], [0.5])
        z = LatentWindow(x=(1.0,), u=())
        got = iterate_latent(spec, th, z, [0, 1])
        assert got == pytest.approx(0.25 + 0.5 * math.log(2.0), abs=1e-12)

    def test_matches_unrolled_oracle_exactly(self):
        for spec, th, z, series, obs, path in oracle_instances():
            got = iterate_latent(spec, th, z, obs[:40])
            if spec.family == PARX:
                got = got[0]
            assert got == path[-1]


def oracle_instances():
    """50 random (spec, theta, window, series, observations, oracle path)
    instances at n = 40, every family, p and q <= 3."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        spec, th = oracles.random_instance(rng)
        series = oracles.random_series(spec, rng, 40)
        z = oracles.random_window(spec, rng)
        path = oracles.unrolled_latent_path(spec, th, z, series, 40)
        if spec.family == PARX:
            obs = list(zip(series.y, series.covariates))
        else:
            obs = list(series.y)
        yield spec, th, z, series, obs, path


@pytest.mark.filterwarnings("ignore::odmlab.families.ClampWarning")
class TestSharedRecursion:
    """Every sequential caller of the recursion against the same oracle path."""

    def test_loglik_path_matches_oracle_and_terms_add_in_order(self):
        for spec, th, z, series, obs, path in oracle_instances():
            val = loglik(spec, th, z, series)
            assert val.latent_path[1:] == tuple(path)
            total = 0.0
            for term in val.per_term:
                total += term
            assert val.total == total

    def test_forecast_matches_iterate(self):
        families = set()
        for spec, th, z, series, obs, path in oracle_instances():
            families.add(spec.family)
            expected = predictive(spec, th, iterate_latent(spec, th, z, obs))
            assert forecast_one_step(spec, th, z, series) == expected
        assert families == {LOGLIN, NBIN, PARX}

    def test_one_observation_series_forecasts(self):
        cases = [
            (loglin_spec(2, 2), (0.1, [0.3, 0.2], [0.2, 0.1]), {}),
            (nbin_spec(1, 2), (1.0, [0.3], [0.1, 0.1]), {"r": 2.0}),
            (parx_spec(2, 1), (0.5, [0.2, 0.1], [0.3]), {"gamma": [0.2, 0.1]}),
        ]
        for spec, args, extra in cases:
            th = spec.params(*args, **extra)
            cov = ((0.4, -1.2),) if spec.family == PARX else None
            series = ObservationSeries(y=(3,), covariates=cov)
            assert series.n == 0
            z = default_initial_window(spec, series)
            obs = list(zip(series.y, cov)) if cov else list(series.y)
            dist = forecast_one_step(spec, th, z, series)
            assert dist == predictive(spec, th, iterate_latent(spec, th, z, obs))
            assert math.isfinite(dist.mean) and dist.mean > 0.0


class TestEmbedStep:
    def test_window_of_length_one(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.5], [0.3])
        z = LatentWindow(x=(1.0,), u=())
        z2 = embed_step(spec, th, z, 2)
        assert z2.x == (link_step(spec, th, z, reduce(spec, 2)),)
        assert z2.u == ()

    def test_sliding_window_shape(self):
        spec = loglin_spec(p=2, q=2)
        th = spec.params(0.0, [0.3, 0.1], [0.2, 0.1])
        z = LatentWindow(x=(-1.0, 1.0), u=(0.7,))
        z2 = embed_step(spec, th, z, 3)
        assert z2.x[0] == 1.0
        assert z2.x[1] == link_step(spec, th, z, reduce(spec, 3))
        assert z2.u == (reduce(spec, 3),)

    def test_projection_identity(self):
        spec = loglin_spec(p=2, q=3)
        th = spec.params(0.05, [0.3, -0.2], [0.1, 0.2, -0.1])
        z = LatentWindow(x=(0.5, -0.5), u=(reduce(spec, 1), reduce(spec, 2)))
        assert project_latent(spec, embed_step(spec, th, z, 4)) == link_step(
            spec, th, z, reduce(spec, 4)
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64))
    def test_fold_equals_iterate(self, seed, k):
        rng = np.random.default_rng(seed)
        spec, th = oracles.random_instance(rng, max_order=4)
        z0 = oracles.random_window(spec, rng)
        series = oracles.random_series(spec, rng, k)
        if spec.family == PARX:
            obs = list(zip(series.y, series.covariates))[:k]
        else:
            obs = list(series.y)[:k]
        z = z0
        for y in obs:
            z = embed_step(spec, th, z, y)
        assert project_latent(spec, z) == iterate_latent(spec, th, z0, obs)


class TestDefaultInitialWindow:
    def test_loglin_all_zero(self):
        spec = loglin_spec(p=2, q=3)
        z = default_initial_window(spec, ObservationSeries(y=(3, 1, 4)))
        assert z.x == (0.0, 0.0)
        assert z.u == (0.0, 0.0)

    def test_nbin_sample_mean(self):
        spec = nbin_spec(p=2, q=2)
        y = (4, 9, 8, 7, 5, 6, 7, 7, 6, 5)  # mean 6.4
        z = default_initial_window(spec, ObservationSeries(y=y))
        assert z.x == (6.4, 6.4)
        assert z.u == (4.0,)
        assert all(v > 0 for v in z.x)

    def test_parx_pattern(self):
        spec = parx_spec(p=2, q=2)
        series = ObservationSeries(y=(2, 3, 1), covariates=((1.0, -1.0),) * 3)
        z = default_initial_window(spec, series)
        assert z.x[0][1] == (1.0, -1.0)
        assert z.u[0][0] == 2.0
        assert z.u[0][2] == (1.0, -1.0)


class TestDomainClosure:
    def test_nonneg_families_stay_above_omega(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            spec, th = oracles.random_instance(rng, families=(NBIN, PARX))
            z = oracles.random_window(spec, rng)
            series = oracles.random_series(spec, rng, 30)
            obs = (
                list(zip(series.y, series.covariates))
                if spec.family == PARX
                else list(series.y)
            )
            for y in obs:
                z = embed_step(spec, th, z, y)
                x = project_latent(spec, z)
                val = x[0] if spec.family == PARX else x
                assert val >= th.omega > 0


def test_geometric_contraction_slope():
    # Stable coefficients: two windows driven by the same data approach each
    # other geometrically, so log-gap against step index has negative slope.
    rng = np.random.default_rng(3)
    spec = loglin_spec(p=2, q=1)
    th = spec.params(0.1, [0.5, 0.2], [0.25])
    z1 = LatentWindow(x=(2.0, -1.0), u=())
    z2 = LatentWindow(x=(-2.0, 1.5), u=())
    ys = [int(v) for v in rng.poisson(2.0, 200)]
    gaps = []
    for y in ys:
        z1 = embed_step(spec, th, z1, y)
        z2 = embed_step(spec, th, z2, y)
        gaps.append(abs(project_latent(spec, z1) - project_latent(spec, z2)))
    ks = [k for k, g in enumerate(gaps, start=1) if g > 0]
    logs = [math.log(gaps[k - 1]) for k in ks]
    slope = np.polyfit(ks, logs, 1)[0]
    assert slope < 0


class TestParamsAndWindows:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec, th = oracles.random_instance(rng)
            vec = pack_params(spec, th)
            assert len(param_names(spec)) == vec.size
            th2 = unpack_params(spec, vec)
            assert th2 == th

    def test_family_constraints(self):
        spec = nbin_spec()
        with pytest.raises(DomainError):
            spec.params(-1.0, [0.1], [0.1], r=2.0)
        with pytest.raises(DomainError):
            spec.params(1.0, [-0.1], [0.1], r=2.0)
        with pytest.raises(DomainError):
            spec.params(1.0, [0.1], [0.1], r=0.0)
        with pytest.raises(DomainError):
            validate_params(loglin_spec(), ParameterVector(0.0, (0.1,), (0.1,), r=2.0))
        # log-linear coefficients are unrestricted reals
        loglin_spec().params(-3.0, [-0.9], [0.9])

    def test_parx_config_validation(self):
        with pytest.raises(ValueError):
            ParxConfig(r_dim=1, feature_kinds=("abs", "square"), aleph=((0.5,),), sigma=1.0)
        with pytest.raises(ValueError):
            ParxConfig(r_dim=1, feature_kinds=("abs",), aleph=((1.2,),), sigma=1.0)
        with pytest.raises(ValueError):
            ParxConfig(r_dim=1, feature_kinds=("abs",), aleph=((0.5,),), sigma=0.0)

    @pytest.mark.parametrize("r_dim", [1, 2])
    def test_parx_config_rejects_non_finite_constants(self, r_dim):
        eye = tuple(tuple(0.5 * (i == j) for j in range(r_dim)) for i in range(r_dim))
        nan_corner = eye[:-1] + (eye[-1][:-1] + (math.nan,),)
        with pytest.raises(ValueError, match="aleph"):
            ParxConfig(r_dim=r_dim, feature_kinds=("abs",), aleph=nan_corner, sigma=1.0)
        with pytest.raises(ValueError, match="sigma"):
            ParxConfig(r_dim=r_dim, feature_kinds=("abs",), aleph=eye, sigma=math.inf)

    def test_series_validation(self):
        with pytest.raises(DomainError):
            ObservationSeries(y=(1, -2))
        with pytest.raises(ValueError):
            ObservationSeries(y=(1, 2), covariates=((0.0,),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5, -1, np.float64("nan"),
                                     pytest.param(np.float64("inf"), id="np-inf"),
                                     pytest.param(np.float32(2.5), id="np-float32-2.5")])
    def test_series_rejects_non_counts(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. a RuntimeWarning from numpy inf % 1
            with pytest.raises(DomainError, match="nonnegative integers"):
                ObservationSeries(y=(1, bad))

    def test_first_bad_count_past_the_first_block(self):
        y = np.zeros(5 * 2**16)
        y[70_000], y[200_000] = 2.5, -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                ObservationSeries(y=y)
        assert str(err.value) == "counts must be nonnegative integers, got 2.5"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_series_rejects_non_finite_covariates(self, bad):
        with pytest.raises(DomainError, match="covariates must be finite"):
            ObservationSeries(y=(1, 2), covariates=((0.5, -1.0), (bad, 1.0)))

    def test_series_accepts_integral_values(self):
        # the series stores float(v) for each count v in a read-only float64
        # array; 10**30 has no exact float64 form and is stored as the nearest
        # double, 1000000000000000019884624838656
        for y in ((0, 3), (True, False), (np.int64(2), np.uint8(7)), (2.0, 0.0),
                  (10**30, np.float32(3.0))):
            got = ObservationSeries(y=y).y
            assert got.dtype == np.float64 and not got.flags.writeable
            assert got.tolist() == [float(v) for v in y]
        assert int(ObservationSeries(y=(10**30,)).y[0]) == 1000000000000000019884624838656

    def test_series_equality_is_exact(self):
        series = ObservationSeries(y=(1, 2), covariates=((0.5,), (-1.0,)))
        assert series == ObservationSeries(y=np.array([1.0, 2.0]), covariates=[[0.5], [-1.0]])
        assert series != ObservationSeries(y=(1, 3), covariates=((0.5,), (-1.0,)))
        assert series != ObservationSeries(y=(1, 2), covariates=((0.5,), (-1.5,)))
        assert series != ObservationSeries(y=(1, 2))
        assert series != (1, 2)

    def test_read_only_float64_input_is_not_copied(self):
        y = np.array([1.0, 2.0, 3.0])
        y.flags.writeable = False
        assert ObservationSeries(y=y).y is y
        writable = np.array([1.0, 2.0])
        stored = ObservationSeries(y=writable).y
        writable[0] = 5.0  # the series holds its own copy
        assert stored.tolist() == [1.0, 2.0] and not stored.flags.writeable

    def test_count_sum_matches_python_integer_sum(self):
        # counts below 2^30 over 10^5 terms: every partial sum is an integer
        # below 2^53, so numpy's pairwise order adds exactly
        ints = np.random.default_rng(8).integers(0, 2**30, 10**5).tolist()
        series = ObservationSeries(y=ints)
        assert int(series.y.sum()) == sum(ints)
        assert _count_mean(series) == sum(ints) / len(ints)
        spec = nbin_spec()
        assert default_initial_window(spec, series).x == (sum(ints) / len(ints),)
