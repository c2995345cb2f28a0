import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from odmlab import rng as rngmod
from odmlab.families import (
    CLAMP_HI,
    CLAMP_LO,
    PMF_SUPPORT_MAX,
    ClampWarning,
    PredictiveDistribution,
    bind_sampler,
    covariate_log_density,
    log_density,
    lnfact,
    predictive,
    _log_terms,
)
from odmlab.model import (
    FEATURE_KINDS,
    LOGLIN,
    NBIN,
    PARX,
    DomainError,
    ModelOrder,
    ModelSpec,
    ParxConfig,
)
from odmlab.simulate import covariate_path

import oracles
from test_model import loglin_spec, nbin_spec, parx_spec


def family_cases():
    return {
        "loglin": (loglin_spec(), loglin_spec().params(0.0, [0.0], [0.0])),
        "nbin": (nbin_spec(), nbin_spec().params(1.0, [0.0], [0.0], r=2.5)),
        "parx": (parx_spec(), parx_spec().params(0.5, [0.3], [0.2], gamma=[0.3, 0.1])),
    }


class TestLogDensity:
    def test_loglin_at_zero(self):
        spec = loglin_spec()
        th = spec.params(0.0, [0.0], [0.0])
        assert log_density(spec, th, 0.0, 0) == -1.0

    def test_nbin_zero_count(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.0], [0.0], r=2.0)
        assert log_density(spec, th, 1.0, 0) == pytest.approx(-2.0 * math.log(2.0), abs=1e-12)

    def test_loglin_poisson_arithmetic(self):
        spec = loglin_spec()
        th = spec.params(0.0, [0.0], [0.0])
        expected = -2.0 + 3.0 * math.log(2.0) - math.log(6.0)
        assert log_density(spec, th, math.log(2.0), 3) == pytest.approx(expected, abs=1e-12)

    def test_nbin_minus_inf_sentinel(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.0], [0.0], r=2.0)
        assert log_density(spec, th, 0.0, 3) == -math.inf
        assert log_density(spec, th, 0.0, 0) == 0.0

    def test_negative_count_rejected(self):
        spec = loglin_spec()
        th = spec.params(0.0, [0.0], [0.0])
        with pytest.raises(DomainError):
            log_density(spec, th, 0.0, -1)

    @pytest.mark.parametrize("y", [math.inf, math.nan, np.float64("inf"), 2.5, -1, 10**400],
                             ids=["inf", "nan", "np-inf", "2.5", "-1", "10^400"])
    @pytest.mark.parametrize("family", ["loglin", "nbin", "parx"])
    def test_bad_count_is_domain_error(self, family, y):
        spec, th = family_cases()[family]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="counts must be nonnegative integers"):
                log_density(spec, th, 1.0, y)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    @pytest.mark.parametrize("family", ["nbin", "parx"])
    def test_non_finite_latent_is_minus_inf(self, family, x):
        # the likelihood pass's rule: NBIN and PARX are -inf outside (0, inf)
        spec, th = family_cases()[family]
        assert [log_density(spec, th, x, y) for y in (0, 3)] == [-math.inf, -math.inf]

    @pytest.mark.parametrize("family, what", [("nbin", "NBIN latent"), ("parx", "PARX intensity")])
    def test_negative_latent_rejected(self, family, what):
        spec, th = family_cases()[family]
        with pytest.raises(DomainError, match=f"{what} must be >= 0, got -0.5"):
            log_density(spec, th, -0.5, 1)

    def test_clamp_warns(self):
        spec = loglin_spec()
        th = spec.params(0.0, [0.0], [0.0])
        with pytest.warns(ClampWarning):
            log_density(spec, th, 800.0, 2)
        with pytest.warns(ClampWarning):
            log_density(spec, th, -800.0, 0)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            spec, th = oracles.random_instance(rng)
            x = float(rng.uniform(0.05, 4.0)) if spec.family != LOGLIN else float(rng.normal())
            y = int(rng.poisson(3.0))
            assert log_density(spec, th, x, y) == pytest.approx(
                oracles.density_log_pmf(spec, th, x, y), abs=1e-12
            )
            if spec.family == PARX:  # the (intensity, xi) pair that link_step returns
                pair = (x, (0.1,) * spec.parx.r_dim)
                assert log_density(spec, th, pair, y) == log_density(spec, th, x, y)

    def test_lnfact_table_matches_lgamma(self):
        for y in (0, 1, 2, 17, 255, 256, 300, 1000):
            assert lnfact(y) == pytest.approx(math.lgamma(y + 1), rel=1e-13)

    def test_overflowing_lgamma_is_a_domain_error(self):
        huge = 10**306  # ln(y!) overflows a double above about 2.56e305
        assert lnfact(int(2.5e305)) == math.lgamma(2.5e305 + 1.0)
        with pytest.raises(DomainError, match=r"ln Gamma\(y \+ 1\) .* y \+ 1 = 1e\+306"):
            lnfact(huge)
        points = [(loglin_spec(), (0.0, [0.0], [0.0])), (nbin_spec(), (1.0, [0.0], [0.0], 2.0)),
                  (parx_spec(), (1.0, [0.0], [0.0], None, [0.1, 0.1]))]
        for spec, th in points:
            with pytest.raises(DomainError, match=r"= 1e\+306"):
                log_density(spec, spec.params(*th), 1.0, huge)
        spec = nbin_spec()
        with pytest.raises(DomainError, match=r"ln Gamma\(r\) .* r = 1e\+306"):
            log_density(spec, spec.params(1.0, [0.0], [0.0], 1e306), 1.0, 3)


class TestNormalization:
    def test_pmf_sums_to_one(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            spec, th = oracles.random_instance(rng, families=(LOGLIN, NBIN))
            x = float(rng.uniform(0.05, 3.0)) if spec.family == NBIN else float(rng.uniform(-2, 2.5))
            dist = predictive(spec, th, x)
            y_max = dist.quantile(1.0 - 1e-12)
            mass = math.fsum(math.exp(log_density(spec, th, x, y)) for y in range(y_max + 1))
            assert 1.0 - 1e-8 <= mass <= 1.0 + 1e-12


class TestSampling:
    def test_determinism(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.0], [0.0], r=2.0)
        a = bind_sampler(spec, th, 7)(3.0)
        b = bind_sampler(spec, th, 7)(3.0)
        assert a == b

    def test_poisson_underflow_mean(self):
        spec = loglin_spec()
        th = spec.params(0.0, [0.0], [0.0])
        draw = bind_sampler(spec, th, 1)
        assert all(draw(-700.0) == 0 for _ in range(50))

    def test_nbin_moments(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.0], [0.0], r=2.0)
        draw = bind_sampler(spec, th, 123)
        n = 10**5
        draws = np.array([draw(3.0) for _ in range(n)])
        var = 2.0 * 3.0 * 4.0  # r * x * (1 + x)
        assert abs(draws.mean() - 6.0) < 3.0 * math.sqrt(var / n)

    @pytest.mark.parametrize("family", [LOGLIN, NBIN])
    def test_sampler_density_agreement(self, family):
        if family == LOGLIN:
            spec = loglin_spec()
            th = spec.params(0.0, [0.0], [0.0])
            x = 0.9
        else:
            spec = nbin_spec()
            th = spec.params(1.0, [0.0], [0.0], r=2.0)
            x = 1.5
        draw = bind_sampler(spec, th, 99)
        n = 10**5
        draws = np.array([draw(x) for _ in range(n)])
        y_max = int(draws.max())
        counts = np.bincount(draws, minlength=y_max + 1).astype(float)
        probs = np.array([math.exp(log_density(spec, th, x, y)) for y in range(y_max + 1)])
        # pool the tail so every expected bin count is >= 5
        expected = probs * n
        keep = expected >= 5.0
        obs = np.append(counts[keep], counts[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        exp *= obs.sum() / exp.sum()
        p_value = stats.chisquare(obs, exp).pvalue
        assert p_value > 1e-4


class TestCovariates:
    def test_zero_noise_linear_map(self):
        spec = parx_spec(p=1, q=1, r_dim=2, kinds=("abs",))
        out = covariate_path(spec.parx, (2.0, 2.0), np.zeros((2, 2)))
        assert out.tolist() == [[0.8, 0.8], [0.4 * 0.8, 0.4 * 0.8]]  # aleph = 0.4 I

    def test_ar1_stationary_variance(self):
        rho, sigma = 0.6, 0.7
        cfg = ParxConfig(r_dim=1, feature_kinds=("abs",), aleph=((rho,),), sigma=sigma)
        rng = rngmod.substream(17, 0)
        n = 10**6
        xi = (0.0,)
        # independent oracle: filter the same noise stream directly
        noise = rng.standard_normal(n)
        from scipy.signal import lfilter

        path = lfilter([sigma], [1.0, -rho], noise)
        target = sigma**2 / (1.0 - rho**2)
        assert abs(np.var(path[1000:]) - target) / target < 0.02
        # and the simulator's covariate path reproduces one transition of that recursion
        stepped = covariate_path(cfg, xi, sigma * noise[:1, None])
        assert stepped[0, 0] == pytest.approx(rho * xi[0] + sigma * noise[0], abs=1e-12)

    def test_covariate_log_density_gaussian(self):
        spec = parx_spec(p=1, q=1, r_dim=1, kinds=("abs",))
        expected = -0.5 * math.log(2.0 * math.pi * 0.8**2)
        assert covariate_log_density(spec, (0.0,), (0.0,)) == pytest.approx(expected)

    def test_covariate_log_density_rows(self):
        # rows broadcast: m transitions at once; a single pair gives a float;
        # both against the VAR(1) density written out, with a non-symmetric aleph
        rng = np.random.default_rng(9)
        for r_dim in (1, 2, 3):
            aleph = (rng.uniform(-0.3, 0.3, (r_dim, r_dim)) / r_dim).tolist()
            cfg = ParxConfig(r_dim, ("abs",), tuple(map(tuple, aleph)), sigma=0.8)
            spec = ModelSpec(family="parx", order=ModelOrder(1, 1), parx=cfg)
            xi = rng.normal(0.0, 1.0, (30, r_dim))
            expected, s2 = [], 0.8 * 0.8
            for prev, nxt in zip(xi[:-1].tolist(), xi[1:].tolist()):
                resid = [nxt[i] - sum(aleph[i][j] * prev[j] for j in range(r_dim))
                         for i in range(r_dim)]
                expected.append(-0.5 * r_dim * math.log(2.0 * math.pi * s2)
                                - sum(v * v for v in resid) / (2.0 * s2))
            rows = covariate_log_density(spec, xi[:-1], xi[1:])
            single = [covariate_log_density(spec, xi[k], xi[k + 1]) for k in range(29)]
            assert rows.shape == (29,)
            assert all(type(v) is float for v in single)
            if r_dim == 1:
                assert rows.tolist() == single == expected
            else:
                assert rows == pytest.approx(expected, rel=1e-13)
                assert single == pytest.approx(expected, rel=1e-13)


class TestFeatures:
    def test_kinds(self):
        for kind, value in (("square", 4.0), ("abs", 2.0), ("pos_part", 0.0)):
            cfg = parx_spec(kinds=(kind,), r_dim=1).parx
            assert cfg.features([(-2.0,)]).tolist() == [[value]]
            assert oracles.FEATURE_FORMULAS[kind](-2.0) == value
        assert set(oracles.FEATURE_FORMULAS) == set(FEATURE_KINDS)
        # the column form, as a prepared series builds it, equals the scalar
        # formulas bit for bit, signed zero and NaN included
        col = np.array([-0.0, math.nan, -2.0, 1.5])
        for kind in FEATURE_KINDS:
            cfg = parx_spec(kinds=(kind,), r_dim=1).parx
            got = list(map(repr, cfg.features(col[:, None])[0].tolist()))
            assert got == [repr(oracles.FEATURE_FORMULAS[kind](v)) for v in col.tolist()]
            if kind == "pos_part":
                assert got == ["0.0", "0.0", "0.0", "1.5"]

    @pytest.mark.parametrize("r_dim", [1, 2, 3])
    def test_block_equals_rows(self, r_dim):
        # features maps a block at once; row by row, it gives the scalar
        # formulas' bits, signed zeros, NaN and infinities included
        scalar = oracles.FEATURE_FORMULAS
        special = [-0.0, 0.0, math.nan, math.inf, -math.inf, -2.0, 1.5]
        rng = np.random.default_rng(r_dim)
        block = np.vstack([np.array([np.roll(special, j) for j in range(r_dim)]).T,
                           rng.normal(0.0, 3.0, (10, r_dim))])
        eye = tuple(tuple(0.5 * (i == j) for j in range(r_dim)) for i in range(r_dim))
        for d in range(1, r_dim + 1):
            for kinds in itertools.product(FEATURE_KINDS, repeat=d):
                cfg = ParxConfig(r_dim=r_dim, feature_kinds=kinds, aleph=eye, sigma=1.0)
                cols = cfg.features(block)
                assert cols.shape == (d, len(block)) and cols.dtype == np.float64
                got = [list(map(repr, row)) for row in cols.T.tolist()]
                assert got == [[repr(scalar[k](v)) for k, v in zip(kinds, row)]
                               for row in block.tolist()]

    def test_too_many_features_is_config_error(self):
        with pytest.raises(ValueError):
            parx_spec(kinds=("abs", "square", "abs"), r_dim=2)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        spec = parx_spec(kinds=("square", "pos_part"), r_dim=2)
        for _ in range(100):
            row = rng.normal(0.0, 3.0, 2)
            out = spec.parx.features([row])[:, 0].tolist()
            assert all(v >= 0 for v in out)
            assert out == list(oracles.parx_features(spec.parx, row))


class TestPredictive:
    def test_loglin_unit_mean(self):
        spec = loglin_spec()
        th = spec.params(0.0, [0.0], [0.0])
        dist = predictive(spec, th, 0.0)
        assert dist.kind == "poisson" and dist.mean == 1.0

    def test_nbin_mean(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.0], [0.0], r=2.0)
        dist = predictive(spec, th, 3.0)
        assert dist.kind == "negbinomial" and dist.mean == 6.0

    @pytest.mark.parametrize("mean", [-1.0, math.inf, math.nan])
    @pytest.mark.parametrize("kind", ["poisson", "negbinomial"])
    def test_bad_mean_rejected(self, kind, mean):
        dist = PredictiveDistribution(kind=kind, mean=mean, r=2.0)
        with pytest.raises(DomainError, match=f"mean must be finite and >= 0, got {mean}"):
            dist.pmf_values(2)

    @pytest.mark.parametrize("kind", ["poisson", "negbinomial"])
    def test_huge_mean_refused_before_any_work(self, kind):
        dist = PredictiveDistribution(kind=kind, mean=2.0 * PMF_SUPPORT_MAX, r=2.0)
        for call in (lambda: dist.quantile(0.5), lambda: dist.pmf_values(3)):
            with pytest.raises(DomainError, match="above the largest forecast support"):
                call()
        small = PredictiveDistribution(kind=kind, mean=3.0, r=2.0)
        with pytest.raises(DomainError, match=f"support of {PMF_SUPPORT_MAX + 1} counts"):
            small.pmf_values(PMF_SUPPORT_MAX)
        with pytest.raises(DomainError, match="quantile 1.0 of the predictive law at mean 3 "):
            small.quantile(1.0)  # scipy's ppf is inf there

    def test_truncated_pmf_mass(self):
        dist = PredictiveDistribution(kind="negbinomial", mean=6.0, r=2.0)
        y_max = dist.quantile(1.0 - 1e-12)
        mass = math.fsum(dist.pmf_values(y_max))
        assert abs(mass - 1.0) < 1e-10


def _digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


# sha256 of repr of the values: the count law's bits on a fixed grid.  The
# grid holds the latent 0 with and without a count (NBIN, PARX) and latents
# clamped on both sides (log-linear).
PINNED_DENSITY_DIGEST = "2323755410fb9fdb096ce6dc0a8a377d90313e76ee7bdf896934af74d72fb993"
PINNED_PMF_DIGEST = "831d54759fc0ab25d84eca13718d2cec27fc4b72ea445ed83726f9ea0cf3429f"
DENSITY_COUNTS = (0, 1, 2, 3, 7, 17, 256, 300)
DENSITY_LATENTS = {
    "loglin": (-800.0, -745.5, -3.25, -0.0, 0.0, 0.7, 2.0, 699.5, 800.0),
    "nbin": (0.0, 1e-300, 0.03, 0.3, 2.0, 17.5, 1e6),
    "parx": (0.0, 1e-300, 0.4, 3.0, 250.0),
}


class TestPinnedLaw:
    def test_log_density_grid(self):
        out = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampWarning)
            for fam, (spec, th) in family_cases().items():
                out += [log_density(spec, th, x, y)
                        for x in DENSITY_LATENTS[fam] for y in DENSITY_COUNTS]
        assert _digest(out) == PINNED_DENSITY_DIGEST

    def test_pmf_values(self):
        dists = [PredictiveDistribution(kind="poisson", mean=m) for m in (0.0, 0.3, 4.5, 25.0)]
        dists += [PredictiveDistribution(kind="negbinomial", mean=m, r=r)
                  for m in (0.0, 0.7, 6.0) for r in (0.8, 2.0, 13.5)]
        assert _digest([d.pmf_values(40).tolist() for d in dists]) == PINNED_PMF_DIGEST


# latents the term pass treats specially: signed zeros, the least subnormal,
# the infinities, NaN, and each clamp bound with its neighbour outside
SPECIAL_LATENTS = (0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, CLAMP_LO, CLAMP_HI,
                   math.nextafter(CLAMP_LO, -math.inf), math.nextafter(CLAMP_HI, math.inf))


def test_log_terms_match_scalar_reference():
    """The array pass gives the scalar loop's bits on every term that is not NaN."""
    rng = np.random.default_rng(2024)
    for case in range(600):
        family = (LOGLIN, NBIN, PARX)[case % 3]
        n = int(rng.integers(1, 60))
        if family == LOGLIN:
            xs = rng.uniform(-800.0, 800.0, n)
        else:
            xs = np.exp(rng.uniform(-30.0, 8.0, n)) * rng.choice([1.0, 1.0, 1.0, -1.0], n)
        spots = rng.random(n) < 0.25
        xs[spots] = rng.choice(SPECIAL_LATENTS, int(spots.sum()))
        ys = np.floor(10.0 ** rng.uniform(0.0, 15.0, n)) * (rng.random(n) < 0.7)
        small = rng.random(n) < 0.3
        ys[small] = rng.poisson(2.0, int(small.sum()))
        r = float(rng.uniform(0.05, 40.0))
        lnf = np.array([lnfact(int(v)) for v in ys.tolist()])
        table = np.unique(ys, return_inverse=True) if case % 2 else (ys,)
        got, clamped, first = _log_terms(family, r, xs.tolist(), *table)
        want, want_clamped, want_first = oracles.scalar_log_terms(
            family, r, xs.tolist(), ys.tolist(), lnf.tolist())
        want = np.array(want)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), case
        assert got[~nan].tobytes() == want[~nan].tobytes(), case
        assert (clamped, first) == (want_clamped, want_first), case
