import hashlib
import itertools
import math
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import odmlab.fit
from odmlab.families import CLAMP_HI, CLAMP_LO, ClampWarning, lnfact, log_density, predictive
from odmlab.fit import FitOptions, default_box, fit_mle, forecast_one_step
from odmlab.likelihood import (
    GradientUndefinedError,
    _kernel,
    _loglik_prepared,
    _prepare,
    finite_diff_grad,
    grad_loglik,
    loglik,
)
from odmlab.model import (
    LOGLIN,
    NBIN,
    PARX,
    _LAST_LOOP,
    LatentWindow,
    ObservationSeries,
    default_initial_window,
    pack_params,
    unpack_params,
)
from odmlab.simulate import SimConfig, simulate_series

import oracles
from test_model import loglin_spec, nbin_spec, oracle_instances, parx_spec


def zero_window(spec):
    return LatentWindow(x=(0.0,) * spec.p, u=(0.0,) * (spec.q - 1))


class TestLoglikValues:
    def test_pinned_latent_two_zeros(self):
        spec = loglin_spec()
        th = spec.params(0.0, [0.0], [0.0])
        val = loglik(spec, th, zero_window(spec), ObservationSeries(y=(0, 0)))
        assert val.normalized == -1.0
        assert val.total == -1.0
        assert val.n == 1

    def test_pinned_latent_arbitrary_count(self):
        spec = loglin_spec()
        th = spec.params(0.0, [0.0], [0.0])
        for y1 in (1, 4, 9):
            val = loglik(spec, th, zero_window(spec), ObservationSeries(y=(5, y1)))
            assert val.normalized == pytest.approx(-1.0 - math.lgamma(y1 + 1), abs=1e-12)

    def test_matches_brute_force_all_families(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            spec, th = oracles.random_instance(rng)
            series = oracles.random_series(spec, rng, int(rng.integers(5, 60)))
            z = oracles.random_window(spec, rng)
            total, normalized = oracles.brute_force_loglik(spec, th, z, series)
            val = loglik(spec, th, z, series)
            assert val.total == pytest.approx(total, abs=1e-12)
            assert val.normalized == pytest.approx(normalized, abs=1e-12)

    def test_per_term_consistent_with_log_density(self):
        rng = np.random.default_rng(8)
        spec, th = oracles.random_instance(rng, families=(NBIN,))
        series = oracles.random_series(spec, rng, 30)
        z = default_initial_window(spec, series)
        val = loglik(spec, th, z, series)
        for k in range(1, series.n + 1):
            assert val.per_term[k - 1] == pytest.approx(
                log_density(spec, th, val.latent_path[k], series.y[k]), abs=1e-12
            )

    def test_streaming_mode_drops_arrays(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.2], [0.1])
        val = loglik(spec, th, zero_window(spec), ObservationSeries(y=(1, 2, 3)), keep_path=False)
        assert val.per_term is None and val.latent_path is None
        full = loglik(spec, th, zero_window(spec), ObservationSeries(y=(1, 2, 3)))
        assert val.total == full.total

    def test_prefix_additivity(self):
        rng = np.random.default_rng(15)
        spec, th = oracles.random_instance(rng)
        series = oracles.random_series(spec, rng, 40)
        z = oracles.random_window(spec, rng)
        full = loglik(spec, th, z, series)
        if spec.family == PARX:
            shorter = ObservationSeries(y=series.y[:-1], covariates=series.covariates[:-1])
        else:
            shorter = ObservationSeries(y=series.y[:-1])
        prev = loglik(spec, th, z, shorter)
        assert full.total == pytest.approx(prev.total + full.per_term[-1], abs=1e-12)
        assert full.latent_path[:-1] == prev.latent_path

    @pytest.mark.filterwarnings("ignore::odmlab.families.ClampWarning")
    def test_non_finite_latent_flagged(self):
        # huge a2 blows the latent up to inf, then a1 = 0 makes 0 * inf = nan
        spec = loglin_spec(2, 1)
        th = spec.params(1.0, [0.0, 1e200], [0.5])
        series = ObservationSeries(y=tuple([2] * 40))
        val = loglik(spec, th, zero_window(spec), series)
        assert val.total == -math.inf
        assert val.bad_term is not None
        assert val.normalized == -math.inf
        assert len(val.latent_path) == series.n + 1
        assert len(val.per_term) == val.bad_term

    def test_clamping_counted_and_warned_once(self):
        spec = loglin_spec()
        th = spec.params(0.0, [2.0], [0.0])
        series = ObservationSeries(y=tuple([1] * 30))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            val = loglik(spec, th, LatentWindow(x=(1.0,), u=()), series)
        out = [k for k, x in enumerate(val.latent_path) if k and not CLAMP_LO <= x <= CLAMP_HI]
        assert val.clamped == len(out) > 0
        assert [w.category for w in caught] == [ClampWarning]
        assert f"{len(out)} of {series.n}" in str(caught[0].message)
        assert f"first at term {out[0]}" in str(caught[0].message)

    def test_one_observation_has_no_likelihood(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.2], [0.1])
        series = ObservationSeries(y=(3,))
        with pytest.raises(ValueError, match="at least two observations"):
            loglik(spec, th, zero_window(spec), series)
        with pytest.raises(ValueError, match="at least two observations"):
            grad_loglik(spec, th, zero_window(spec), series)

    def test_covariate_flag_restricted_to_parx(self):
        spec = loglin_spec()
        th = spec.params(0.0, [0.0], [0.0])
        with pytest.raises(ValueError):
            loglik(spec, th, zero_window(spec), ObservationSeries(y=(0, 0)),
                   include_covariate_density=True)



def _pinned_term_cases():
    l11, l22, n11, x11 = loglin_spec(), loglin_spec(2, 2), nbin_spec(), parx_spec(1, 1)
    return {
        "loglin11": (l11, l11.params(0.1, [0.5], [0.3]), l11.params(0.15, [0.45], [0.3])),
        "loglin22": (l22, l22.params(0.1, [0.3, 0.2], [0.2, 0.1]),
                     l22.params(0.05, [0.35, 0.15], [0.25, 0.1])),
        "nbin11": (n11, n11.params(1.0, [0.3], [0.2], r=2.0),
                   n11.params(0.9, [0.35], [0.2], r=2.5)),
        "parx11": (x11, x11.params(0.5, [0.3], [0.2], gamma=[0.3, 0.1]),
                   x11.params(0.6, [0.25], [0.2], gamma=[0.2, 0.15])),
    }


def _terms_digest(val):
    return hashlib.sha256(repr(val.per_term).encode()).hexdigest()


# sha256 of repr(per_term): every term's bits, not only their sum; the
# series are simulated at the first parameters and scored at the second
PINNED_TERM_DIGESTS = {
    "clamped": "f5edd4d4a6cfa91f4b2b4357c7a11849b47babb353a5f75b36fe15c52d7be801",
    "loglin11": "fa280698c1a41966a8b7453423ef61b0e7ca7f891f6151b4ed82c21384933302",
    "loglin22": "5a7877c3bf6ae2afd7dabdeb9c21b1ef450690c5340bbf31d12f893502879b06",
    "nbin11": "c20bc6802ffa95a3497467c6da7d8b4f993e91167ae38ee0f5368d8a7cb43441",
    "parx11": "12bf0ef8f31484804c647ad8b526a78a5bcbfee4a583556ad93bc4e5926ab55c",
}


class TestPinnedTerms:
    @pytest.mark.parametrize("name", sorted(_pinned_term_cases()))
    def test_digest(self, name):
        spec, th_sim, th = _pinned_term_cases()[name]
        series = simulate_series(spec, th_sim, SimConfig(n=400, burn_in=100, seed=47)).series
        val = loglik(spec, th, default_initial_window(spec, series), series)
        assert _terms_digest(val) == PINNED_TERM_DIGESTS[name]

    def test_clamped_series(self):
        # the series of test_clamping_counted_and_warned_once
        spec = loglin_spec()
        th = spec.params(0.0, [2.0], [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val = loglik(spec, th, LatentWindow(x=(1.0,), u=()), ObservationSeries(y=(1,) * 30))
        assert _terms_digest(val) == PINNED_TERM_DIGESTS["clamped"]


class TestParxObjectiveSplit:
    def setup_method(self):
        rng = np.random.default_rng(23)
        self.spec = parx_spec(p=1, q=1)
        self.th1 = self.spec.params(0.5, [0.3], [0.2], gamma=[0.2, 0.1])
        self.th2 = self.spec.params(1.1, [0.1], [0.4], gamma=[0.0, 0.3])
        sim = simulate_series(self.spec, self.th1, SimConfig(n=80, burn_in=100, seed=31))
        self.series = sim.series
        self.z = default_initial_window(self.spec, self.series)

    def test_covariate_term_is_theta_free(self):
        def ell_sum(th):
            with_cov = loglik(self.spec, th, self.z, self.series, include_covariate_density=True)
            without = loglik(self.spec, th, self.z, self.series)
            return with_cov.total - without.total

        assert ell_sum(self.th1) == pytest.approx(ell_sum(self.th2), abs=1e-9)

    def test_argmax_unchanged_on_grid(self):
        omegas = np.linspace(0.2, 1.5, 12)
        plain = []
        joint = []
        for om in omegas:
            th = self.spec.params(om, [0.3], [0.2], gamma=[0.2, 0.1])
            plain.append(loglik(self.spec, th, self.z, self.series).total)
            joint.append(
                loglik(self.spec, th, self.z, self.series, include_covariate_density=True).total
            )
        assert int(np.argmax(plain)) == int(np.argmax(joint))


class TestGradient:
    def test_iid_score_formula(self):
        spec = loglin_spec()
        th = spec.params(0.4, [0.0], [0.0])
        rng = np.random.default_rng(3)
        series = ObservationSeries(y=tuple(int(v) for v in rng.poisson(1.5, 200)))
        g = grad_loglik(spec, th, zero_window(spec), series)
        n = series.n
        expected = sum(series.y[1:]) / n - math.exp(0.4)
        assert g[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            spec, th = oracles.random_instance(rng, stable=True)
            sim = simulate_series(spec, th, SimConfig(n=int(rng.integers(50, 150)),
                                                      burn_in=50, seed=int(rng.integers(1 << 30))))
            z = default_initial_window(spec, sim.series)
            g = grad_loglik(spec, th, z, sim.series)
            fd = finite_diff_grad(spec, th, z, sim.series)
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6)
            assert np.max(rel) < 1e-5

    def test_zero_at_closed_form_mle(self):
        spec = loglin_spec()
        rng = np.random.default_rng(9)
        series = ObservationSeries(y=tuple(int(v) for v in rng.poisson(2.0, 400)))
        omega_hat = math.log(sum(series.y[1:]) / series.n)
        th = spec.params(omega_hat, [0.0], [0.0])
        g = grad_loglik(spec, th, zero_window(spec), series)
        assert abs(g[0]) < 1e-10

    def test_undefined_when_clamped(self):
        spec = loglin_spec()
        th = spec.params(0.0, [5.0], [0.0])
        z = LatentWindow(x=(300.0,), u=())
        series = ObservationSeries(y=(1, 1, 1))
        with pytest.raises(GradientUndefinedError):
            grad_loglik(spec, th, z, series)


SPECS = {"loglin": loglin_spec, "nbin": nbin_spec, "parx": parx_spec}


def random_point(spec, rng):
    """A point with coefficient mass 0.7: in the stability region for NBIN
    and PARX, and a slowly moving latent for the log-linear family."""
    if spec.family == LOGLIN:
        a = rng.uniform(-1.0, 1.0, spec.p)
        b = rng.uniform(-1.0, 1.0, spec.q)
        scale = 0.7 / (np.abs(a).sum() + np.abs(b).sum())
        return spec.params(rng.uniform(-0.5, 0.8), a * scale, b * scale)
    a = rng.uniform(0.0, 1.0, spec.p)
    b = rng.uniform(0.0, 1.0, spec.q)
    if spec.family == NBIN:
        r = rng.uniform(0.5, 4.0)
        scale = 0.7 / (a.sum() + r * b.sum())
        return spec.params(rng.uniform(0.3, 2.0), a * scale, b * scale, r=r)
    scale = 0.7 / (a.sum() + b.sum())
    return spec.params(rng.uniform(0.3, 2.0), a * scale, b * scale,
                       gamma=rng.uniform(0.0, 0.5, spec.parx.d))


class TestPrepared:
    """The one prepared form against the oracles' per-element reductions."""

    def test_reductions_match_oracle_elementwise(self):
        for spec, th, z, series, obs, path in oracle_instances():
            # y_0 does not recur; 300 takes lnfact's lgamma branch; 3.0 is a
            # float count
            y = (999, *series.y[1:-2].tolist(), 300, 3.0)
            series = ObservationSeries(y=y, covariates=series.covariates)
            n = series.n
            prep = _prepare(spec, z, series)
            _, us, feats = oracles.attach_series(spec, z, series)
            assert prep.u.tolist() == [us[t] for t in range(n + 1)]
            assert prep.y.tolist() == [float(v) for v in y[1:]]
            # the count table: every y_k, and so its ln y!, gathers from it
            distinct = sorted(set(y[1:]))
            assert prep.distinct.tolist() == distinct
            assert prep.distinct[prep.index].tolist() == [float(v) for v in y[1:]]
            assert prep._mult.tolist() == [y[1:].count(v) for v in distinct]
            if spec.family == PARX:
                # (d, n + 1): column t is the feature row f_t
                assert prep.feats.T.tolist() == [list(feats[t]) for t in range(n + 1)]


    def test_lnf_sum_is_the_fsum_of_every_term(self):
        rng = np.random.default_rng(2025)
        big = [0, 1, 255, 256, 257, 10**6, 2**53, 10**15, 2 * 10**17]
        cases = [np.zeros(50), np.array([3.0]), np.full(77, 2.0**53), np.full(1000, 1e15),
                 np.repeat(np.arange(250.0, 262.0), 41)]
        for i in range(500):
            n = int(rng.integers(1, 2000))
            kind = i % 4
            if kind == 0:
                y = rng.poisson(rng.uniform(0.1, 60.0), n)
            elif kind == 1:
                y = rng.integers(0, 10**9, n, endpoint=True)
            elif kind == 2:  # lnfact's lgamma branch, with repeats
                y = rng.integers(257, 257 + int(rng.integers(1, 500)), n)
            else:
                y = rng.choice(big, n)
            cases.append(y.astype(float))
        for i, y in enumerate(cases):
            spec = (loglin_spec, nbin_spec)[i % 2]()  # the log-linear prepare sorts up front
            series = ObservationSeries(y=np.concatenate(([5.0], y)))
            got = _prepare(spec, zero_window(spec), series).lnf_sum
            want = math.fsum([lnfact(int(v)) for v in y.tolist()])
            assert struct.pack("<d", got) == struct.pack("<d", want), (i, got, want)

    @pytest.mark.parametrize("family,p,q", itertools.product(SPECS, (1, 2, 3), (1, 2, 3)))
    def test_forecast_latent_is_the_paths_last(self, family, p, q):
        rng = np.random.default_rng([p, q, len(family), 7])
        spec = SPECS[family](p, q)
        for n in (0, 1, 2, 60):
            th = random_point(spec, rng)
            series = oracles.random_series(spec, rng, n)
            z = oracles.random_window(spec, rng)
            prep = _prepare(spec, z, series, min_n=0)
            x = prep.latent_path(th, n + 1, _LAST_LOOP)
            assert struct.pack("<d", x) == struct.pack("<d", prep.latent_path(th, n + 1)[-1])
            assert forecast_one_step(spec, th, z, series) == predictive(spec, th, x)

    @pytest.mark.filterwarnings("ignore::odmlab.families.ClampWarning")
    def test_kernel_fields_are_built_on_first_use(self, monkeypatch):
        count_fields = {"_table"}
        kernel_fields = {"matrix", "lnf_sum", "_mult"}
        made = []
        monkeypatch.setattr(odmlab.fit, "_prepare",
                            lambda *args, **kw: made.append(_prepare(*args, **kw)) or made[-1])
        for spec, th, z, series, obs, path in oracle_instances():
            forecast_one_step(spec, th, z, series)
            # the log-linear u needs the sort; the NBIN and PARX forecast sorts nothing
            sorted_up_front = {"_table"} if spec.family == LOGLIN else set()
            assert (count_fields | kernel_fields) & vars(made[-1]).keys() == sorted_up_front
            prep = _prepare(spec, z, series)
            _loglik_prepared(spec, th, prep, True, False)
            assert not kernel_fields & vars(prep).keys()
            _kernel(prep, pack_params(spec, th))
            assert kernel_fields & vars(prep).keys() == kernel_fields


class TestKernel:
    """The vectorized kernel against the sequential pass and central differences."""

    @pytest.mark.parametrize("family,p,q", itertools.product(SPECS, (1, 2, 3), (1, 2, 3)))
    def test_value_and_gradient(self, family, p, q):
        rng = np.random.default_rng([p, q, len(family)])
        spec = SPECS[family](p, q)
        for n in (1, 2, 3, 4, 5, 60):
            th = random_point(spec, rng)
            series = oracles.random_series(spec, rng, n)
            z = oracles.random_window(spec, rng)  # non-constant: every lag distinct
            prep = _prepare(spec, z, series)
            total, g = _kernel(prep, pack_params(spec, th), grad=True)
            ref = _loglik_prepared(spec, th, prep, False, False).total
            assert abs(total - ref) <= 1e-12 * abs(ref)
            fd = finite_diff_grad(spec, th, z, series)
            # criterion 2's rule
            assert np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-4)) < 1e-5
            assert np.array_equal(grad_loglik(spec, th, z, series), g)

    @pytest.mark.filterwarnings("ignore::odmlab.families.ClampWarning")
    @pytest.mark.parametrize(
        "spec,th,z",
        [
            (loglin_spec(), (0.5, [2.0], [0.1]), (0.3,)),
            (loglin_spec(2, 1), (1.0, [0.0, 1e200], [0.5]), (0.0, 0.0)),
            (loglin_spec(1, 2), (1.0, [0.0], [0.5, 0.1]), (0.0,)),
            (nbin_spec(), (1.0, [1e200], [0.1], 2.0), (2.0,)),
            (nbin_spec(1, 2), (1.0, [0.3], [0.2, 0.1], 2.0), (2.0,)),
            (parx_spec(), (0.5, [1e200], [0.1], None, [0.2, 0.1]), ((1.5, (0.0, 0.0)),)),
        ],
    )
    def test_undefined_gradient_matches_sequential_path(self, spec, th, z):
        th = spec.params(*th)
        u = () if spec.q == 1 else (1.0,)
        z = LatentWindow(x=z, u=u)
        y = (1, 3, 0, 2, 5, 1, 0, 4, 2, 1, 3, 0)
        cov = tuple((0.1 * k, -0.2) for k in range(len(y))) if spec.family == PARX else None
        series = ObservationSeries(y=y, covariates=cov)
        val = loglik(spec, th, z, series)
        if spec.family == LOGLIN:
            undefined = [not CLAMP_LO <= x <= CLAMP_HI for x in val.latent_path[1:]]
        else:
            undefined = [not (x > 0.0 and math.isfinite(x)) for x in val.latent_path[1:]]
        total = _kernel(_prepare(spec, z, series), pack_params(spec, th))[0]
        if not any(undefined):
            assert total == pytest.approx(val.total, rel=1e-12)
            grad_loglik(spec, th, z, series)
            return
        first = undefined.index(True) + 1
        with pytest.raises(GradientUndefinedError, match=rf"at term {first} "):
            grad_loglik(spec, th, z, series)
        if spec.family == LOGLIN:
            assert total == pytest.approx(val.total, rel=1e-12)
        else:
            assert total == val.total == -math.inf

    def test_fit_warns_at_most_once_per_start_and_result(self):
        spec = loglin_spec(2, 2)
        th = spec.params(0.1, [0.3, 0.2], [0.2, 0.1])
        sim = simulate_series(spec, th, SimConfig(n=300, burn_in=100, seed=4))
        corner = unpack_params(spec, default_box(spec).upper)
        z = default_initial_window(spec, sim.series)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert loglik(spec, corner, z, sim.series, keep_path=False).clamped > 0
            caught.clear()
            opts = FitOptions(starts=2, extra_starts=(corner,))
            res = fit_mle(spec, sim.series, opts=opts)
        clamps = [w for w in caught if w.category is ClampWarning]
        assert len(clamps) <= res.starts + 1
        assert res.loglik.normalized == max(t.value for t in res.trace)


class TestScipyLoad:
    def test_scipy_loads_with_the_first_fit(self):
        # a fresh interpreter: this one has loaded scipy for other tests
        probe = (
            "import sys\n"
            "import odmlab, odmlab.cli\n"
            "from odmlab.model import NBIN, ModelOrder, ModelSpec\n"
            "print('scipy' in sys.modules)\n"
            "spec = ModelSpec(family=NBIN, order=ModelOrder(1, 1))\n"
            "th = spec.params(1.0, [0.3], [0.2], r=2.0)\n"
            "sim = odmlab.simulate_series(spec, th, odmlab.SimConfig(n=200, seed=3))\n"
            "odmlab.check_model(spec, th)\n"
            "print('scipy' in sys.modules)\n"
            "odmlab.fit_mle(spec, sim.series, opts=odmlab.FitOptions(starts=1))\n"
            "print('scipy.linalg' in sys.modules, 'scipy.special' in sys.modules)\n"
            "print('scipy.optimize' in sys.modules)\n"  # the fit's search is odmlab's own
        )
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True).stdout
        assert out.split() == ["False", "False", "True", "True", "False"]


class TestFiniteDifferences:
    def test_step_halving_quarters_error(self):
        # smooth scalar case with a known derivative: iid Poisson in omega
        spec = loglin_spec()
        rng = np.random.default_rng(12)
        series = ObservationSeries(y=tuple(int(v) for v in rng.poisson(2.0, 300)))
        th = spec.params(0.3, [0.0], [0.0])
        z = zero_window(spec)
        exact = grad_loglik(spec, th, z, series)
        err = []
        for h in (1e-3, 5e-4):
            fd = finite_diff_grad(spec, th, z, series, step=h)
            err.append(abs(fd[0] - exact[0]))
        ratio = err[0] / err[1]
        assert 3.0 < ratio < 5.0


def test_initial_condition_forgetting():
    spec = loglin_spec()
    th = spec.params(0.1, [0.9], [-0.3])
    from odmlab.conditions import check_loglin

    assert check_loglin(spec, th).verdict == "Pass"
    rng = np.random.default_rng(44)
    series = ObservationSeries(y=tuple(int(v) for v in rng.poisson(2.0, 2001)))
    z1 = LatentWindow(x=(4.0,), u=())
    z2 = LatentWindow(x=(-4.0,), u=())
    v1 = loglik(spec, th, z1, series)
    v2 = loglik(spec, th, z2, series)
    gap_50 = abs(v1.latent_path[50] - v2.latent_path[50])
    gap_2000 = abs(v1.latent_path[2000] - v2.latent_path[2000])
    assert gap_50 > 0
    assert gap_2000 < 1e-3 * gap_50
