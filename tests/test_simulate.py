import dataclasses
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from odmlab import families
from odmlab import rng as rngmod
from odmlab.model import (
    FEATURE_KINDS,
    LOGLIN,
    NBIN,
    PARX,
    ModelOrder,
    ModelSpec,
    ParxConfig,
    constant_window,
)
from odmlab.simulate import (
    LatentExplosionError,
    SimConfig,
    SimResult,
    default_simulation_window,
    simulate_series,
    stationary_moment_estimate,
)

import oracles
from test_model import loglin_spec, nbin_spec, parx_spec


class TestDeterminism:
    def test_same_seed_identical(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.5], [0.3])
        a = simulate_series(spec, th, SimConfig(n=200, seed=42))
        b = simulate_series(spec, th, SimConfig(n=200, seed=42))
        assert a == b
        assert a.series.y.tolist() == b.series.y.tolist()
        assert a.latents.tolist() == b.latents.tolist()

    def test_different_seed_differs(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.5], [0.3])
        a = simulate_series(spec, th, SimConfig(n=200, seed=1))
        b = simulate_series(spec, th, SimConfig(n=200, seed=2))
        assert a != b
        assert a.series.y[:10].tolist() != b.series.y[:10].tolist()


class TestSimConfig:
    @pytest.mark.parametrize("field, value", [("n", 10.5), ("n", True), ("burn_in", 2.5),
                                              ("burn_in", True), ("seed", 1.5), ("seed", True),
                                              ("seed", "3")])
    def test_non_integer_counts_rejected(self, field, value):
        SimConfig(**{"n": 10, field: np.int64(3)})  # numpy integers are integers
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            SimConfig(**{"n": 10, field: value})

    def test_64_bit_seeds_accepted(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.3], [0.2], r=2.0)
        seed = int(np.random.SeedSequence(7).generate_state(1, dtype=np.uint64)[0])
        assert seed >= 2**63
        a = simulate_series(spec, th, SimConfig(n=20, seed=seed))
        assert a == simulate_series(spec, th, SimConfig(n=20, seed=np.uint64(seed)))


class TestArrays:
    @pytest.mark.parametrize("family", ["loglin", "nbin", "parx"])
    def test_read_only_float64(self, family):
        spec = {"loglin": loglin_spec, "nbin": nbin_spec, "parx": parx_spec}[family](2, 1)
        extra = {"nbin": {"r": 2.0}, "parx": {"gamma": [0.2, 0.1]}}.get(family, {})
        th = spec.params(0.5, [0.2, 0.1], [0.3], **extra)
        sim = simulate_series(spec, th, SimConfig(n=40, burn_in=5, seed=3))
        arrays = [sim.series.y, sim.latents]
        if family == "parx":
            assert sim.series.covariates.shape == (41, spec.parx.r_dim)
            arrays.append(sim.series.covariates)
        else:
            assert sim.series.covariates is None
        for arr in arrays:
            assert arr.dtype == np.float64 and len(arr) == 41
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_equality_is_exact_and_checks_dtype(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.3], [0.2], r=2.0)
        a = simulate_series(spec, th, SimConfig(n=100, seed=5))
        assert a == simulate_series(spec, th, SimConfig(n=100, seed=5))
        assert a != simulate_series(spec, th, SimConfig(n=100, seed=6))
        whole = np.floor(a.latents)  # exact in float32 too
        assert dataclasses.replace(a, latents=whole) == dataclasses.replace(a, latents=whole.copy())
        assert dataclasses.replace(a, latents=whole) != dataclasses.replace(
            a, latents=whole.astype(np.float32)
        )
        assert a != dataclasses.replace(a, seed=6)

    def test_moment_estimate_holds_its_output_once(self):
        # the two float64 arrays it averages take 16 bytes a step
        spec = nbin_spec()
        th = spec.params(1.0, [0.3], [0.2], r=2.0)
        n = 200_000
        tracemalloc.start()
        try:
            stationary_moment_estimate(spec, th, n=n, seed=505, batches=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * n

    def test_parx_simulation_peak(self):
        # the output holds 24 bytes a step (counts, latents, one covariate);
        # the feature column and its one temporary take 16 more
        spec = parx_spec(r_dim=1, kinds=("abs",))
        th = spec.params(0.5, [0.3], [0.2], gamma=[0.2])
        n = 200_000
        tracemalloc.start()
        try:
            simulate_series(spec, th, SimConfig(n=n - 1, burn_in=0, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * n

    def test_simulation_peak(self):
        # counts and latents take 16 bytes a step; checking the counts adds
        # one bounded block, not a temporary as long as the series
        spec = nbin_spec()
        th = spec.params(1.0, [0.3], [0.2], r=2.0)
        n = 200_000
        simulate_series(spec, th, SimConfig(n=10, seed=1))  # first use imports numpy.random
        tracemalloc.start()
        try:
            simulate_series(spec, th, SimConfig(n=n - 1, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * n


class TestMoments:
    def test_iid_loglin_mean(self):
        spec = loglin_spec()
        omega = 0.5
        th = spec.params(omega, [0.0], [0.0])
        n = 10**5
        sim = simulate_series(spec, th, SimConfig(n=n - 1, burn_in=0, seed=10))
        mean = math.exp(omega)
        assert abs(np.mean(sim.series.y) - mean) < 3.0 * math.sqrt(mean / n)

    def test_nbin_stationary_mean_estimate(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.3], [0.2], r=2.0)
        est = stationary_moment_estimate(spec, th, n=200_000, seed=3, batches=50)
        assert abs(est.mean_x - 10.0 / 3.0) < 3.0 * est.se_x
        assert abs(est.mean_y - 20.0 / 3.0) < 3.0 * est.se_y

    @pytest.mark.parametrize("batches", [1, 0, -3, 2.5, 4.0, True])
    def test_fewer_than_two_batches_rejected(self, batches):
        # a count that is not an integer is rejected before anything is simulated
        spec = nbin_spec()
        th = spec.params(1.0, [0.3], [0.2], r=2.0)
        if type(batches) is int:
            message = f"batches must be >= 2, got {batches}"
        else:
            message = f"batches must be an integer, got {batches!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                stationary_moment_estimate(spec, th, n=1000, seed=3, batches=batches)

    def test_fractional_n_named_as_passed(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.3], [0.2], r=2.0)
        with pytest.raises(ValueError, match=f"^{re.escape('n must be an integer, got 1000.5')}$"):
            stationary_moment_estimate(spec, th, n=1000.5, seed=3)

    def test_iid_regimes_match_formulas(self):
        spec = nbin_spec()
        th = spec.params(1.3, [0.0], [0.0], r=2.0)
        est = stationary_moment_estimate(spec, th, n=100_000, seed=4)
        assert abs(est.mean_y - 2.0 * 1.3) < 3.0 * est.se_y

    def test_se_scales_like_sqrt_n(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.3], [0.2], r=2.0)
        ratios = []
        for seed in (11, 12, 13):
            small = stationary_moment_estimate(spec, th, n=40_000, seed=seed)
            big = stationary_moment_estimate(spec, th, n=80_000, seed=seed + 100)
            ratios.append(big.se_y / small.se_y)
        assert 0.55 < float(np.median(ratios)) < 0.9

    def test_conditional_mean_regression(self):
        # binned E[y | x] should match the conditional mean map r * x
        spec = nbin_spec()
        th = spec.params(1.0, [0.3], [0.2], r=2.0)
        sim = simulate_series(spec, th, SimConfig(n=10**6, burn_in=1000, seed=17))
        xs = np.asarray(sim.latents)
        ys = np.asarray(sim.series.y, dtype=float)
        edges = np.quantile(xs, np.linspace(0.05, 0.95, 7))
        idx = np.digitize(xs, edges)
        for bin_id in range(1, 6):
            mask = idx == bin_id
            count = int(mask.sum())
            if count < 1000:
                continue
            ybar = ys[mask].mean()
            target = 2.0 * xs[mask].mean()
            var = ys[mask].var(ddof=1)
            assert abs(ybar - target) < 3.0 * math.sqrt(var / count) + 0.02

    def test_burn_in_invariance(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.3], [0.2], r=2.0)
        za = constant_window(spec, 0.5, 0)
        zb = constant_window(spec, 20.0, 12)
        a = simulate_series(spec, th, SimConfig(n=150_000, burn_in=2000, seed=30, z_init=za))
        b = simulate_series(spec, th, SimConfig(n=150_000, burn_in=2000, seed=31, z_init=zb))
        # independent seeds: compare means within 3 joint SE
        def batch_se(v):
            v = np.asarray(v, dtype=float)[: (len(v) // 50) * 50]
            return v.reshape(50, -1).mean(axis=1).std(ddof=1) / math.sqrt(50)

        gap = abs(np.mean(a.series.y) - np.mean(b.series.y))
        joint = math.hypot(batch_se(a.series.y), batch_se(b.series.y))
        assert gap < 3.0 * joint


class TestParxCovariates:
    def test_covariate_path_invariant_across_theta(self):
        spec = parx_spec(p=1, q=1)
        th1 = spec.params(0.5, [0.3], [0.2], gamma=[0.2, 0.1])
        th2 = spec.params(2.0, [0.1], [0.5], gamma=[0.0, 0.4])
        a = simulate_series(spec, th1, SimConfig(n=300, seed=77))
        b = simulate_series(spec, th2, SimConfig(n=300, seed=77))
        assert a.series.covariates.tolist() == b.series.covariates.tolist()
        assert a.series.y.tolist() != b.series.y.tolist()


class TestExplosion:
    def test_unstable_loglin_raises(self):
        spec = loglin_spec()
        th = spec.params(1.0, [1.8], [0.9])
        with pytest.raises(LatentExplosionError):
            simulate_series(spec, th, SimConfig(n=5000, burn_in=0, seed=1))

    def test_unstable_nbin_raises(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.9], [0.4], r=3.0)
        with pytest.raises(LatentExplosionError):
            simulate_series(spec, th, SimConfig(n=200_000, burn_in=0, seed=1))

    def test_stable_run_unaffected(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.5], [0.3])
        sim = simulate_series(spec, th, SimConfig(n=5000, seed=2))
        assert len(sim.series.y) == 5001
        assert len(sim.latents) == 5001


# The largest double whose exp is at most 4e18, the largest Poisson mean the
# log-linear simulation draws from.
LOGLIN_HI = 42.83282603501271


def _from_window(spec, theta, x0):
    """Simulate one step past a window whose latents are all ``x0``, with no burn-in."""
    z = constant_window(spec, x0, 0)
    return simulate_series(spec, theta, SimConfig(n=1, burn_in=0, seed=5, z_init=z))


def _failure(spec, theta, **cfg):
    """(exception class, failing step, latent as printed) of a simulation that must fail."""
    with pytest.raises(Exception) as info:
        simulate_series(spec, theta, SimConfig(**cfg))
    text = str(info.value)
    return (type(info.value).__name__, int(re.search(r"at step (\d+)", text)[1]),
            re.search(r"latent (\S+) ", text)[1])


def _explosive_cases():
    ll11, ll22, nb11, nb22 = loglin_spec(), loglin_spec(2, 2), nbin_spec(), nbin_spec(2, 2)
    px11, px22 = parx_spec(), parx_spec(2, 2)
    zero = ll11.params(0.0, [0.0], [0.0])
    return {
        "loglin11_grow": (ll11, ll11.params(1.0, [1.8], [0.9]), None),
        "loglin11_jump_beyond_exp": (ll11, ll11.params(1.0, [0.5], [20.0]), None),
        "loglin11_jump_beyond_700": (ll11, ll11.params(1.0, [0.5], [25.0]), None),
        "loglin11_jump_beyond_1e3": (ll11, ll11.params(1.0, [0.5], [30.0]), None),
        "loglin11_sink": (ll11, ll11.params(-5.0, [1.2], [0.0]), None),
        "loglin11_oscillate": (ll11, ll11.params(0.5, [-1.5], [0.2]), None),
        "loglin11_window_500": (ll11, zero, constant_window(ll11, 500.0, 0)),
        "loglin11_window_1e3": (ll11, zero, constant_window(ll11, 1e3, 0)),
        "loglin11_window_nan": (ll11, zero, constant_window(ll11, math.nan, 0)),
        "loglin22_grow": (ll22, ll22.params(0.5, [0.7, 0.5], [0.3, 0.2]), None),
        "loglin22_sink": (ll22, ll22.params(-3.0, [0.8, 0.4], [0.1, 0.0]), None),
        "nbin11": (nb11, nb11.params(1.0, [0.9], [0.4], r=3.0), None),
        "nbin22": (nb22, nb22.params(0.5, [0.6, 0.3], [0.2, 0.2], r=2.0), None),
        "parx11": (px11, px11.params(1.0, [0.7], [0.6], gamma=[0.3, 0.2]), None),
        "parx22": (px22, px22.params(0.5, [0.5, 0.3], [0.3, 0.2], gamma=[0.1, 0.1]), None),
    }


# (exception class, failing step, latent) of each explosive point, read off
# the simulator while the sampler still made its own range checks; the NBIN
# rows were read again when the gamma factors moved to their own substream.
EXPLOSIVE_FAILURES = {
    "loglin11_grow": ("LatentExplosionError", 4, "49.8716"),
    "loglin11_jump_beyond_1e3": ("LatentExplosionError", 2, "1036.73"),
    "loglin11_jump_beyond_700": ("LatentExplosionError", 2, "726.865"),
    "loglin11_jump_beyond_exp": ("LatentExplosionError", 2, "471.931"),
    "loglin11_oscillate": ("LatentExplosionError", 15, "75.7436"),
    "loglin11_sink": ("LatentExplosionError", 21, "-1125.13"),
    "loglin11_window_1e3": ("LatentExplosionError", 0, "1000"),
    "loglin11_window_500": ("LatentExplosionError", 0, "500"),
    "loglin11_window_nan": ("LatentExplosionError", 0, "nan"),
    "loglin22_grow": ("LatentExplosionError", 10, "48.3732"),
    "loglin22_sink": ("LatentExplosionError", 31, "-1109.24"),
    "nbin11": ("LatentExplosionError", 42, "1.62667e+12"),
    "nbin22": ("LatentExplosionError", 81, "1.17708e+12"),
    "parx11": ("LatentExplosionError", 99, "1.04472e+12"),
    "parx22": ("LatentExplosionError", 138, "1.00173e+12"),
}


class TestSafeRange:
    def test_loglin_bound_is_the_largest_drawable_latent(self):
        assert math.exp(LOGLIN_HI) <= 4e18 < math.exp(math.nextafter(LOGLIN_HI, math.inf))
        spec = loglin_spec()
        th = spec.params(0.0, [0.0], [0.0])
        sim = _from_window(spec, th, LOGLIN_HI)
        assert sim.latents[0] == LOGLIN_HI and sim.series.y[0] > 1e18
        assert _from_window(spec, th, -1e3).series.y[0] == 0
        for x0 in (math.nextafter(LOGLIN_HI, math.inf), math.nextafter(-1e3, -math.inf)):
            with pytest.raises(LatentExplosionError, match=r"at step 0\b"):
                _from_window(spec, th, x0)

    @pytest.mark.parametrize("family", ["nbin", "parx"])
    def test_upper_bound_is_1e12(self, family):
        spec = nbin_spec() if family == "nbin" else parx_spec()
        extra = {"r": 2.0} if family == "nbin" else {"gamma": [0.0, 0.0]}
        th = spec.params(1.0, [0.0], [0.0], **extra)
        assert _from_window(spec, th, 1e12).latents[0] == 1e12
        with pytest.raises(LatentExplosionError, match=r"at step 0\b"):
            _from_window(spec, th, math.nextafter(1e12, math.inf))

    @pytest.mark.parametrize("name", sorted(_explosive_cases()))
    def test_explosive_point_fails_where_pinned(self, name):
        spec, th, z = _explosive_cases()[name]
        got = _failure(spec, th, n=100_000, burn_in=0, seed=3, z_init=z)
        assert got == EXPLOSIVE_FAILURES[name]


def test_general_shapes_match_unrolled_oracle():
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(60):
        spec, th = oracles.random_instance(rng, max_order=6, stable=True)
        z = oracles.random_window(spec, rng)
        seed = int(rng.integers(2**32))
        sim = simulate_series(spec, th, SimConfig(n=80, burn_in=0, seed=seed, z_init=z))
        assert sim.latents[1:].tolist() == oracles.unrolled_latent_path(spec, th, z, sim.series, 80)
        seen.add((spec.family, spec.parx and (spec.parx.r_dim, spec.parx.d)))
    assert {fam for fam, _ in seen} == {LOGLIN, NBIN, PARX} and (PARX, (2, 2)) in seen


def test_default_simulation_windows_are_admissible():
    for spec, th in [
        (loglin_spec(2, 2), loglin_spec(2, 2).params(0.1, [0.2, 0.1], [0.1, 0.1])),
        (nbin_spec(1, 3), nbin_spec(1, 3).params(1.0, [0.3], [0.05, 0.05, 0.05], r=2.0)),
        (parx_spec(2, 2), parx_spec(2, 2).params(0.5, [0.2, 0.1], [0.1, 0.1], gamma=[0.1, 0.1])),
    ]:
        z = default_simulation_window(spec, th)
        sim = simulate_series(spec, th, SimConfig(n=50, burn_in=10, seed=0, z_init=z))
        assert len(sim.series.y) == 51


# --- pinned streams -----------------------------------------------------------
#
# sha256 of repr((y, covariates, latents)) for fixed seeds, in tuple form:
# integer counts, covariate rows and latents as tuples of floats, None for no
# covariates.  The digests were computed when the simulator returned tuples,
# before the simulation loop was rewritten for speed, and the NBIN ones again
# when the gamma factors moved to their own substream; any change to the order
# of draws, the substreams or the arithmetic of the recursion moves them, and
# with them every frozen seed of the acceptance criteria.


def _parx_cfg(r_dim, kinds):
    aleph = ((0.5,),) if r_dim == 1 else ((0.4, -0.2), (0.3, 0.1))
    return ModelSpec(PARX, ModelOrder(1, 1), ParxConfig(r_dim, kinds, aleph, sigma=0.9))


def _pinned_cases():
    cases = {}
    for p, q, burn_in in ((1, 1, 0), (2, 2, 50), (3, 1, 7)):
        a = [0.3, 0.2, 0.1][:p]
        b = [0.25, 0.1][:q]
        ll, nb, px = loglin_spec(p, q), nbin_spec(p, q), parx_spec(p, q)
        cases[f"loglin{p}{q}"] = (ll, ll.params(0.2, [-v for v in a[:1]] + a[1:], b), burn_in, None)
        cases[f"nbin{p}{q}"] = (nb, nb.params(1.0, a, b, r=1.5), burn_in, None)
        cases[f"parx{p}{q}"] = (px, px.params(0.5, a, b, gamma=[0.3, 0.2]), burn_in, None)
    for kind in FEATURE_KINDS:
        spec = _parx_cfg(1, (kind,))
        cases[f"parx_r1_{kind}"] = (spec, spec.params(0.4, [0.3], [0.2], gamma=[0.5]), 20, None)
    for kinds in (("pos_part", "square"), ("abs",)):
        spec = _parx_cfg(2, kinds)
        gamma = [0.3, 0.1][: len(kinds)]
        cases[f"parx_r2_{'_'.join(kinds)}"] = (
            spec, spec.params(0.4, [0.3], [0.2], gamma=gamma), 20, None
        )
    nb = nbin_spec(2, 2)
    cases["nbin22_z_init"] = (
        nb, nb.params(0.8, [0.3, 0.1], [0.2, 0.1], r=2.5), 0, constant_window(nb, 4.0, 9)
    )
    px = parx_spec(2, 2)
    cases["parx22_z_init"] = (
        px,
        px.params(0.6, [0.2, 0.1], [0.3, 0.1], gamma=[0.2, 0.3]),
        0,
        constant_window(px, 2.0, 3, xi1=(0.7, -1.2)),
    )
    return cases


def _stream_digest(spec, theta, burn_in, z_init, seed):
    sim = simulate_series(spec, theta, SimConfig(n=300, burn_in=burn_in, seed=seed, z_init=z_init))
    cov = sim.series.covariates
    blob = repr((
        tuple(int(v) for v in sim.series.y.tolist()),
        None if cov is None else tuple(map(tuple, cov.tolist())),
        tuple(sim.latents.tolist()),
    ))
    return hashlib.sha256(blob.encode()).hexdigest()


PINNED_DIGESTS = {
    "loglin11": "e25c5c247627c75c5bbd057adbc0a97fea5dab6805afec98841e02fbc7543efd",
    "loglin22": "e92e205d2e41ae9e1da5b65cfec7af4a961834557d4ccbfcc29a82e7d1c6ef91",
    "loglin31": "873bd56a47f12798b4d0b534df263404449a8717f1339a0cb580c2640725d40f",
    "nbin11": "b720389846887204177bd62bd097024eec413a9ba3d1b65dd8526e4d4451f1d5",
    "nbin22": "d817cb0808f2aff1d18509b10f6ef218e9fe14250e9aa6e94b52a3df869d574c",
    "nbin22_z_init": "97f282a5191004736950d7d9f9af910e3856739aa7a49dd60cb14ec95de278f0",
    "nbin31": "bfb52cdaa03af8e2f750a92b873d8d4c84bc2f3206d513946449cd1bbd4cf668",
    "parx11": "14ca8722eb1e332755193f4d86f99dacd14783deb8c140bed3b19883bd0559fb",
    "parx22": "4f7b7511662075662ad748e1c834c0756a542e334d32f3793a7a96c242762367",
    "parx22_z_init": "f55946da37216d548b0c32a9449033fc36e491f8e1ba01c889773544a97f7ecf",
    "parx31": "a0a783415e9cc457660a192ba7daff72dafd2187e8d2cd2c9fbe943fbfb0fadd",
    "parx_r1_abs": "5887da915c35b725ea19f9753a764819d3d1ae4a90bf8f01149210058376a47f",
    "parx_r1_pos_part": "db6300a4ce68e36e6e8e771c5c26772c0330faddde206468fefac6e186403613",
    "parx_r1_square": "877308b677086d8f7ca2459f78e3b6a7ecd822a35f51cf7ce219f523a5b3028a",
    "parx_r2_abs": "eb4ca7ed8d2c04813f11e27f5ae25d1166bd7bfe306030adf96f5ae85ef2c801",
    "parx_r2_pos_part_square": "f87e3260d21624d3472956cd44a77b070e0d8f080cfda6538d5e476b98b2a497",
}
LOGLIN_ERROR = (
    "latent 97.8067 left the safe range (limit 42.8328) at step 5; "
    "run the stability check on these parameters"
)
NBIN_ERROR = (
    "latent 1.11955e+12 left the safe range (limit 1e+12) at step 43; "
    "run the stability check on these parameters"
)


class TestPinnedStreams:
    @pytest.mark.parametrize("name", sorted(_pinned_cases()))
    def test_digest(self, name):
        spec, theta, burn_in, z_init = _pinned_cases()[name]
        assert _stream_digest(spec, theta, burn_in, z_init, seed=2024) == PINNED_DIGESTS[name]

    def test_loglin_sampler_range_error(self):
        spec = loglin_spec()
        th = spec.params(1.0, [1.8], [0.9])
        with pytest.raises(LatentExplosionError) as info:
            simulate_series(spec, th, SimConfig(n=5000, burn_in=0, seed=1))
        assert str(info.value) == LOGLIN_ERROR

    def test_nbin_safe_range_error(self):
        spec = nbin_spec()
        th = spec.params(1.0, [0.9], [0.4], r=3.0)
        with pytest.raises(LatentExplosionError) as info:
            simulate_series(spec, th, SimConfig(n=200_000, burn_in=0, seed=1))
        assert str(info.value) == NBIN_ERROR


def test_block_normal_draw_equals_sequential_draws():
    # the simulator draws the PARX covariate noise in one block; that keeps the
    # stream only because numpy fills the block in sequential order
    for r_dim in (1, 2, 3):
        block = rngmod.substream(99, rngmod.COVARIATE).standard_normal((5000, r_dim))
        rng = rngmod.substream(99, rngmod.COVARIATE)
        rows = np.array([rng.standard_normal(r_dim) for _ in range(5000)])
        assert np.array_equal(block, rows)


def test_block_gamma_draw_equals_sequential_draws():
    # the NBIN sampler draws its gamma factors in blocks and scales them by the
    # latent; that keeps numpy's gamma(r, x) stream only because x *
    # standard_gamma(r) is gamma(r, x) bit for bit and numpy fills a block in
    # sequential order
    xs = np.random.default_rng(5).uniform(0.01, 50.0, 20_000).tolist()
    for r in (0.5, 2.0, 7.3):
        scaled, factors = (rngmod.substream(99, rngmod.GAMMA) for _ in range(2))
        assert all(scaled.gamma(r, x) == x * factors.standard_gamma(r) for x in xs)
        block = rngmod.substream(99, rngmod.GAMMA).standard_gamma(r, 20_000)
        rng = rngmod.substream(99, rngmod.GAMMA)
        chunks = [rng.standard_gamma(r, size) for size in (1, 7, 4096, 4096, 11_800)]
        assert np.array_equal(block, np.concatenate(chunks))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_nbin_stream_matches_scalar_reference(p, q):
    spec = nbin_spec(p, q)
    theta = spec.params(0.8, [0.3, 0.15, 0.05][:p], [0.12, 0.06, 0.03][:q], r=1.5)
    z = oracles.random_window(spec, np.random.default_rng(10 * p + q))
    z = dataclasses.replace(z, x=(*z.x[:-1], 0.0))  # step 0 at x = 0 takes a factor too
    n, burn_in = 2 * families._GAMMA_CHUNK + 50, 30  # three blocks of gamma factors
    sim = simulate_series(spec, theta, SimConfig(n=n, burn_in=burn_in, seed=p * q, z_init=z))
    ys, xs = oracles.nbin_simulation(spec, theta, z, n, burn_in, seed=p * q)
    assert sim.series.y.tolist() == ys
    assert sim.latents.tolist() == xs


@pytest.mark.parametrize("chunk", [1, 7])
def test_nbin_stream_does_not_depend_on_the_block_size(monkeypatch, chunk):
    spec = nbin_spec(2, 2)
    theta = spec.params(0.5, [0.4, 0.1], [0.1, 0.05], r=2.5)
    cfg = SimConfig(n=2 * families._GAMMA_CHUNK + 50, burn_in=20, seed=11)
    default = simulate_series(spec, theta, cfg)
    monkeypatch.setattr(families, "_GAMMA_CHUNK", chunk)
    assert simulate_series(spec, theta, cfg) == default
