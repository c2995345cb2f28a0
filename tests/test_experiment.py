import re
import subprocess
import sys

import numpy as np
import pytest

from odmlab.experiment import ExperimentConfig, run_mc_consistency
from odmlab.fit import FitOptions

from test_model import loglin_spec


def tiny_config(theta, ns=(40, 80), replicates=3, seed=5):
    spec = loglin_spec()
    return ExperimentConfig(
        spec=spec,
        theta_star=theta,
        ns=ns,
        replicates=replicates,
        seed=seed,
        fit_opts=FitOptions(starts=2, guard_override=True, max_evals=600),
    )


class TestConfigValidation:
    def test_sizes_must_increase(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.4], [0.2])
        with pytest.raises(ValueError):
            ExperimentConfig(spec=spec, theta_star=th, ns=(100, 100), replicates=2, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(spec=spec, theta_star=th, ns=(100,), replicates=0, seed=0)
        with pytest.raises(ValueError, match="burn_in must be >= 0"):
            ExperimentConfig(spec=spec, theta_star=th, ns=(100,), replicates=2, seed=0, burn_in=-5)

    @pytest.mark.parametrize("field, value", [("replicates", 2.5), ("replicates", True),
                                              ("burn_in", 2.5), ("ns", (40.5,)), ("ns", (40, 80.0)),
                                              ("seed", 1.5), ("seed", True), ("seed", "3")])
    def test_non_integer_counts_rejected(self, field, value):
        spec = loglin_spec()
        th = spec.params(0.1, [0.4], [0.2])
        kwargs = dict(spec=spec, theta_star=th, ns=(np.int64(40),), replicates=np.int64(2),
                      seed=np.int64(0), burn_in=np.int64(3))
        ExperimentConfig(**kwargs)  # numpy integers are integers
        what, bad = ("sample size in ns", value[-1]) if field == "ns" else (field, value)
        with pytest.raises(ValueError, match=re.escape(f"{what} must be an integer, got {bad!r}")):
            ExperimentConfig(**{**kwargs, field: value})


def test_pool_workers_inherit_scipy():
    # the parent binds the kernel's scipy before it forks, so each new pool's
    # workers do not import it again; a fresh interpreter has not loaded it
    probe = (
        "import sys\n"
        "from odmlab.experiment import ExperimentConfig, run_mc_consistency\n"
        "from odmlab.fit import FitOptions\n"
        "from odmlab.model import LOGLIN, ModelOrder, ModelSpec\n"
        "spec = ModelSpec(family=LOGLIN, order=ModelOrder(1, 1))\n"
        "cfg = ExperimentConfig(spec=spec, theta_star=spec.params(0.1, [0.4], [0.2]), ns=(40,),\n"
        "                       replicates=2, seed=5, fit_opts=FitOptions(starts=1))\n"
        "print('scipy' in sys.modules)\n"
        "run_mc_consistency(cfg, workers=2)\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["False", "True"]


class TestReportShape:
    def test_single_replicate_degenerate_stats(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.4], [0.2])
        report = run_mc_consistency(tiny_config(th, ns=(60,), replicates=1), workers=1)
        errs = report.errors_per_replicate(60)
        assert len(errs) == 1
        for j, cell in enumerate(report.cells):
            # variance 0: rmse == |bias| == medae == the single error
            assert cell["rmse"] == pytest.approx(abs(cell["bias"]), abs=1e-12)
            assert cell["medae"] == pytest.approx(abs(errs[0][j]), abs=1e-12)

    def test_rmse_identity(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.4], [0.2])
        report = run_mc_consistency(tiny_config(th), workers=1)
        for n in report.ns:
            errs = np.array(report.errors_per_replicate(n))
            for j, name in enumerate(report.coord_names):
                cell = next(c for c in report.cells if c["n"] == n and c["coord"] == name)
                var = float(np.var(errs[:, j]))
                assert cell["rmse"] ** 2 == pytest.approx(cell["bias"] ** 2 + var, rel=1e-9)

    def test_unidentifiable_truth_warns(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.4], [0.0])  # b = 0: criterion vacuous
        with pytest.warns(RuntimeWarning):
            run_mc_consistency(tiny_config(th, ns=(40,), replicates=1), workers=1)

    def test_parallel_matches_serial(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.4], [0.2])
        serial = run_mc_consistency(tiny_config(th, ns=(40,), replicates=2), workers=1)
        parallel = run_mc_consistency(tiny_config(th, ns=(40,), replicates=2), workers=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_tsv_layout(self):
        spec = loglin_spec()
        th = spec.params(0.1, [0.4], [0.2])
        report = run_mc_consistency(tiny_config(th, ns=(40,), replicates=1), workers=1)
        lines = report.tsv_lines()
        assert lines[0] == "n\tcoord\tbias\trmse\tmedae"
        assert len(lines) == 1 + len(report.cells)

    def test_failed_replicate_names_stage_and_class(self):
        spec = loglin_spec()
        th = spec.params(0.1, [1.2], [0.2])  # explosive: a > 1
        report = run_mc_consistency(tiny_config(th, ns=(40,), replicates=2), workers=1)
        assert report.failure_fraction == 1
        for outcome in report.replicates:
            assert outcome.theta_hat is None
            assert outcome.error.startswith("simulate: LatentExplosionError: ")
