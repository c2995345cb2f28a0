"""Refit the ``fit`` benchmark workload's series and print one JSON line per fit.

    python3 scripts/fit_parity.py > fits.jsonl

The series, cases and fit options are the benchmark's own (``CASES``,
``derive``, ``simulate`` and ``Fit.OPTS`` from ``bench/workloads.py``), for
the workload seeds 0-2 and the held-out seed 7919: 4 cases x 6 series x 4
seeds = 96 fits.  Each line holds the ``repr`` of the packed estimate, the
log-likelihood total, the evaluations summed over starts and the sha256 of
the simulated series (counts, covariates and latents in tuple form), so two
checkouts' outputs can be compared with ``diff``: identical files mean
bit-identical simulations and fits.  An optimizer that should find the same
or higher maxima can be checked against the ``total`` column.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import odmlab as m  # noqa: E402
from workloads import CASES, Fit, derive, simulate  # noqa: E402

SEEDS = (0, 1, 2, 7919)


def sim_digest(sim) -> str:
    """sha256 of repr((counts, covariates, latents)) as tuples of Python numbers.

    The tuple form does not depend on the container the simulator returns,
    so the digests of two checkouts compare even when their types differ.
    """
    cov = sim.series.covariates
    blob = repr((
        tuple(int(v) for v in sim.series.y),
        None if cov is None else tuple(tuple(float(v) for v in row) for row in cov),
        tuple(float(v) for v in sim.latents),
    ))
    return hashlib.sha256(blob.encode()).hexdigest()


def main() -> None:
    for seed in SEEDS:
        for i, case in enumerate(CASES):
            for k in range(Fit.SERIES):
                sim = simulate(case, Fit.N, derive(seed, 0, i, k))
                res = m.fit_mle(case.spec, sim.series, opts=Fit.OPTS)
                row = {
                    "seed": seed,
                    "case": case.name,
                    "series": k,
                    "theta_hat": repr(m.pack_params(case.spec, res.theta_hat).tolist()),
                    "total": repr(res.loglik.total),
                    "evals": sum(t.evals for t in res.trace),
                    "sim_sha256": sim_digest(sim),
                }
                print(json.dumps(row, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
