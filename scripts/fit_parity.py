"""Refit the ``fit`` benchmark workload's series and print one JSON line per fit.

    python3 scripts/fit_parity.py > fits.jsonl

The series, cases and fit options are the benchmark's own (``CASES``,
``derive``, ``simulate`` and ``Fit.OPTS`` from ``bench/workloads.py``), for
the workload seeds 0-2 and the held-out seed 7919: 4 cases x 6 series x 4
seeds = 96 fits.  Each line holds the ``repr`` of the packed estimate, the
log-likelihood total and the evaluations summed over starts, so two
checkouts' outputs can be compared with ``diff``: identical files mean
bit-identical fits.  An optimizer that should find the same or higher maxima
can be checked against the ``total`` column.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import odmlab as m  # noqa: E402
from workloads import CASES, Fit, derive, simulate  # noqa: E402

SEEDS = (0, 1, 2, 7919)


def main() -> None:
    for seed in SEEDS:
        for i, case in enumerate(CASES):
            for k in range(Fit.SERIES):
                series = simulate(case, Fit.N, derive(seed, 0, i, k)).series
                res = m.fit_mle(case.spec, series, opts=Fit.OPTS)
                row = {
                    "seed": seed,
                    "case": case.name,
                    "series": k,
                    "theta_hat": repr(m.pack_params(case.spec, res.theta_hat).tolist()),
                    "total": repr(res.loglik.total),
                    "evals": sum(t.evals for t in res.trace),
                }
                print(json.dumps(row, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
