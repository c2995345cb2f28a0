"""Refit the ``fit`` benchmark workload's series and print one JSON line per fit.

    python3 scripts/fit_parity.py > fits.jsonl
    python3 scripts/fit_parity.py --against OLD.jsonl

The series, cases and fit options are the benchmark's own (``CASES``,
``derive``, ``simulate`` and ``Fit.OPTS`` from ``bench/workloads.py``), for
the workload seeds 0-2 and the held-out seed 7919: 4 cases x 6 series x 4
seeds = 96 fits.  Each line holds the ``repr`` of the packed estimate, the
log-likelihood total, the evaluations summed over starts and the sha256 of
the simulated series (counts, covariates and latents in tuple form), so two
checkouts' outputs can be compared with ``diff``: identical files mean
bit-identical simulations and fits.  An optimizer that should find the same
or higher maxima can be checked against the ``total`` column.

With ``--against OLD.jsonl`` (an earlier run's output) the script prints, in
place of the JSON lines, one tab-separated line per fit whose total moved by
more than ``MOVED`` nats: seed, case, series, old and new totals, the new
estimate's ``check_model`` verdict and its projected-gradient max-norm (the
largest |clip(theta + g) - theta| over the default box, g the gradient of
the normalized log-likelihood; "undefined" where the gradient is).  A last
line counts the fits within ``MOVED`` nats, higher and lower.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import odmlab as m  # noqa: E402
from odmlab.likelihood import GradientUndefinedError  # noqa: E402
from workloads import CASES, Fit, derive, simulate  # noqa: E402

SEEDS = (0, 1, 2, 7919)
MOVED = 1e-7  # nats


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


def projected_gradient_norm(spec, theta, series) -> str:
    box = m.default_box(spec)
    vec = m.pack_params(spec, theta)
    try:
        g = m.grad_loglik(spec, theta, m.default_initial_window(spec, series), series)
    except GradientUndefinedError:
        return "undefined"
    return repr(float(np.max(np.abs(box.clip(vec + g) - vec))))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="OLD.jsonl",
                        help="report the fits whose total moved from this earlier output")
    args = parser.parse_args()
    old = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            old = {(r["seed"], r["case"], r["series"]): float(r["total"])
                   for r in map(json.loads, fh)}
    counts = {"within": 0, "higher": 0, "lower": 0}
    for seed in SEEDS:
        for i, case in enumerate(CASES):
            for k in range(Fit.SERIES):
                sim = simulate(case, Fit.N, derive(seed, 0, i, k))
                res = m.fit_mle(case.spec, sim.series, opts=Fit.OPTS)
                if old is None:
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
                    continue
                before, after = old[(seed, case.name, k)], res.loglik.total
                if abs(after - before) <= MOVED:
                    counts["within"] += 1
                    continue
                counts["higher" if after > before else "lower"] += 1
                norm = projected_gradient_norm(case.spec, res.theta_hat, sim.series)
                print("\t".join([str(seed), case.name, str(k), repr(before), repr(after),
                                 res.condition_report.verdict, norm]), flush=True)
    if old is not None:
        print(f"{counts['within']} fits within {MOVED:g} nats, {counts['higher']} higher, "
              f"{counts['lower']} lower")


if __name__ == "__main__":
    main()
