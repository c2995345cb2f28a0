"""Monte Carlo consistency harness: simulate, refit, aggregate errors.

For each sample size, R replicates are simulated from the true parameters
with derived seeds, refit by maximum likelihood, and summarized per
coordinate as bias, RMSE, and median absolute error.  Shrinking errors as n
grows is the operational signature of consistency at an identifiable truth.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from multiprocessing import Pool
from typing import Optional

import numpy as np

from .conditions import check_identifiable
from .fit import FitOptions, ThetaBox, default_box, fit_mle
from .likelihood import _load_scipy
from .model import (
    ModelSpec,
    ObservationSeries,
    ParameterVector,
    _integer,
    pack_params,
    param_names,
)
from .simulate import SimConfig, simulate_series


def worker_count(jobs: int) -> int:
    """Worker processes for ``jobs`` replicates: the core count, capped by
    ``ODMLAB_THREADS`` when set; ValueError unless that is an integer."""
    cap = os.environ.get("ODMLAB_THREADS")
    workers = os.cpu_count() or 1
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            raise ValueError(f"ODMLAB_THREADS must be an integer, got {cap!r}") from None
        workers = min(workers, max(limit, 1))
    return max(min(workers, jobs), 1)


@dataclass(frozen=True)
class ExperimentConfig:
    spec: ModelSpec
    theta_star: ParameterVector
    ns: tuple[int, ...]
    replicates: int
    seed: int
    box: Optional[ThetaBox] = None
    fit_opts: FitOptions = field(default_factory=FitOptions)
    burn_in: int = 1000

    def __post_init__(self):
        if _integer(self.replicates, "replicates") < 1:
            raise ValueError("replicate count must be >= 1")
        for n in self.ns:
            _integer(n, "sample size in ns")
        if any(b <= a for a, b in zip(self.ns, self.ns[1:])) or not self.ns:
            raise ValueError("sample sizes must be non-empty and strictly increasing")
        if _integer(self.burn_in, "burn_in") < 0:
            raise ValueError("burn_in must be >= 0")
        _integer(self.seed, "seed")


@dataclass(frozen=True)
class ReplicateOutcome:
    """One replicate's estimate, or ``error`` as "<stage>: <exception class>:
    <message>", the stage being "simulate" or "fit"."""

    n: int
    replicate: int
    theta_hat: Optional[tuple[float, ...]]
    converged: bool
    error: Optional[str]


@dataclass(frozen=True)
class ConsistencyReport:
    family: str
    coord_names: tuple[str, ...]
    theta_star: tuple[float, ...]
    ns: tuple[int, ...]
    cells: tuple[dict, ...]  # one per (n, coord): bias, rmse, medae
    replicates: tuple[ReplicateOutcome, ...]
    failure_fraction: float
    runtimes: tuple[float, ...] = ()  # wall-clock per replicate; not serialized

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["runtimes"]
        return out

    def tsv_lines(self) -> list[str]:
        lines = ["n\tcoord\tbias\trmse\tmedae"]
        for cell in self.cells:
            lines.append(
                f"{cell['n']}\t{cell['coord']}\t{cell['bias']!r}\t{cell['rmse']!r}\t{cell['medae']!r}"
            )
        return lines

    def errors_per_replicate(self, n: int) -> list[np.ndarray]:
        """Signed estimation errors theta_hat - theta_star for sample size n."""
        star = np.asarray(self.theta_star)
        return [
            np.asarray(r.theta_hat) - star
            for r in self.replicates
            if r.n == n and r.theta_hat is not None
        ]


def _replicate_seed(master_seed: int, n_index: int, replicate: int) -> int:
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(n_index, replicate))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_replicate(args) -> tuple[ReplicateOutcome, float]:
    spec, theta_star, n, n_index, replicate, seed, box, fit_opts, burn_in = args
    t0 = time.perf_counter()
    stage = "simulate"
    try:
        sim = simulate_series(
            spec, theta_star, SimConfig(n=n, burn_in=burn_in, seed=seed)
        )
        stage = "fit"
        result = fit_mle(spec, sim.series, box=box, opts=fit_opts)
        outcome = ReplicateOutcome(
            n=n,
            replicate=replicate,
            theta_hat=tuple(float(v) for v in pack_params(spec, result.theta_hat)),
            converged=result.converged,
            error=None,
        )
    except Exception as exc:  # recorded, not fatal
        error = f"{stage}: {type(exc).__name__}: {exc}"
        outcome = ReplicateOutcome(
            n=n, replicate=replicate, theta_hat=None, converged=False, error=error
        )
    return outcome, time.perf_counter() - t0


def run_mc_consistency(config: ExperimentConfig, workers: Optional[int] = None) -> ConsistencyReport:
    """Run the full simulate-and-refit grid and aggregate error statistics."""
    spec = config.spec
    ident = check_identifiable(config.theta_star.a, config.theta_star.b)
    if ident.verdict != "Pass":
        warnings.warn(
            "true parameters fail the identifiability criterion; estimates may not "
            "converge to a point",
            RuntimeWarning,
            stacklevel=2,
        )
    box = config.box or default_box(spec)
    jobs = []
    for n_index, n in enumerate(config.ns):
        for rep in range(config.replicates):
            seed = _replicate_seed(config.seed, n_index, rep)
            jobs.append(
                (spec, config.theta_star, n, n_index, rep, seed, box, config.fit_opts, config.burn_in)
            )
    nworkers = workers if workers is not None else worker_count(len(jobs))
    if nworkers > 1:
        _load_scipy()  # once, here: the forked workers inherit it
        with Pool(nworkers) as pool:
            results = pool.map(_run_replicate, jobs)
    else:
        results = [_run_replicate(j) for j in jobs]

    outcomes = [r[0] for r in results]
    runtimes = tuple(r[1] for r in results)
    star = pack_params(spec, config.theta_star)
    names = param_names(spec)
    cells = []
    for n in config.ns:
        errs = np.array(
            [np.asarray(o.theta_hat) - star for o in outcomes if o.n == n and o.theta_hat is not None]
        )
        for j, name in enumerate(names):
            if errs.size:
                col = errs[:, j]
                bias = float(col.mean())
                rmse = float(np.sqrt(np.mean(col**2)))
                medae = float(np.median(np.abs(col)))
            else:
                bias = rmse = medae = math.nan
            cells.append({"n": n, "coord": name, "bias": bias, "rmse": rmse, "medae": medae})
    failures = sum(1 for o in outcomes if o.theta_hat is None)
    return ConsistencyReport(
        family=spec.family,
        coord_names=names,
        theta_star=tuple(float(v) for v in star),
        ns=config.ns,
        cells=tuple(cells),
        replicates=tuple(outcomes),
        failure_fraction=failures / len(outcomes),
        runtimes=runtimes,
    )
