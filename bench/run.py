"""Benchmark for odmlab, run against the ``src/`` tree of this checkout.

    python3 bench/run.py --workload {fit,score,simulate,mc} [--seed N]
                         [--seconds S] [--trace 0|1]

One process issues public-API calls back to back (a closed loop with one
client); only ``mc`` fans out, to two worker processes.  The run sets up its
inputs from ``--seed`` five times (the median is ``setup_s``), then repeats
passes, each a fixed amount of work, until the next pass would end after
``--seconds``; at least three passes always run.  The correctness gates are
checked after the clock stops.

Timings are restated at a reference speed measured by a fixed loop around
every call; see bench/README.md.

With ``--trace 0`` the JSON on the last line of stdout holds the end-to-end
metrics that BENCHMARK.json names; with ``--trace 1`` untraced and traced
passes alternate, and it holds the per-layer metrics.  The lines above it
print every figure the workload measured, with its unit and sample count.
The exit code is 1 when a gate fails.
"""

import os

# one thread per process, set before numpy loads: the mc workers fill both cores
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import odmlab  # noqa: E402

if Path(odmlab.__file__).resolve().parent != ROOT / "src" / "odmlab":
    sys.exit(f"odmlab was imported from {odmlab.__file__}, not from {ROOT / 'src'}")

from tracing import BENCH_CALLS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_PASSES = 3  # so that the median pass ignores one slow input or one slow spell
TRACE_DIR = Path(__file__).resolve().parent / "traces"
# A shared virtual machine's speed drifts by up to 30% for seconds at a time.  Timings of
# in-process work are therefore restated at a reference speed: raw seconds x
# REF_LOOP_S / (seconds the reference loop takes then, measured just before
# and just after).
REF_DATA = tuple(float(i % 251) for i in range(24_000))
REF_LOOP_S = 0.002


def probe() -> float:
    """Seconds a fixed pure-Python loop over a tuple takes now: the best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for v in REF_DATA:
            acc += math.log1p(v) * 0.5
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * REF_LOOP_S * 2.0 / (probe_before + probe_after)


class WarningCounter:
    """Counts warnings by category instead of printing them."""

    def __init__(self):
        self.counts = Counter()

    def __enter__(self):
        self._saved = warnings.catch_warnings()
        self._saved.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._count
        return self

    def __exit__(self, *exc):
        return self._saved.__exit__(*exc)

    def _count(self, message, category, filename, lineno, file=None, line=None):
        self.counts[category.__name__] += 1


class Op(NamedTuple):
    case: str
    kind: str
    seconds: float  # at the reference speed
    raw: float  # wall-clock seconds


class PassLog:
    """What one pass did: an ``Op`` row per public call."""

    def __init__(self, tracer, round_no, speed):
        self.tracer = tracer
        self.speed = speed
        self.round = round_no
        self.ops: list[Op] = []
        self.out = []
        self.wall = 0.0
        self.clamps = 0
        self.grad_undefined = 0
        self._probe = speed()

    def call(self, case, kind, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.tag = case
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - start
            after = self.speed()
            self.ops.append(Op(case, kind, at_reference_speed(raw, self._probe, after), raw))
            self._probe = after

    def _rows(self, case, kind):
        return [op for op in self.ops if case in (None, op.case) and kind in (None, op.kind)]

    def seconds(self, case=None, kind=None, raw=False) -> float:
        return sum(op.raw if raw else op.seconds for op in self._rows(case, kind))

    def count(self, case=None, kind=None) -> int:
        return len(self._rows(case, kind))


def measure(workload, inputs, seconds, warn, tracer, speed):
    lib = SimpleNamespace(**{name: getattr(odmlab, name) for name in BENCH_CALLS})
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        # traced runs give each untraced/traced pair the same inputs
        log = PassLog(
            tracer if traced else None, len(passes) // 2 if tracer else len(passes), speed
        )
        clamps = warn.counts["ClampWarning"]
        with tracer.installed(lib, len(passes)) if traced else nullcontext():
            t0 = time.perf_counter()
            workload.run_pass(lib, inputs, log)
            log.wall = time.perf_counter() - t0
        log.clamps = warn.counts["ClampWarning"] - clamps
        passes.append(log)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + log.wall > seconds:
            return passes


def typical_pass(passes, raw=False) -> float:
    """Seconds for one pass, with each call timed at the median over the run of
    its (case, kind): one slow call, or one slow input, moves it little."""
    times = defaultdict(list)
    for log in passes:
        for op in log.ops:
            times[op.case, op.kind].append(op.raw if raw else op.seconds)
    return sum(len(v) / len(passes) * statistics.median(v) for v in times.values())


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    origin = time.perf_counter()

    # No probe tracked the speed of worker processes on both cores: a lone loop
    # runs faster while the other core idles.  Such workloads are timed raw.
    speed = probe if workload.workers == 1 else lambda: REF_LOOP_S
    with WarningCounter() as warn:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = speed()
            t0 = time.perf_counter()
            inputs = workload.setup(args.seed)
            setups.append(at_reference_speed(time.perf_counter() - t0, before, speed()))
        passes = measure(workload, inputs, args.seconds, warn, tracer, speed)
        attempted, failures = workload.check(inputs, passes)

    untraced = passes[::2] if tracer else passes
    figures = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (typical_pass(untraced), "s"),
        "raw_pass_s": (typical_pass(untraced, raw=True), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "failed_frac": (len(failures) / attempted, "ratio"),
    }
    if tracer is None:
        figures.update(workload.metrics(inputs, untraced))
        wanted = declared["end_to_end"]
    else:
        traced = passes[1::2]
        figures.update(workload.metrics(inputs, traced))
        figures.update(tracer.metrics(len(traced)))
        # each traced pass against the untraced pass before it, on the same inputs
        overhead = typical_pass(traced) - typical_pass(passes[0 : 2 * len(traced) : 2])
        figures["trace.overhead_s"] = (overhead, "s")
        wanted = declared["per_layer"]
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"spans": tracer.dump(origin)}))

    # sample count: setups, untraced passes for pass_s, else the passes measured
    samples = {"setup_s": SETUP_REPEATS, "peak_rss_mb": 1, "failed_frac": attempted}
    samples.update(dict.fromkeys(("pass_s", "raw_pass_s"), len(untraced)))
    measured = len(passes) - len(untraced) if tracer else len(untraced)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({len(untraced)} untraced), {attempted} operations, {len(failures)} failed")
    for name, (value, unit) in sorted(figures.items()):
        print(f"  {name:40s} {value:>14.6g} {unit:6s} n={samples.get(name, measured)}")
    for msg in failures:
        print(f"GATE FAILED: {msg}", file=sys.stderr)
    if warn.counts:
        print(f"warnings counted, not shown: {dict(warn.counts)}", file=sys.stderr)

    metrics = {}
    for spec in wanted:
        if tracer is None:
            value, unit = figures[spec["name"]]
        else:  # a layer this workload never reaches did no work there
            value, unit = figures.get(spec["name"], (0, spec["unit"]))
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']} measured in {unit}, declared in {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
