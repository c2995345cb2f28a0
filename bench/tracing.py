"""Spans around odmlab's public functions, for the traced run.

The wrappers sit at the layer boundaries the benchmark can reach from its own
files: the public calls the workloads make, and the public names that
``odmlab.fit`` imports, so that the calls ``fit_mle`` and
``forecast_one_step`` make show up as child spans.  A span's layer is the
module that defines the function.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import odmlab
import odmlab.fit

BENCH_CALLS = (
    "fit_mle",
    "loglik",
    "grad_loglik",
    "forecast_one_step",
    "simulate_series",
    "stationary_moment_estimate",
    "check_model",
    "check_identifiable",
    "run_mc_consistency",
)
FIT_IMPORTS = ("check_model", "loglik", "default_initial_window", "iterate_latent", "predictive")
LAYERS = ("likelihood", "fit", "families", "model", "conditions", "simulate", "experiment")


class Span(NamedTuple):
    name: str
    layer: str
    tag: str  # the case the workload was running
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    pass_no: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.tag = ""
        self._stack: list[int] = []
        self._pass_no = -1

    def _wrap(self, fn):
        name = fn.__name__
        layer = fn.__module__.rsplit(".", 1)[-1]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, layer, self.tag, start, end, parent, self._pass_no)

        return traced

    @contextmanager
    def installed(self, lib, pass_no: int):
        """Swap wrapped functions into ``lib`` and ``odmlab.fit`` for one pass."""
        self._pass_no = pass_no
        saved = [(lib, n, getattr(lib, n)) for n in BENCH_CALLS]
        saved += [(odmlab.fit, n, getattr(odmlab.fit, n)) for n in FIT_IMPORTS]
        for owner, name, fn in saved:
            setattr(owner, name, self._wrap(fn))
        try:
            yield
        finally:
            for owner, name, fn in saved:
                setattr(owner, name, fn)

    def metrics(self, passes: int) -> dict:
        """Per-layer figures from the spans, per traced pass."""
        spans = self.spans
        child_time = defaultdict(float)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        self_time = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(spans):
            self_time[s.layer] += s.end - s.start - child_time[i]
        out = {f"{layer}.self_s": (t / passes, "s") for layer, t in self_time.items()}

        def total(name):
            return sum(s.end - s.start for s in spans if s.name == name) / passes

        out["conditions.check_s"] = (total("check_model"), "s")
        out["conditions.check_calls"] = (
            sum(
                s.name == "check_model" and s.parent >= 0 and spans[s.parent].name == "fit_mle"
                for s in spans
            )
            / passes,
            "count",
        )
        out["model.initial_window_s"] = (total("default_initial_window"), "s")
        forecast = defaultdict(list)
        for s in spans:
            parent = spans[s.parent].name if s.parent >= 0 else ""
            if s.name == "iterate_latent" and parent == "forecast_one_step":
                forecast[s.tag].append(s.end - s.start)
        for tag, times in forecast.items():
            out[f"model.forecast_s.{tag}"] = (statistics.median(times), "s")
        out["trace.spans"] = (len(spans) / passes, "count")
        return out

    def dump(self, origin: float) -> list:
        return [[s.name, s.layer, s.tag, s.start - origin, s.end - origin, s.parent, s.pass_no]
                for s in self.spans]
