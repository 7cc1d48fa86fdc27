"""Outside-in layer tracing for the benchmark.

Spans are recorded by wrapping secpred's public names from here, never by
editing the library.  Each wrapper pushes a frame on a stack, so a span's
self time is its duration minus the durations of the spans it directly
encloses.  Statistics are aggregated as spans close; only the durations
needed for percentiles are kept.

A wrapped name that no longer exists is skipped and listed in ``missing``;
every metric that depends on it then reads zero.
"""

from __future__ import annotations

import importlib
import math
import statistics
import tracemalloc
from collections import defaultdict
from time import perf_counter

# pow_over_x_integral switches from the alternating closed form to the
# positive tail series above this exponent.
SERIES_EXPONENT = 20

# Span names whose individual durations are kept for percentiles.
_KEEP_DURATIONS = {"analytic.case_bound", "certify.cell", "policy.batch"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, label, start, child_time]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.counters = defaultdict(int)
        self.gauges = defaultdict(float)  # maxima
        self.by_label = defaultdict(lambda: [0, 0.0])
        self.missing = []
        self._patches = []  # (owner, attr, original)
        self._mem_active = False

    # -- spans ---------------------------------------------------------------

    def _enter(self, name, label):
        if label is None and self.stack:
            label = self.stack[-1][1]
        self.stack.append([name, label, perf_counter(), 0.0])

    def _exit(self):
        name, label, start, child = self.stack.pop()
        dur = perf_counter() - start
        own = dur - child
        if self.stack:
            self.stack[-1][3] += dur
        self.calls[name] += 1
        self.self_s[name] += own
        self.total_s[name] += dur
        if name in _KEEP_DURATIONS:
            self.durations[name].append(dur)
        entry = self.by_label[(name, label)]
        entry[0] += 1
        entry[1] += own

    # tracemalloc runs only inside spans that measure allocation, and is
    # paused inside spans that belong to another layer.
    def _mem_start(self):
        tracemalloc.start()
        self._mem_active = True

    def _mem_stop(self, gauge):
        if not self._mem_active:
            return
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        self._mem_active = False
        self.gauges[gauge] = max(self.gauges[gauge], peak / 2**20)

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _resolve(dotted):
        modname, _, rest = dotted.rpartition(":")
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            return None, None
        parts = rest.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if not hasattr(owner, parts[-1]):
            return None, None
        return owner, parts[-1]

    def _patch(self, dotted, make):
        owner, attr = self._resolve(dotted)
        if owner is None:
            self.missing.append(dotted)
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, dotted, name, label=None, before=None, after=None, mem=None):
        """Replace ``module:attr`` with a span named ``name``.

        ``label(args, kwargs)`` names the span's model and case; ``before``
        may rewrite the arguments and count work; ``after(result, args,
        kwargs)`` counts work from the result.  ``mem`` is ``("measure",
        gauge)`` to record tracemalloc's peak inside the span, or
        ``("pause", gauge)`` to exclude the span from an enclosing
        measurement.
        """
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    args, kwargs = before(args, kwargs)
                measure = mem is not None and mem[0] == "measure"
                paused = mem is not None and not measure and tracer._mem_active
                if measure:
                    tracer._mem_start()
                elif paused:
                    tracer._mem_stop(mem[1])
                tracer._enter(name, label(args, kwargs) if label else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                    if measure:
                        tracer._mem_stop(mem[1])
                    elif paused:
                        tracer._mem_start()
                if after is not None:
                    after(result, args, kwargs)
                return result

            return wrapper

        self._patch(dotted, make)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._mem_active:
            tracemalloc.stop()
            self._mem_active = False


def grid_points(model: str, grid) -> int:
    """Cells ``tune.grid_search`` evaluates for one grid (beta > tau under cosp)."""
    rest = len(grid.gamma) * len(grid.delta)
    if model == "cosp":
        return sum(1 for t in grid.tau for b in grid.beta if b > t) * rest
    return len(grid.tau) * rest


def install_layers(tracer: Tracer, memory: bool = False) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at.

    With ``memory`` the tune search and each batch also run under
    tracemalloc, which slows the Python-heavy search by about 40%; that pass
    reports only the allocation peaks, so no span time includes it.
    """
    counters = tracer.counters

    def model_case(args, kwargs):
        return f"{_arg(args, kwargs, 0, 'model')}/C{_arg(args, kwargs, 1, 'case_id')}"

    def model_case_regime(args, kwargs):
        return f"{model_case(args, kwargs)}/{_arg(args, kwargs, 2, 'regime')}"

    def model_only(args, kwargs):
        return str(_arg(args, kwargs, 0, "model"))

    def pow_before(args, kwargs):
        if _arg(args, kwargs, 2, "m") > SERIES_EXPONENT:
            counters["analytic.pow_over_x.series_calls"] += 1
        return args, kwargs

    def simpson_before(args, kwargs):
        f = args[0] if args else kwargs.pop("f")

        def counted(x):
            counters["quadrature.simpson.evals"] += 1
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    def batch_label(args, kwargs):
        return str(_arg(args, kwargs, 1, "model"))

    def batch_after(result, args, kwargs):
        instance = _arg(args, kwargs, 0, "instance")
        model = _arg(args, kwargs, 1, "model")
        count = _arg(args, kwargs, 5, "count")
        counters["policy.elements"] += count * instance.n
        # one uniform per random arrival plus one for the hire gate
        columns = instance.n - (1 if model == "cosp" else 0)
        counters["rng.expected_draws"] += count * (columns + 1)

    def uniforms_after(result, args, kwargs):
        counters["rng.draws"] += len(result)

    def search_before(args, kwargs):
        counters["tune.grid_points"] += grid_points(
            _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "grid")
        )
        return args, kwargs

    tracer.wrap("secpred.analytic:pow_over_x_integral", "analytic.pow_over_x", before=pow_before)
    tracer.wrap("secpred.analytic:case_bound", "analytic.case_bound", label=model_case)
    tracer.wrap(
        "secpred.analytic:large_regime_bound",
        "analytic.large_regime_bound",
        label=model_case_regime,
    )
    tracer.wrap("secpred.analytic:adaptive_simpson", "quadrature.simpson", before=simpson_before)
    tracer.wrap("secpred.certify:certify_cell", "certify.cell", label=model_only)
    tracer.wrap(
        "secpred.tune:grid_search",
        "tune.search",
        label=model_only,
        before=search_before,
        mem=("measure", "tune.peak_alloc_mb") if memory else None,
    )
    tracer.wrap(
        "secpred.tune:certify",
        "tune.certify",
        label=model_only,
        mem=("pause", "tune.peak_alloc_mb") if memory else None,
    )
    tracer.wrap("secpred.simulate:estimate_ratio", "simulate", label=batch_label)
    tracer.wrap(
        "secpred.simulate:run_trials_batch",
        "policy.batch",
        label=batch_label,
        after=batch_after,
        mem=("measure", "policy.batch.peak_alloc_mb") if memory else None,
    )
    tracer.wrap("secpred.policy:trial_seeds_vector", "rng.seeds")
    tracer.wrap("secpred.rng:VectorStreams.uniforms", "rng.uniforms", after=uniforms_after)


def _p50(values, scale):
    return statistics.median(values) * scale if values else 0.0


def _p99(values, scale):
    # nearest rank
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)] * scale


# Per-layer metric names and units, in report order.
LAYER_UNITS = {
    "analytic.pow_over_x.calls": "count",
    "analytic.pow_over_x.series_calls": "count",
    "analytic.pow_over_x.self_s": "s",
    "analytic.case_bound.calls": "count",
    "analytic.case_bound.self_s": "s",
    "analytic.case_bound.p50_us": "us",
    "analytic.case_bound.p99_us": "us",
    "analytic.large_regime_bound.calls": "count",
    "analytic.large_regime_bound.self_s": "s",
    "quadrature.simpson.calls": "count",
    "quadrature.simpson.evals": "count",
    "quadrature.simpson.self_s": "s",
    "quadrature.evals_per_call": "count",
    "certify.cells": "count",
    "certify.cell.self_s": "s",
    "certify.cell.p50_us": "us",
    "certify.cell.p99_us": "us",
    "certify.self_s": "s",
    "tune.grid_points": "count",
    "tune.search.self_s": "s",
    "tune.recertify.wall_s": "s",
    "tune.peak_alloc_mb": "MB",
    "policy.batches": "count",
    "policy.elements": "count",
    "policy.batch.self_s": "s",
    "policy.batch.p50_ms": "ms",
    "policy.batch.peak_alloc_mb": "MB",
    "rng.draw_calls": "count",
    "rng.draws": "count",
    "rng.self_s": "s",
    "rng.redraws": "count",
    "simulate.self_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that must repeat exactly between traced calls of one input.
COUNT_METRICS = tuple(k for k, unit in LAYER_UNITS.items() if unit == "count")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced call (all but the allocation peaks
    and the overhead, which come from other passes)."""
    c, s, n, d = tracer.counters, tracer.self_s, tracer.calls, tracer.durations
    simpson_calls = n["quadrature.simpson"]
    return {
        "analytic.pow_over_x.calls": n["analytic.pow_over_x"],
        "analytic.pow_over_x.series_calls": c["analytic.pow_over_x.series_calls"],
        "analytic.pow_over_x.self_s": s["analytic.pow_over_x"],
        "analytic.case_bound.calls": n["analytic.case_bound"],
        "analytic.case_bound.self_s": s["analytic.case_bound"],
        "analytic.case_bound.p50_us": _p50(d["analytic.case_bound"], 1e6),
        "analytic.case_bound.p99_us": _p99(d["analytic.case_bound"], 1e6),
        "analytic.large_regime_bound.calls": n["analytic.large_regime_bound"],
        "analytic.large_regime_bound.self_s": s["analytic.large_regime_bound"],
        "quadrature.simpson.calls": simpson_calls,
        "quadrature.simpson.evals": c["quadrature.simpson.evals"],
        "quadrature.simpson.self_s": s["quadrature.simpson"],
        "quadrature.evals_per_call": (
            c["quadrature.simpson.evals"] / simpson_calls if simpson_calls else 0
        ),
        "certify.cells": n["certify.cell"],
        "certify.cell.self_s": s["certify.cell"],
        "certify.cell.p50_us": _p50(d["certify.cell"], 1e6),
        "certify.cell.p99_us": _p99(d["certify.cell"], 1e6),
        "certify.self_s": s["tune.certify"],
        "tune.grid_points": c["tune.grid_points"],
        "tune.search.self_s": s["tune.search"],
        "tune.recertify.wall_s": tracer.total_s["tune.certify"],
        "policy.batches": n["policy.batch"],
        "policy.elements": c["policy.elements"],
        "policy.batch.self_s": s["policy.batch"],
        "policy.batch.p50_ms": _p50(d["policy.batch"], 1e3),
        "rng.draw_calls": n["rng.uniforms"],
        "rng.draws": c["rng.draws"],
        "rng.self_s": s["rng.uniforms"] + s["rng.seeds"],
        "rng.redraws": c["rng.draws"] - c["rng.expected_draws"] if n["rng.uniforms"] else 0,
        "simulate.self_s": s["simulate"],
    }


def memory_metrics(tracer: Tracer) -> dict:
    return {
        "tune.peak_alloc_mb": tracer.gauges["tune.peak_alloc_mb"],
        "policy.batch.peak_alloc_mb": tracer.gauges["policy.batch.peak_alloc_mb"],
    }


def label_breakdown(tracer: Tracer) -> list:
    """Calls and self time per (span, model/case label)."""
    return [
        {"span": name, "label": label, "calls": calls, "self_s": own}
        for (name, label), (calls, own) in sorted(
            tracer.by_label.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        )
    ]
