"""The benchmark's workloads: inputs, the timed call, and its checks.

Nothing here imports secpred at module import; the worker passes the
package in after timing its import.  Every call goes through a module
attribute (``secpred.tune.grid_search``, not ``secpred.grid_search``) so
that the tracer's wrappers see it.

Tuning is deterministic: the seed does not change its inputs, and its
winners and their certified bounds are checked against values recorded at
the seed commit.  Simulation passes the seed to ``estimate_ratio``; its
rates are checked exactly only at ``REFERENCE_SEED``, and at every seed
the mean ratio must clear the analytic case bound less three standard
errors.

A fingerprint (the tuned winners' sha256, or the CSV row) is compared with
the recorded one and a change is flagged, not failed: later changes may
alter it deliberately and say so.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from typing import Callable

REFERENCE_SEED = 1
# Tolerance on recorded certified values: refactors may move the last bits
# of a double, never the certified constant.
VALUE_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (secpred, seed) -> inputs
    call: Callable  # (inputs) -> output
    check: Callable  # (secpred, inputs, output, seed) -> Check


@dataclass
class Check:
    problems: list
    fingerprint: str
    fingerprint_ref: str | None
    items: int  # the base of items_per_s
    bases: dict


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_TOL


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

def _tune_workload(name, step, ref):
    def build(secpred, seed):
        return {m: secpred.GridSpec.coarse(m, step=step) for m in ("cosp", "rosp")}

    def call(inputs):
        mod = importlib.import_module("secpred.tune")
        return {m: mod.grid_search(m, grid) for m, grid in inputs.items()}

    def check(secpred, inputs, out, seed):
        from tracing import grid_points

        problems = []
        lines = []
        for model, (params, bound) in out.items():
            want = ref[model]
            point = [params.tau, params.beta, params.gamma, params.delta]
            if point != want["point"]:
                problems.append(f"{model} winner {point} != recorded {want['point']}")
            if not _close(bound, want["certified"]):
                problems.append(f"{model} certified {bound!r} != recorded {want['certified']!r}")
            if not _close(params.theta, want["theta"]):
                problems.append(f"{model} theta {params.theta!r} != recorded {want['theta']!r}")
            lines.append(f"{model} {point!r} {params.theta!r} {bound!r}")
        points = {m: grid_points(m, g) for m, g in inputs.items()}
        return Check(
            problems=problems,
            fingerprint=_sha("\n".join(lines)),
            fingerprint_ref=ref["sha256"],
            items=sum(points.values()),
            bases={f"grid_points_{m}": p for m, p in points.items()},
        )

    return Workload(name, build, call, check)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

# The case-4 family at (m, k, m2) = (2, 1, 1): the top prediction is a
# mistake, so every trial switches mode and the gamma-gated fallback runs.
FAMILY = (4, 2, 1, 1)


def _simulate_workload(name, model, params_name, n, trials, ref):
    def build(secpred, seed):
        params = getattr(secpred, params_name)
        instance = secpred.gen_case_family(*FAMILY, n, params.theta)
        return {
            "instance": instance,
            "model": model,
            "params": params,
            "trials": trials,
            "seed": seed,
        }

    def call(inputs):
        mod = importlib.import_module("secpred.simulate")
        return mod.estimate_ratio(
            inputs["instance"],
            inputs["model"],
            inputs["params"],
            trials=inputs["trials"],
            seed=inputs["seed"],
        )

    def check(secpred, inputs, res, seed):
        params = inputs["params"]
        problems = []
        if res.trials != trials:
            problems.append(f"trials {res.trials} != {trials}")
        bound = secpred.analytic.case_bound(model, *FAMILY, params)
        if not res.mean_ratio >= bound - 3.0 * res.std_error:
            problems.append(
                f"mean_ratio {res.mean_ratio} below case bound {bound} - 3*{res.std_error}"
            )
        sim = importlib.import_module("secpred.simulate")
        row = sim.sim_csv_row(model, inputs["instance"], params.theta, res, seed)
        if seed == REFERENCE_SEED:
            for key in ("hire_rate", "mode_switch_rate"):
                if getattr(res, key) != ref[key]:
                    problems.append(f"{key} {getattr(res, key)!r} != recorded {ref[key]!r}")
        return Check(
            problems=problems,
            fingerprint=row,
            fingerprint_ref=ref["csv_row"] if seed == REFERENCE_SEED else None,
            items=res.trials,
            bases={"trials": res.trials, "trials_x_n": res.trials * n},
        )

    return Workload(name, build, call, check)


# ---------------------------------------------------------------------------
# the workload table (reference values recorded at the seed commit)
# ---------------------------------------------------------------------------

# Interpreter-bound code (certify) runs up to twice as slow while the host
# shares its core, and array-bound code only about a quarter slower, so a
# certify call is not timed on its own.  Tune re-certifies its winners at
# T=20 and so still covers analytic, quadrature and certify.
WORKLOADS = {
    w.name: w
    for w in (
        # Both models on the step-0.05 grid: tune's own vectorized layer,
        # then one re-certification per winner.
        _tune_workload(
            "tune-grid05", 0.05,
            {
                "cosp": {
                    "point": [0.45, 0.75, 0.3, 0.45],
                    "theta": 0.5864163103426907,
                    "certified": 0.260703125,
                },
                "rosp": {
                    "point": [0.35, None, 0.35, 0.7],
                    "theta": 0.6324073672584993,
                    "certified": 0.22518437500000002,
                },
                "sha256": "c476d6ab21658b2f5979daa529713232f4a7f4a723df628d78d247cb4e945b23",
            },
        ),
        # Few wide rows over more than one 65 536-trial chunk: argsort,
        # prefix maxima and (trials x n) temporaries.
        _simulate_workload(
            "simulate-n800", "rosp", "THEOREM_ROSP_PARAMS", 800, 80_000,
            {
                "hire_rate": 0.5704125,
                "mode_switch_rate": 1.0,
                "csv_row": "rosp,800,2,1,1,80000,1,0.50574625,0.00166525595326,0.5704125,1",
            },
        ),
    )
}
