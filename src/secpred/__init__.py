"""Prediction-aware secretary algorithm: simulation, analytic case bounds,
and numerical certification for chosen-order (cosp) and random-order (rosp)
arrivals.

Only ``core`` is imported with the package.  Every other public name, and
each submodule, loads on first access (PEP 562), so a run compiles only the
modules it reaches."""

import importlib

from .core import (
    COSP,
    ROSP,
    CaseProfile,
    Instance,
    PolicyParams,
    Schedule,
    build_instance,
    case_profile,
    dump_instance,
    load_instance,
    mistake_set,
)

THEOREM_COSP_PARAMS = PolicyParams(theta=0.58, tau=0.37, gamma=0.27, delta=0.46, beta=0.64)
THEOREM_COSP_BOUND = 0.262
THEOREM_ROSP_PARAMS = PolicyParams(theta=0.63, tau=0.33, gamma=0.34, delta=0.66)
THEOREM_ROSP_BOUND = 0.221

# each public name outside core, with the submodule that defines it
_LAZY = {
    "TrialOutcome": "policy",
    "make_cosp_schedule": "policy",
    "make_rosp_schedule": "policy",
    "run_trial": "policy",
    "CertReport": "certificate",
    "certify": "certificate",
    "report_to_json": "certificate",
    "SimResult": "simulate",
    "estimate_ratio": "simulate",
    "gen_case_family": "simulate",
    "gen_overestimated_top": "simulate",
    "gen_underestimated_best": "simulate",
    "bits_from_uniform": "derand",
    "derandomized_trial": "derand",
    "uniform_from_first_arrival": "derand",
    "GridSpec": "tune",
    "grid_search": "tune",
}
# the submodules reachable as attributes
_SUBMODULES = ("analytic", "certificate", "derand", "policy", "rng", "simulate", "tune")


def __getattr__(name):
    if name in _LAZY:
        value = getattr(importlib.import_module("." + _LAZY[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return __all__


__all__ = [
    "COSP",
    "ROSP",
    "CaseProfile",
    "CertReport",
    "GridSpec",
    "Instance",
    "PolicyParams",
    "Schedule",
    "SimResult",
    "TrialOutcome",
    "THEOREM_COSP_BOUND",
    "THEOREM_COSP_PARAMS",
    "THEOREM_ROSP_BOUND",
    "THEOREM_ROSP_PARAMS",
    "bits_from_uniform",
    "build_instance",
    "case_profile",
    "certify",
    "derandomized_trial",
    "dump_instance",
    "estimate_ratio",
    "gen_case_family",
    "gen_overestimated_top",
    "gen_underestimated_best",
    "grid_search",
    "load_instance",
    "make_cosp_schedule",
    "make_rosp_schedule",
    "mistake_set",
    "report_to_json",
    "run_trial",
    "uniform_from_first_arrival",
]
