"""Prediction-aware secretary algorithm: simulation, analytic case bounds,
and numerical certification for chosen-order (cosp) and random-order (rosp)
arrivals."""

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
from .policy import TrialOutcome, make_cosp_schedule, make_rosp_schedule, run_trial
from .certify import CertReport, certify, report_to_json
from .simulate import (
    SimResult,
    estimate_ratio,
    gen_case_family,
    gen_overestimated_top,
    gen_underestimated_best,
)
from .derand import bits_from_uniform, derandomized_trial, uniform_from_first_arrival
from .tune import GridSpec, grid_search

THEOREM_COSP_PARAMS = PolicyParams(theta=0.58, tau=0.37, gamma=0.27, delta=0.46, beta=0.64)
THEOREM_COSP_BOUND = 0.262
THEOREM_ROSP_PARAMS = PolicyParams(theta=0.63, tau=0.33, gamma=0.34, delta=0.66)
THEOREM_ROSP_BOUND = 0.221

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
