"""Competitive-ratio certification by case enumeration.

Re-runs the lower-bound enumeration: every admissible small structure
(m, k, m2) within the thresholds is checked exactly against the applicable
case bounds, and seven large-parameter regimes are checked against their
symbolic substitutes.  The certificate records the global minimum, where it
was attained, and whether min - margin clears the target constant.

Cases 2 and 3 are covered through their reduction identities (case 2 is
case 1 at m+1, case 3 is case 4 at m-1), so only cases 1, 4, 5, 6 are
evaluated per cell; case 0 is the single analytic check
(1-theta)/(1+theta) >= B.

Each case is evaluated only on cells its adversarial structure can
realize:

* case 1 needs m >= 1,
* cases 4 and 5 need k >= 1 (the true best beats the top prediction) and
  m2 <= m-1 (a mistake coinciding with the special candidate never counts
  toward m2); chosen-order case 4 additionally needs m >= 2 (with the top
  prediction pinned at beta its printed bound degenerates at m = 1, where
  the structure's worst value is (1-beta)(1-gamma); the random-order bound
  stays healthy at m = 1 and its large-k limit
  tau^2 ln(1/tau) + tau(1-tau+tau ln tau) = 0.2211 is what the published
  0.221 rounds from),
* case 6 needs m = 0 or k >= 1, over the enumerated window m2 >= m-k.

``iter_entries`` is the one enumeration of (case, regime, m, k, m2)
entries, and ``entry_bound`` evaluates an entry through
``analytic.case_bound`` or ``analytic.large_regime_bound``.  The grid
search in ``tune`` walks the same entries on a parameter mesh.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import analytic
from .core import COSP, ROSP, CaseProfile, PolicyParams

__all__ = [
    "CaseBound",
    "CertReport",
    "certify",
    "certify_cell",
    "entry_bound",
    "iter_entries",
    "small_cell_count",
    "report_to_json",
]

log = logging.getLogger(__name__)

DEFAULT_THRESHOLDS = (20, 20)
DEFAULT_MARGIN = 1e-6

_CASE_SORT = {"C0": 0, "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6}
_BIG = 10**9  # sort stand-in for a large (unbounded) parameter

# the seven non-small regime patterns, in report order: flags (m, k, m2) large
_PATTERNS = (
    (True, False, False),
    (False, True, False),
    (False, False, True),
    (True, True, False),
    (True, False, True),
    (False, True, True),
    (True, True, True),
)


@dataclass(frozen=True)
class CaseBound:
    case_id: str
    value: float
    regime: str  # "exact", "analytic", or a large-regime label
    m: int | None
    k: int | None
    m2: int | None

    def sort_key(self):
        return (
            self.value,
            _CASE_SORT[self.case_id],
            self.m if self.m is not None else _BIG,
            self.k if self.k is not None else _BIG,
            self.m2 if self.m2 is not None else _BIG,
        )


@dataclass(frozen=True)
class CertReport:
    model: str
    params: PolicyParams
    target_b: float
    thresholds: tuple[int, int]
    margin: float
    passed: bool
    min_value: float
    argmin: CaseBound
    cells_checked: int
    regimes: tuple[dict, ...]


def _case4_min_m(model: str) -> int:
    return 2 if model == COSP else 1


def _applicable_cases(model: str, m: int, k: int, m2: int) -> list[int]:
    cases = []
    if m >= 1:
        cases.append(1)
    if m >= _case4_min_m(model) and k >= 1 and m2 <= m - 1:
        cases.append(4)
    if m >= 1 and k >= 1 and m2 <= m - 1:
        cases.append(5)
    if m == 0 or (k >= 1 and m2 >= max(0, m - k)):
        cases.append(6)
    return cases


def _cell_entries(model: str, m: int, k: int, m2: int):
    for cid in _applicable_cases(model, m, k, m2):
        yield cid, "exact", m, k, m2


def iter_small_cells(tm: int, tk: int):
    for m in range(0, tm + 1):
        for k in range(0, tk + 1):
            for m2 in range(max(0, m - k), m + 1):
                yield m, k, m2


def small_cell_count(tm: int, tk: int) -> int:
    return sum(min(m, k) + 1 for m in range(tm + 1) for k in range(tk + 1))


def _regime_label(lm: bool, lk: bool, lm2: bool) -> str | None:
    if lm2 and not lm:
        return None  # m2 <= m makes this pattern empty
    if lm and lk:
        return "large_mk"
    if lm and lm2:
        return "large_m2"
    if lm:
        return "large_m"
    if lk:
        return "large_k"
    return None


# the feasible regimes, each once, in the order _PATTERNS first names them
_REGIMES = ("large_m", "large_k", "large_mk", "large_m2")


def _regime_entries(model: str, label: str, tm: int, tk: int):
    for case_id in (1, 4, 5, 6):
        min_m = _case4_min_m(model) if case_id == 4 else 1 if case_id in (1, 5) else 0
        if label == "large_k":
            for m in range(min_m, tm + 1):
                yield case_id, label, m, None, None
        elif case_id == 1 or label == "large_mk":
            yield case_id, label, None, None, None
        elif label == "large_m2":
            for k in range(1, tk + 1):
                yield case_id, label, None, k, None
        else:
            # small (k, m2) must admit some m > tm: m2 >= m-k means m <= k+m2
            for k in range(1, tk + 1):
                for m2 in range(max(0, tm + 1 - k), tm + 1):
                    yield case_id, label, None, k, m2


def iter_entries(model: str, tm: int, tk: int):
    """Every entry ``(case_id, regime, m, k, m2)`` of the enumeration.

    The exact small cells come first (regime ``"exact"``), then each large
    regime once; ``None`` marks a large parameter.  Certify walks these
    entries cell by cell and regime by regime; tune walks them all on a
    parameter mesh.
    """
    for m, k, m2 in iter_small_cells(tm, tk):
        yield from _cell_entries(model, m, k, m2)
    for label in _REGIMES:
        yield from _regime_entries(model, label, tm, tk)


def entry_bound(model: str, entry, params, thresholds=DEFAULT_THRESHOLDS):
    """The bound of one enumeration entry at ``params`` (a PolicyParams or an
    ``analytic.Point``)."""
    case_id, regime, m, k, m2 = entry
    if regime == "exact" or (case_id == 1 and m is not None):
        return analytic.case_bound(model, case_id, m, k or 0, m2 or 0, params)
    if regime == "large_k":
        m2 = 0  # every m2-dependent term vanishes under large k
    small = {name: v for name, v in zip(("m", "k", "m2"), (m, k, m2)) if v is not None}
    return analytic.large_regime_bound(
        model, case_id, regime, params, thresholds=thresholds, **small
    )


def certify_cell(model: str, params, profile: CaseProfile) -> list[CaseBound]:
    """Exact bounds for every case applicable at one small cell."""
    m, k, m2 = profile.m, profile.k, profile.m2
    out = [
        CaseBound(f"C{entry[0]}", entry_bound(model, entry, params), "exact", m, k, m2)
        for entry in _cell_entries(model, m, k, m2)
    ]
    skipped = {1, 4, 5, 6} - {int(b.case_id[1]) for b in out}
    if skipped:
        log.debug("cell (%d,%d,%d): cases %s not applicable", m, k, m2, sorted(skipped))
    return out


def _evaluate_regimes(model, point, tm, tk):
    best: dict[tuple[str, int], CaseBound] = {}  # first minimum per (regime, case)
    for label in _REGIMES:
        for entry in _regime_entries(model, label, tm, tk):
            case_id, _, m, k, m2 = entry
            cb = CaseBound(f"C{case_id}", entry_bound(model, entry, point, (tm, tk)),
                           label, m, k, m2)
            key = (label, case_id)
            if key not in best or cb.sort_key() < best[key].sort_key():
                best[key] = cb
    entries = []
    bounds = []
    for lm, lk, lm2 in _PATTERNS:
        label = _regime_label(lm, lk, lm2)
        pattern = {"m": "large" if lm else "small", "k": "large" if lk else "small",
                   "m2": "large" if lm2 else "small"}
        if label is None:
            entries.append({"pattern": pattern, "label": None, "feasible": False,
                            "min_value": None, "note": "empty: m2 <= m forces m large"})
            continue
        case_bests = [best[label, cid] for cid in (1, 4, 5, 6) if (label, cid) in best]
        bounds.extend(case_bests)
        regime_best = min(case_bests, key=lambda cb: cb.sort_key())
        entries.append(
            {
                "pattern": pattern,
                "label": label,
                "feasible": True,
                "min_value": regime_best.value,
                "min_case": regime_best.case_id,
            }
        )
    return entries, bounds


def _cells_chunk(args):
    model, params_tuple, cells = args
    point = analytic.Point.of(model, PolicyParams(*params_tuple))
    best = None
    for m, k, m2 in cells:
        for cb in certify_cell(model, point, CaseProfile(m, k, m2)):
            if best is None or cb.sort_key() < best.sort_key():
                best = cb
    return best


def certify(
    model: str,
    params: PolicyParams,
    target_b: float,
    thresholds: tuple[int, int] = DEFAULT_THRESHOLDS,
    margin: float = DEFAULT_MARGIN,
    threads: int = 1,
) -> CertReport:
    """Certify min-over-cases >= target_b for the given parameters."""
    if model not in (COSP, ROSP):
        raise ValueError(f"unknown model {model!r}")
    if not 0.0 < target_b < 1.0:
        raise ValueError(f"target_b={target_b} outside (0, 1)")
    tm, tk = thresholds
    if tm < 1 or tk < 1:
        raise ValueError("thresholds must be >= 1")
    # one point for the whole enumeration, so each power and integral is taken
    # once; for cosp it also checks beta > tau
    point = analytic.Point.of(model, params)

    candidates: list[CaseBound] = [
        CaseBound("C0", analytic.prediction_floor(params.theta), "analytic", None, None, None)
    ]

    cells = list(iter_small_cells(tm, tk))
    if threads > 1:
        chunks = [cells[i::threads] for i in range(threads)]
        params_tuple = (params.theta, params.tau, params.gamma, params.delta, params.beta)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for best in pool.map(_cells_chunk, [(model, params_tuple, ch) for ch in chunks]):
                if best is not None:
                    candidates.append(best)
    else:
        for m, k, m2 in cells:
            candidates.extend(certify_cell(model, point, CaseProfile(m, k, m2)))

    regime_entries, regime_bounds = _evaluate_regimes(model, point, tm, tk)
    candidates.extend(regime_bounds)

    argmin = min(candidates, key=lambda cb: cb.sort_key())
    min_value = argmin.value
    passed = (min_value - margin) >= target_b
    return CertReport(
        model=model,
        params=params,
        target_b=target_b,
        thresholds=(tm, tk),
        margin=margin,
        passed=passed,
        min_value=min_value,
        argmin=argmin,
        cells_checked=small_cell_count(tm, tk) + len(_PATTERNS),
        regimes=tuple(regime_entries),
    )


def _fmt(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    return x


def report_to_json(report: CertReport) -> str:
    p = report.params
    obj = {
        "model": report.model,
        "params": {
            "theta": _fmt(p.theta),
            "tau": _fmt(p.tau),
            "beta": _fmt(p.beta) if p.beta is not None else None,
            "gamma": _fmt(p.gamma),
            "delta": _fmt(p.delta),
        },
        "B": _fmt(report.target_b),
        "passed": report.passed,
        "min_value": _fmt(report.min_value),
        "argmin": {
            "case": report.argmin.case_id,
            "regime": report.argmin.regime,
            "m": report.argmin.m,
            "k": report.argmin.k,
            "m2": report.argmin.m2,
        },
        "margin": _fmt(report.margin),
        "cells_checked": report.cells_checked,
        "thresholds": {"m": report.thresholds[0], "k": report.thresholds[1]},
        "case0_value": _fmt(analytic.prediction_floor(p.theta)),
        "regimes": [
            {key: _fmt(v) if isinstance(v, float) else v for key, v in entry.items()}
            for entry in report.regimes
        ],
    }
    return json.dumps(obj, indent=2) + "\n"
