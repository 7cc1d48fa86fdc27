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
``analytic.case_bound`` or ``analytic.large_regime_bound``.  ``certify`` is
one serial pass over ``iter_entries`` at a single shared ``analytic.Point``:
it keeps the first minimum (by ``CaseBound.sort_key``) of the exact cells and
of each large regime, and the first of those, with case 0, is the argmin.
The grid search in ``tune`` walks the same entries on a parameter mesh.
"""

from __future__ import annotations

import json
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

DEFAULT_THRESHOLDS = (20, 20)
DEFAULT_MARGIN = 1e-6

_CASE_SORT = {"C0": 0, "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6}
_BIG = 10**9  # sort stand-in for a large (unbounded) parameter

# the seven non-small regime patterns, in report order: flags (m, k, m2) large,
# and the regime that covers them (None: m2 <= m leaves the pattern empty)
_PATTERNS = (
    ((True, False, False), "large_m"),
    ((False, True, False), "large_k"),
    ((False, False, True), None),
    ((True, True, False), "large_mk"),
    ((True, False, True), "large_m2"),
    ((False, True, True), None),
    ((True, True, True), "large_mk"),
)
# the feasible regimes, each once, in the order _PATTERNS first names them
_REGIMES = tuple(dict.fromkeys(label for _, label in _PATTERNS if label))


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
    regime once; ``None`` marks a large parameter.  Certify walks them in
    one pass at a scalar point; tune walks them on a parameter mesh.
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
    return [
        CaseBound(f"C{entry[0]}", entry_bound(model, entry, params), "exact", m, k, m2)
        for entry in _cell_entries(model, m, k, m2)
    ]


def _regime_report(best: dict[str, CaseBound]) -> list[dict]:
    entries = []
    for (lm, lk, lm2), label in _PATTERNS:
        pattern = {"m": "large" if lm else "small", "k": "large" if lk else "small",
                   "m2": "large" if lm2 else "small"}
        if label is None:
            entries.append({"pattern": pattern, "label": None, "feasible": False,
                            "min_value": None, "note": "empty: m2 <= m forces m large"})
            continue
        entries.append(
            {
                "pattern": pattern,
                "label": label,
                "feasible": True,
                "min_value": best[label].value,
                "min_case": best[label].case_id,
            }
        )
    return entries


def certify(
    model: str,
    params: PolicyParams,
    target_b: float,
    thresholds: tuple[int, int] = DEFAULT_THRESHOLDS,
    margin: float = DEFAULT_MARGIN,
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
    # once; it also checks tau > 0 and, for cosp, beta > tau
    point = analytic.Point.of(model, params)

    # first minimum by sort_key (strict <) of each group of entries, the groups
    # met in order: case 0, the exact cells, then each large regime
    best = {"analytic": CaseBound("C0", point.r, "analytic", None, None, None)}
    for entry in iter_entries(model, tm, tk):
        case_id, regime, m, k, m2 = entry
        value = entry_bound(model, entry, point, (tm, tk))
        held = best.get(regime)
        # sort_key leads with the value, so a larger one cannot displace held
        if held is None or value <= held.value:
            cb = CaseBound(f"C{case_id}", value, regime, m, k, m2)
            if held is None or cb.sort_key() < held.sort_key():
                best[regime] = cb
    # the first of the group minima is the first minimum of the whole enumeration
    argmin = min(best.values(), key=CaseBound.sort_key)

    return CertReport(
        model=model,
        params=params,
        target_b=target_b,
        thresholds=(tm, tk),
        margin=margin,
        passed=(argmin.value - margin) >= target_b,
        min_value=argmin.value,
        argmin=argmin,
        cells_checked=small_cell_count(tm, tk) + len(_PATTERNS),
        regimes=tuple(_regime_report(best)),
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
