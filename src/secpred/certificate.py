"""Competitive-ratio certification by case enumeration.

Re-runs the lower-bound enumeration: every admissible small structure
(m, k, m2) within the thresholds is checked exactly against the applicable
case bounds, and seven large-parameter regimes are checked against their
symbolic floors.  The certificate records the global minimum, where it
was attained, and whether min - MARGIN clears the target constant.

Cases 2 and 3 are covered through their reduction identities (case 2 is
case 1 at m+1, case 3 is case 4 at m-1), so only cases 1, 4, 5, 6 are
evaluated per cell; case 0 is the single analytic check
(1-theta)/(1+theta) >= B.

Each case is evaluated only on cells its adversarial structure can
realize (``_LEAST_M`` holds each case's least m), and once per value:

* case 1 needs m >= 1 and reads m alone, so it is taken at (m, 0, m) only,
* cases 4 and 5 need k >= 1 (the true best beats the top prediction) and
  m2 <= m-1 (a mistake coinciding with the special candidate never counts
  toward m2); chosen-order case 4 additionally needs m >= 2 (with the top
  prediction pinned at beta its printed bound degenerates at m = 1, where
  the structure's worst value is (1-beta)(1-gamma); the random-order bound
  stays healthy at m = 1 and its large-k limit
  tau^2 ln(1/tau) + tau(1-tau+tau ln tau) = 0.2211 is what the published
  0.221 rounds from),
* case 6 needs k >= 1, over the enumerated window m2 >= m-k, or m = 0,
  where it is the floor r and is taken at (0, 0, 0) only.

An entry left out equals a kept one that sorts before it, so the first
minimum is the same.

``entry_groups`` is the one enumeration of (case, regime, m, k, m2)
entries, built with numpy as groups of one case, regime and pattern of
large parameters, each cut into pieces, of a size the caller sets, that
hold m, k and m2 as int arrays; ``entry`` turns one entry into ints, and
``iter_entries`` is their flattening.
``certify`` is one serial pass over ``entry_groups`` at a single shared
``analytic.Point``: each piece is one call of its case's form in
``analytic.CASE_FORMS``, which is exact on a small cell and takes ``None``
for a large parameter, and gives each entry the bits a call on the entry
alone gives.  It skips the argument checks of ``analytic.case_bound``, the
one checked front end, which every entry passes and which gives the same
bits.  It keeps the first minimum (by ``CaseBound.sort_key``; a group lists
its entries in increasing (m, k, m2), so within a piece it is the first
``np.argmin``) of the exact cells and of each large regime, and the first of
those, with case 0, is the argmin.  Its memory is a piece's arrays and
tables of (m, k) runs, so it barely grows with the thresholds.  The grid
search in ``tune`` walks the same pieces on a parameter mesh.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import analytic
from .analytic import DEFAULT_THRESHOLDS, MAX_THRESHOLD, check_thresholds  # re-exported
from .core import COSP, ROSP, PolicyParams, check_integer, check_model

__all__ = [
    "DEFAULT_THRESHOLDS",
    "MAX_THRESHOLD",
    "CaseBound",
    "CertReport",
    "certify",
    "check_thresholds",
    "entry",
    "entry_groups",
    "iter_entries",
    "small_cell_count",
    "report_to_json",
]

MARGIN = 1e-6  # a certificate passes when min - MARGIN >= B

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
    case_id: str  # "C0" to "C6"
    value: float
    regime: str  # "exact", "analytic", or a large-regime label
    m: int | None
    k: int | None
    m2: int | None

    def sort_key(self):
        return (
            self.value,
            int(self.case_id[1:]),
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


# the least m the enumeration evaluates each case at, in the exact cells and
# the large-k regime alike
_LEAST_M = {
    (COSP, 1): 1, (COSP, 4): 2, (COSP, 5): 1, (COSP, 6): 0,
    (ROSP, 1): 1, (ROSP, 4): 1, (ROSP, 5): 1, (ROSP, 6): 0,
}


def small_cell_count(tm: int, tk: int) -> int:
    return sum(min(m, k) + 1 for m in range(tm + 1) for k in range(tk + 1))


# certify's piece size: each piece is built when it is reached, so its
# memory stays flat as the thresholds grow
_CHUNK = 1 << 11


def _pieces(case_id, regime, m, k, lo, count, size):
    # the group whose runs hold m2 = lo, ..., lo + count - 1 at each (m, k)
    # (None: large), in pieces of at most size entries
    ends = np.cumsum(count)
    for start in range(0, int(ends[-1]) if ends.size else 0, size):
        at = np.arange(start, min(start + size, int(ends[-1])))
        run = np.searchsorted(ends, at, side="right")
        m2 = None if lo is None else lo[run] + count[run] - (ends[run] - at)
        yield case_id, regime, *(None if a is None else a[run] for a in (m, k)), m2


def entry_groups(model: str, tm: int, tk: int, size: int | None = None):
    """The entries of ``iter_entries`` as groups ``(case_id, regime, m, k, m2)``.

    A group holds entries of one case and regime with the same large
    parameters: each of m, k and m2 is ``None`` (large) for the whole group
    or an int array over its entries.  Case 6 at m = 0, the floor r, is a
    group of one entry with m the int 0, as is an entry with every
    parameter large.  A group is cut into pieces of at most ``size``
    entries (certify's ``_CHUNK``, 2048, by default), built when reached.
    The exact cells come first: the floor, then cases 1, 4, 5 and 6, each
    over its cells in (m, k, m2) order; then each large regime, cases 1, 4,
    5 and 6 in turn.  A bad model, thresholds or size raises ValueError
    before the first piece.
    """
    check_model(model)
    tm, tk = check_thresholds((tm, tk))
    size = check_integer("size", _CHUNK if size is None else size, 1)
    yield 6, "exact", 0, 0, 0
    # case 1 reads m alone and is taken at the first cell (m, 0, m)
    ms = np.arange(_LEAST_M[model, 1], tm + 1)
    yield from _pieces(1, "exact", ms, np.zeros_like(ms), ms, np.ones_like(ms), size)
    ks = np.arange(1, tk + 1)
    for case_id in (4, 5, 6):
        m = np.repeat(np.arange(max(1, _LEAST_M[model, case_id]), tm + 1), tk)
        k = np.resize(ks, m.shape)
        lo = np.maximum(0, m - k)  # m2 >= m - k, and m2 <= m - 1 in cases 4 and 5
        yield from _pieces(case_id, "exact", m, k, lo, m - lo + (case_id == 6), size)
    for label in _REGIMES:
        for case_id in (1, 4, 5, 6):
            if label == "large_k":
                least = _LEAST_M[model, case_id]
                if least == 0:
                    yield case_id, label, 0, None, None
                ms = np.arange(max(1, least), tm + 1)
                yield from _pieces(case_id, label, ms, None, None, np.ones_like(ms), size)
            elif case_id == 1 or label == "large_mk":
                yield case_id, label, None, None, None
            elif label == "large_m2":
                yield from _pieces(case_id, label, None, ks, None, np.ones_like(ks), size)
            else:
                # small (k, m2) must admit some m > tm: m2 >= m-k means m <= k+m2
                low = np.maximum(0, tm + 1 - ks)
                yield from _pieces(case_id, label, None, ks, low, tm + 1 - low, size)


def _size(group) -> int:
    return next((a.size for a in group[2:] if isinstance(a, np.ndarray)), 1)


def entry(group, i):
    """Entry i of ``group`` as (case_id, regime, m, k, m2) with int
    parameters, which ``analytic._gather`` takes as a plain index, with none
    of an array's reductions (one-entry arrays made tune 15 % slower)."""
    case_id, regime, *params = group
    return (case_id, regime, *(int(a[i]) if isinstance(a, np.ndarray) else a for a in params))


def iter_entries(model: str, tm: int, tk: int):
    """Every entry ``(case_id, regime, m, k, m2)`` of the enumeration:
    ``entry_groups`` flattened, in its order, each as ``entry`` gives it.

    The exact small cells come first (regime ``"exact"``), then each large
    regime once; ``None`` marks a large parameter.  Certify and tune
    evaluate the groups; this form is for checks and tests.
    """
    for group in entry_groups(model, tm, tk):
        for i in range(_size(group)):
            yield entry(group, i)


def _first_min(group, values) -> CaseBound:
    # the group's first minimum by CaseBound.sort_key: its case and large
    # parameters are the same throughout and its entries run in increasing
    # (m, k, m2), so it is the first np.argmin
    i = int(np.argmin(values))
    case_id, regime, m, k, m2 = entry(group, i)
    if np.isnan(values[i]):  # argmin finds the first NaN, if there is one
        raise ValueError(f"case {case_id} ({regime}) gave NaN at m={m}, k={k}, m2={m2}")
    return CaseBound(f"C{case_id}", float(values[i]), regime, m, k, m2)


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
) -> CertReport:
    """Certify min-over-cases >= target_b for the given parameters."""
    check_model(model)
    if not 0.0 < target_b < 1.0:
        raise ValueError(f"target_b={target_b} outside (0, 1)")
    tm, tk = check_thresholds(thresholds)
    # one point for the whole enumeration, so each power and integral is taken
    # once; it also checks tau > 0 and, for cosp, beta > tau
    point = analytic.Point.of(model, params)

    # first minimum by sort_key (strict <) of each regime, case 0 on its own,
    # the groups met in order
    best = {"analytic": CaseBound("C0", point.r, "analytic", None, None, None)}
    for group in entry_groups(model, tm, tk):
        case_id, regime, m, k, m2 = group
        value = analytic.CASE_FORMS[model, case_id](point, m, k, m2, tm, tk)
        found = _first_min(group, np.broadcast_to(value, _size(group)))
        if regime not in best or found.sort_key() < best[regime].sort_key():
            best[regime] = found
    # the first of the regime minima is the first minimum of the whole enumeration
    argmin = min(best.values(), key=CaseBound.sort_key)

    return CertReport(
        model=model,
        params=params,
        target_b=target_b,
        thresholds=(tm, tk),
        margin=MARGIN,
        passed=(argmin.value - MARGIN) >= target_b,
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
            "beta": _fmt(p.beta),
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
            {key: _fmt(v) for key, v in entry.items()}
            for entry in report.regimes
        ],
    }
    return json.dumps(obj, indent=2) + "\n"
