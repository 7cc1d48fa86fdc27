import hashlib
from dataclasses import replace

import numpy as np
import pytest

from secpred import (
    GridSpec,
    PolicyParams,
    THEOREM_COSP_PARAMS as P,
    THEOREM_ROSP_PARAMS as Q,
    certificate,
    certify,
    grid_search,
    report_to_json,
)
from secpred.analytic import CASE_FORMS, Point, case_bound, prediction_floor
from secpred.certificate import (
    DEFAULT_THRESHOLDS,
    MAX_THRESHOLD,
    CaseBound,
    entry,
    entry_groups,
    iter_entries,
    small_cell_count,
)
from secpred.tune import GridSpec, _axes


def _small_cells(tm, tk):
    """The small (m, k, m2) cells in enumeration order: m <= tm, k <= tk and
    max(0, m - k) <= m2 <= m."""
    for m in range(tm + 1):
        for k in range(tk + 1):
            for m2 in range(max(0, m - k), m + 1):
                yield m, k, m2


def _flat_mesh(model, grid):
    """The cells of the mesh ``tune._axes`` spans, as flat (tau, beta,
    gamma, delta) columns in the search array's order."""
    axes = _axes(model, grid)
    shape = np.broadcast_shapes(*(a.shape for a in axes if a is not None))
    return tuple(None if a is None else np.broadcast_to(a, shape).ravel() for a in axes)


def cell_bounds(model, params, cell):
    """The exact bounds the enumeration evaluates at one small (m, k, m2) cell."""
    bounds = []
    for case_id, regime, m, k, m2 in iter_entries(model, 20, 20):
        if regime == "exact" and (m, k, m2) == cell:
            value = case_bound(model, case_id, m, k, m2, params)
            bounds.append(CaseBound(f"C{case_id}", value, regime, m, k, m2))
    return bounds


def test_cell_000_only_case6():
    bounds = cell_bounds("cosp", P, (0, 0, 0))
    assert [b.case_id for b in bounds] == ["C6"]
    assert bounds[0].value == pytest.approx(prediction_floor(P.theta), abs=1e-15)


def test_cell_100_case1_only():
    # m2 >= m - k, so the enumeration's m = 1, k = 0 cell is m2 = 1; case 1
    # ignores m2
    assert cell_bounds("cosp", P, (1, 0, 0)) == []
    bounds = cell_bounds("cosp", P, (1, 0, 1))
    assert [b.case_id for b in bounds] == ["C1"]
    assert bounds[0].value == pytest.approx(P.gamma, abs=1e-15)


def test_cell_211_four_bounds():
    # case 1 reads m alone, so its m = 2 bound sits at the first cell (2, 0, 2)
    bounds = cell_bounds("cosp", P, (2, 1, 1))
    assert sorted(b.case_id for b in bounds) == ["C4", "C5", "C6"]
    first = cell_bounds("cosp", P, (2, 0, 2))
    assert [b.case_id for b in first] == ["C1"]
    assert all(b.value >= 0.262 for b in bounds + first)


@pytest.mark.parametrize("model,params", [("cosp", P), ("rosp", Q), ("cosp", "mesh"),
                                          ("rosp", "mesh")])
def test_k_free_entries_taken_once(model, params):
    # Case 1 reads m alone and case 6 at m = 0 is the floor r at every k, so
    # the enumeration takes each once per m, at (m, 0, m).  Were a form to read
    # k or m2 there, a dropped entry could hold a lower bound.
    tm, tk = DEFAULT_THRESHOLDS
    point = _mesh_point(model) if params == "mesh" else Point.of(model, params)
    first = _mesh_point(model) if params == "mesh" else Point.of(model, params)
    c1, c6 = CASE_FORMS[model, 1], CASE_FORMS[model, 6]
    for m, k, m2 in _small_cells(tm, tk):
        if m >= 1:
            want = c1(first, m, 0, m, tm, tk)
            assert np.array_equal(c1(point, m, k, m2, tm, tk), want), (m, k, m2)
    for k in range(tk + 1):
        assert np.array_equal(c6(point, 0, k, 0, tm, tk), c6(first, 0, 0, 0, tm, tk)), k
    exact = [(c, m, k, m2) for c, regime, m, k, m2 in iter_entries(model, tm, tk)
             if regime == "exact" and (c == 1 or c == 6 and m == 0)]
    assert exact == [(6, 0, 0, 0)] + [(1, m, 0, m) for m in range(1, tm + 1)]


def test_cell_count_closed_form():
    assert small_cell_count(20, 20) == sum(
        1 for _ in _small_cells(20, 20)
    )
    report = certify("cosp", P, 0.262, thresholds=(5, 5))
    assert report.cells_checked == small_cell_count(5, 5) + 7


def test_cosp_certification_passes():
    report = certify("cosp", P, 0.262)
    assert report.passed
    assert report.min_value - report.margin >= 0.262


def test_rosp_certification_passes():
    report = certify("rosp", Q, 0.221)
    assert report.passed


def test_gamma_zero_fails():
    params = PolicyParams(theta=0.58, tau=0.37, gamma=0.0, delta=0.46, beta=0.64)
    report = certify("cosp", params, 0.262)
    assert not report.passed
    assert report.argmin.case_id == "C1"
    assert report.argmin.m == 1


def test_tightness_failure_names_cell():
    report = certify("cosp", P, 0.29, thresholds=(8, 8))
    assert not report.passed
    a = report.argmin
    assert a.case_id in {"C0", "C1", "C4", "C5", "C6"}
    assert a.m is not None or a.regime != "exact"


def test_bounds_not_vacuously_loose():
    # raising B by 0.02 beyond each theorem constant must fail
    assert not certify("cosp", P, 0.262 + 0.02, thresholds=(8, 8)).passed
    assert not certify("rosp", Q, 0.221 + 0.02, thresholds=(8, 8)).passed


GAMMA_ZERO = PolicyParams(theta=0.58, tau=0.37, gamma=0.0, delta=0.46, beta=0.64)


@pytest.mark.parametrize(
    "model,params,target_b",
    [("cosp", P, 0.262), ("cosp", P, 0.29), ("cosp", GAMMA_ZERO, 0.262), ("rosp", Q, 0.221)],
)
def test_single_pass_matches_enumeration_minimum(model, params, target_b):
    # every entry evaluated on its own, with no shared point or running minimum
    thresholds = (6, 6)
    bounds = [CaseBound("C0", prediction_floor(params.theta), "analytic", None, None, None)]
    for case_id, regime, m, k, m2 in iter_entries(model, *thresholds):
        value = case_bound(model, case_id, m, k, m2, params, thresholds)
        bounds.append(CaseBound(f"C{case_id}", value, regime, m, k, m2))
    report = certify(model, params, target_b, thresholds=thresholds)
    assert report.argmin == min(bounds, key=CaseBound.sort_key)
    assert report.min_value == report.argmin.value
    feasible = [r for r in report.regimes if r["feasible"]]
    assert len(feasible) == 5
    for regime in feasible:
        best = min((b for b in bounds if b.regime == regime["label"]), key=CaseBound.sort_key)
        assert (regime["min_value"], regime["min_case"]) == (best.value, best.case_id)


def _mesh_point(model):
    tau, beta, gamma, delta = _flat_mesh(model, GridSpec.coarse(model, step=0.3))
    return Point(tau, gamma, delta, beta)


@pytest.mark.parametrize("thresholds", [(6, 6), (4, 7)])
@pytest.mark.parametrize(
    "model,params",
    [("cosp", P), ("rosp", Q), ("cosp", GAMMA_ZERO), ("cosp", "mesh"), ("rosp", "mesh")],
)
def test_entry_bound_matches_front_ends(model, params, thresholds):
    # certify and tune read analytic.CASE_FORMS directly; the checked front
    # end must accept every entry and give the same bits, on a tune mesh as
    # well (two points, so neither call reads the other's columns)
    mesh = params == "mesh"
    point = _mesh_point(model) if mesh else Point.of(model, params)
    front = _mesh_point(model) if mesh else params
    for entry in iter_entries(model, *thresholds):
        case_id, _, m, k, m2 = entry
        got = CASE_FORMS[model, case_id](point, m, k, m2, *thresholds)
        want = case_bound(model, case_id, m, k, m2, front, thresholds)
        assert np.array_equal(got, want), entry


@pytest.mark.parametrize("kind", ["scalar", "mesh"])
@pytest.mark.parametrize("model", ["cosp", "rosp"])
def test_memo_keys_carry_thresholds(model, kind):
    # a point's columns carry no threshold state: one point walked at (6, 6)
    # and then at (4, 7) must give what a fresh point gives at each
    def fresh():
        if kind == "mesh":
            return _mesh_point(model)
        return Point.of(model, P if model == "cosp" else Q)

    shared = fresh()
    for thresholds in [(6, 6), (4, 7)]:
        point = fresh()
        for entry in iter_entries(model, *thresholds):
            case_id, _, m, k, m2 = entry
            got = case_bound(model, case_id, m, k, m2, shared, thresholds)
            want = case_bound(model, case_id, m, k, m2, point, thresholds)
            assert np.array_equal(got, want), entry


@pytest.mark.parametrize(
    "model,params,target_b,digest,threshold",
    [
        ("cosp", P, 0.262, "827d3d3c59513de1043a4124baa3bb63ed0ead43c083d4d50ebfd152c2c8b1de", 20),
        ("rosp", Q, 0.221, "a960e7148502b31aac8622b088ac37623df57e47762d518b3c7a3954e86cc77f", 20),
        ("cosp", P, 0.29, "42c723071a5b77633a62436ac38adee7bf77f197b1e8ff283623044303257b87", 20),
        ("cosp", GAMMA_ZERO, 0.262,
         "65fb00a6d69fc0dbe3f7aa8cad62e328f8c59296cc9655c98b799d07e083dd74", 20),
        # at T = 40 the pow-over-x exponents reach 40 (cosp) and 121 (rosp)
        ("cosp", P, 0.262, "d2ae5fecb94de7fe7700fb71dc2d9369539275050401146950d8c6654060e6fb", 40),
        ("rosp", Q, 0.221, "f5d9075f7488a00ca7e1ac4faf0fb86bd5c192b2a035a041d9a977096ec44845", 40),
    ],
)
def test_certificate_bytes_pinned(model, params, target_b, digest, threshold):
    text = report_to_json(certify(model, params, target_b, thresholds=(threshold, threshold)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_certify_tiny_tau_completes():
    # tau = 1e-6 is valid; every pow-over-x integral is a finite sum, so the
    # enumeration finishes and reports an honest failure
    report = certify("rosp", replace(Q, tau=1e-6), 0.01)
    assert not report.passed
    assert report.min_value < 0.01


def test_report_json_stable():
    a = report_to_json(certify("cosp", P, 0.262, thresholds=(6, 6)))
    b = report_to_json(certify("cosp", P, 0.262, thresholds=(6, 6)))
    assert a == b
    import json

    obj = json.loads(a)
    assert list(obj) == [
        "model", "params", "B", "passed", "min_value", "argmin", "margin",
        "cells_checked", "thresholds", "case0_value", "regimes",
    ]
    assert obj["passed"] is True
    assert len(obj["regimes"]) == 7
    infeasible = [r for r in obj["regimes"] if not r["feasible"]]
    assert len(infeasible) == 2  # (m2 large, m small) patterns are empty


def test_margin_is_fixed():
    report = certify("rosp", Q, 0.9, thresholds=(6, 6))
    assert report.margin == 1e-6
    assert not report.passed
    with pytest.raises(TypeError):
        certify("rosp", Q, 0.9, thresholds=(6, 6), margin=-1.0)


def test_threshold_cap():
    certify("cosp", P, 0.262, thresholds=(MAX_THRESHOLD, 1))
    for thresholds in ((MAX_THRESHOLD + 1, 1), (1, MAX_THRESHOLD + 1), (100_000, 1)):
        with pytest.raises(ValueError, match="t[mk] exceeds the cap of 200"):
            certify("cosp", P, 0.262, thresholds=thresholds)


@pytest.mark.parametrize("thresholds", [(float("nan"), 20), (20.5, 20), (20, "20"), (20,), None])
@pytest.mark.parametrize("run", [
    lambda t: certify("rosp", Q, 0.2, thresholds=t),
    lambda t: grid_search("rosp", GridSpec.single(Q), thresholds=t),
    lambda t: grid_search("rosp", GridSpec.single(Q), search_thresholds=t),
], ids=["certify", "grid_search", "grid_search search_thresholds"])
def test_non_integer_thresholds_rejected(run, thresholds):
    # a pair is checked item by item, anything else as a whole
    pair = isinstance(thresholds, tuple) and len(thresholds) == 2
    match = "t[mk] must be an integer" if pair else "thresholds must be two integers"
    with pytest.raises(ValueError, match=match):
        run(thresholds)


def test_precondition_errors():
    with pytest.raises(ValueError):
        certify("cosp", PolicyParams(theta=0.5, tau=0.5, gamma=0.3, delta=0.4, beta=0.4), 0.2)
    with pytest.raises(ValueError):
        certify("cosp", P, 1.5)
    with pytest.raises(ValueError):
        certify("cosp", P, 0.2, thresholds=(0, 5))
    with pytest.raises(ValueError, match="tau > 0"):
        certify("cosp", PolicyParams(theta=0.5, tau=0.0, gamma=0.3, delta=0.4, beta=0.4), 0.2)
    with pytest.raises(ValueError, match="tau > 0"):
        certify("rosp", PolicyParams(theta=0.5, tau=0.0, gamma=0.3, delta=0.4), 0.2)
    # refused before the walk, which ended in "case 1 (exact) gave NaN"
    with pytest.raises(ValueError, match="1 / tau finite"):
        certify("rosp", PolicyParams(theta=0.5, tau=1e-310, gamma=0.5, delta=0.5), 0.2)


@pytest.mark.parametrize("args,match", [
    (("xosp", 3, 3), "unknown model"),
    (("cosp", 0, 3), ">= 1"),
    (("rosp", 3, -2), ">= 1"),
    # the two ids name the rule their row breaks, as they did before the
    # message named the threshold
    pytest.param(("cosp", 3.5, 3), "tm must be an integer, got 3.5", id="args3-two integers"),
    pytest.param(("rosp", 300, 300), "tm exceeds the cap of 200", id="args4-exceed the cap"),
])
@pytest.mark.parametrize("walk", [entry_groups, iter_entries], ids=["entry_groups", "iter_entries"])
def test_enumeration_arguments_checked(walk, args, match):
    # a bad model or thresholds raise before the first piece or entry
    with pytest.raises(ValueError, match=match):
        next(walk(*args))


@pytest.mark.parametrize("size,match", [(0, ">= 1"), (-7, ">= 1"), (2.0, "integer"), (True, "integer")])
def test_piece_size_checked(size, match):
    with pytest.raises(ValueError, match=f"size must be.*{match}"):
        next(entry_groups("cosp", 3, 3, size=size))


def _cell_entries(model, tm, tk):
    """The enumeration written out cell by cell, as certify's rules state
    it: case 1 at (m, 0, m), cases 4 and 5 where k >= 1 and m2 <= m - 1,
    case 6 where k >= 1 or at (0, 0, 0), each from its least m; then the
    large regimes."""
    least = {c: m for (mod, c), m in certificate._LEAST_M.items() if mod == model}
    out = []
    for m, k, m2 in _small_cells(tm, tk):
        if k == 0:
            out.append((1 if m >= least[1] else 6, "exact", m, k, m2))
            continue
        for case_id in (4, 5):
            if m >= least[case_id] and m2 <= m - 1:
                out.append((case_id, "exact", m, k, m2))
        if m >= 1:
            out.append((6, "exact", m, k, m2))
    for label in ("large_m", "large_k", "large_mk", "large_m2"):
        for case_id in (1, 4, 5, 6):
            if label == "large_k":
                out += [(case_id, label, m, None, None) for m in range(least[case_id], tm + 1)]
            elif case_id == 1 or label == "large_mk":
                out.append((case_id, label, None, None, None))
            elif label == "large_m2":
                out += [(case_id, label, None, k, None) for k in range(1, tk + 1)]
            else:
                out += [(case_id, label, None, k, m2) for k in range(1, tk + 1)
                        for m2 in range(max(0, tm + 1 - k), tm + 1)]
    return out


@pytest.mark.parametrize("thresholds", [(1, 1), (4, 7), (6, 6), (7, 3), (20, 20)])
@pytest.mark.parametrize("model", ["cosp", "rosp"])
def test_iter_entries_flattens_entry_groups(model, thresholds):
    # the groups hold every entry of the cell-by-cell enumeration once, and
    # iter_entries is their flattening in group order; pieces of one entry
    # and of 7 entries cut the same entries, none past the size asked for
    def flattened(most=None):
        entries = []
        for case_id, regime, m, k, m2 in entry_groups(model, *thresholds, size=most):
            arrays = [a for a in (m, k, m2) if isinstance(a, np.ndarray)]
            size = arrays[0].size if arrays else 1
            assert all(a.shape == (size,) for a in arrays)
            assert 1 <= size <= (most or certificate._CHUNK)
            columns = [a.tolist() if isinstance(a, np.ndarray) else [a] * size for a in (m, k, m2)]
            entries += [(case_id, regime, *entry) for entry in zip(*columns)]
        return entries

    want = _cell_entries(model, *thresholds)
    got = flattened()
    assert got == list(iter_entries(model, *thresholds))
    assert sorted(got, key=repr) == sorted(want, key=repr) and len(set(got)) == len(got)
    assert flattened(1) == got and flattened(7) == got


def _group_point(model, params):
    if params == "mesh":
        return _mesh_point(model)
    return Point.of(model, P if model == "cosp" else Q)


@pytest.mark.parametrize("thresholds", [(1, 1), (4, 7), (6, 6)])
@pytest.mark.parametrize("kind", ["scalar", "mesh"])
@pytest.mark.parametrize("model", ["cosp", "rosp"])
def test_group_values_equal_entry_values(model, kind, thresholds):
    # a group evaluated at once, with m, k and m2 as arrays whose entry axis
    # leads the point's axes, gives every entry the bits of a call on that
    # entry alone, at a scalar point and on a flat step-0.3 tune mesh (two
    # points, so neither call reads the other's columns)
    point, single = _group_point(model, kind), _group_point(model, kind)
    tail = (1,) * np.ndim(point.tau)
    for group in entry_groups(model, *thresholds):
        case_id, _, *params = group
        form = CASE_FORMS[model, case_id]
        arrays = [a.reshape(-1, *tail) if isinstance(a, np.ndarray) else a for a in params]
        size = next((a.shape[0] for a in arrays if isinstance(a, np.ndarray)), 1)
        values = np.broadcast_to(form(point, *arrays, *thresholds),
                                 (size, *np.shape(point.tau)))
        columns = [a.tolist() if isinstance(a, np.ndarray) else [a] * size for a in params]
        for i, entry in enumerate(zip(*columns)):
            want = form(single, *entry, *thresholds)
            assert np.array_equal(values[i], want), (case_id, entry)


@pytest.mark.parametrize("model,params,target_b", [("cosp", P, 0.262), ("rosp", Q, 0.221)])
def test_pieces_of_seven_change_nothing(model, params, target_b, monkeypatch):
    # pieces of 7 entries cut every group many times over; the report must
    # be the same, field for field
    whole = certify(model, params, target_b)
    monkeypatch.setattr(certificate, "_CHUNK", 7)
    assert certify(model, params, target_b) == whole


def test_certify_memory_flat_in_thresholds():
    # certify holds a piece of at most _CHUNK entries and tables of (m, k)
    # runs, so its traced peak barely moves from T = 20 to T = 40, where the
    # entries grow 7.2-fold (a per-entry memo grew it 3.4- to 4-fold)
    import tracemalloc

    for model, params in (("cosp", P), ("rosp", Q)):
        certify(model, params, 0.2, thresholds=(5, 5))  # first-call allocations untraced
        peaks = []
        for threshold in (20, 40):
            tracemalloc.start()
            try:
                certify(model, params, 0.2, thresholds=(threshold, threshold))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.4 * peaks[0], (model, peaks)


@pytest.mark.parametrize("model", ["cosp", "rosp"])
def test_groups_list_entries_in_increasing_order(model):
    # each piece lists its entries in strictly increasing (m, k, m2), a large
    # parameter (None) sorting last, as CaseBound.sort_key orders them
    for thresholds in [(1, 1), (2, 7), (5, 2), (20, 20)]:
        for size in (7, None):
            for group in entry_groups(model, *thresholds, size=size):
                keys = [tuple(10**9 if p is None else p for p in entry(group, i)[2:])
                        for i in range(certificate._size(group))]
                assert all(a < b for a, b in zip(keys, keys[1:])), group


@pytest.mark.parametrize("model", ["cosp", "rosp"])
def test_first_min_is_the_sort_key_minimum(model):
    # with a tie at the least value injected at two entries of each piece,
    # _first_min picks the entry CaseBound.sort_key puts first; a NaN is
    # refused
    rng = np.random.default_rng(5)
    for group in entry_groups(model, 5, 7, size=23):
        count = certificate._size(group)
        values = rng.uniform(0.2, 0.3, count)
        values[rng.choice(count, min(2, count), replace=False)] = 0.1
        bounds = [CaseBound(f"C{case_id}", v, regime, m, k, m2)
                  for v, (case_id, regime, m, k, m2)
                  in zip(values.tolist(), (entry(group, i) for i in range(count)))]
        assert certificate._first_min(group, values) == min(bounds, key=CaseBound.sort_key)
        values[rng.integers(count)] = np.nan
        with pytest.raises(ValueError, match="gave NaN"):
            certificate._first_min(group, values)
