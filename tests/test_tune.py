import numpy as np
import pytest

from secpred import GridSpec, PolicyParams, THEOREM_COSP_PARAMS as P, THEOREM_ROSP_PARAMS as Q
from secpred import certify, grid_search
from secpred.certificate import MAX_THRESHOLD
from secpred.tune import MAX_GRID_POINTS, _axes

FAST = (6, 6)  # search thresholds for quick tests


def _flat_mesh(model, grid):
    """The cells of the mesh ``tune._axes`` spans, as flat (tau, beta,
    gamma, delta) columns in the search array's order."""
    axes = _axes(model, grid)
    shape = np.broadcast_shapes(*(a.shape for a in axes if a is not None))
    return tuple(None if a is None else np.broadcast_to(a, shape).ravel() for a in axes)


def test_degenerate_grid_returns_theorem_params():
    grid = GridSpec.single(P)
    params, bound = grid_search("cosp", grid, search_thresholds=(20, 20))
    assert (params.tau, params.beta, params.gamma, params.delta) == (0.37, 0.64, 0.27, 0.46)
    assert bound >= 0.262
    # no stale cache: the returned bound is exactly the certified minimum
    report = certify("cosp", params, 0.262)
    assert bound == report.min_value


def test_degenerate_grid_rosp():
    grid = GridSpec.single(Q)
    params, bound = grid_search("rosp", grid, search_thresholds=(20, 20))
    assert (params.tau, params.gamma, params.delta) == (0.33, 0.34, 0.66)
    assert bound >= 0.221


def test_monotone_in_grid_size():
    small = GridSpec(tau=(0.37,), beta=(0.64,), gamma=(0.27,), delta=(0.46,))
    larger = GridSpec(
        tau=(0.30, 0.37), beta=(0.60, 0.64), gamma=(0.20, 0.27), delta=(0.40, 0.46)
    )
    _, b_small = grid_search("cosp", small, thresholds=FAST, search_thresholds=FAST)
    _, b_large = grid_search("cosp", larger, thresholds=FAST, search_thresholds=FAST)
    assert b_large >= b_small - 1e-12


def test_winner_respects_beta_gt_tau():
    grid = GridSpec(tau=(0.3, 0.5, 0.7), beta=(0.4, 0.6), gamma=(0.3,), delta=(0.5,))
    params, _ = grid_search("cosp", grid, thresholds=FAST, search_thresholds=FAST)
    assert params.beta > params.tau


def test_empty_grid_rejected():
    grid = GridSpec(tau=(0.9,), beta=(0.5,), gamma=(0.3,), delta=(0.5,))
    with pytest.raises(ValueError):
        grid_search("cosp", grid)


def test_oversized_inputs_rejected_before_search():
    axis = tuple(0.001 + 0.05 * i for i in range(19))  # a refine grid's axis
    assert len(axis) ** 4 <= MAX_GRID_POINTS
    with pytest.raises(ValueError, match="exceeds the cap"):
        grid_search("cosp", GridSpec.coarse("cosp", step=1e-3))
    with pytest.raises(ValueError, match="grid step must be >= 1e-3"):
        GridSpec.coarse("cosp", step=5e-4)
    with pytest.raises(ValueError, match="exceeds the cap"):
        grid_search("cosp", GridSpec(axis * 2, axis, axis, axis))
    single = GridSpec.single(Q)
    with pytest.raises(ValueError, match="tm exceeds the cap of 200"):
        grid_search("rosp", single, thresholds=(MAX_THRESHOLD + 1, 20))
    with pytest.raises(ValueError, match="tk exceeds the cap of 200"):
        grid_search("rosp", single, search_thresholds=(10, MAX_THRESHOLD + 1))


@pytest.mark.parametrize(
    "model, grid, message",
    [
        ("cosp", GridSpec(tau=(0.3, 0.4), beta=(0.6,), gamma=(0.3, float("nan")), delta=(0.5,)),
         "grid gamma values must lie in"),
        ("rosp", GridSpec(tau=(0.3,), gamma=(1.5,), delta=(0.5,)), "grid gamma values must lie in"),
        ("cosp", GridSpec(tau=(1.2,), beta=(0.6,), gamma=(0.3,), delta=(0.5,)),
         "grid tau values must lie in"),
        ("cosp", GridSpec(tau=(0.3,), beta=(1.0,), gamma=(0.3,), delta=(0.5,)),
         "grid beta values must lie in"),
        ("rosp", GridSpec(tau=(0.3,), gamma=(0.3,), delta=(-float("inf"),)),
         "grid delta values must lie in"),
        ("foo", GridSpec.coarse("rosp", 0.3), "unknown model 'foo'"),
        ("cosp", GridSpec.coarse("rosp", 0.3), "chosen-order search needs beta values"),
        # 1 - beta rounds to 1, so case 6 would divide 0 by 0
        ("cosp", GridSpec(tau=(1e-20,), beta=(2**-54,), gamma=(0.3,), delta=(0.5,)),
         "grid beta values must leave 1 - beta below 1, got 5.55"),
        ("cosp", GridSpec(tau=(1e-20, 0.3), beta=(1e-19, 0.5), gamma=(0.3,), delta=(0.5,)),
         "grid beta values must leave 1 - beta below 1, got 1e-19"),
        # 1 / tau rounds to inf, so ln(beta / tau) would be inf and a cell NaN
        ("rosp", GridSpec(tau=(1e-310,), gamma=(0.5,), delta=(0.5,)),
         "grid tau values must leave 1 / tau finite, got 1e-310"),
        ("cosp", GridSpec(tau=(0.3, 2.0**-1024), beta=(0.5,), gamma=(0.3,), delta=(0.5,)),
         "grid tau values must leave 1 / tau finite, got 5.56"),
    ],
    ids=["nan gamma", "gamma 1.5", "tau 1.2", "beta 1", "delta -inf", "unknown model",
         "cosp without beta", "beta 2**-54", "beta 1e-19 beside a sound pair", "tau 1e-310",
         "tau 2**-1024 beside a sound pair"],
)
def test_bad_grid_values_rejected_before_search(model, grid, message, monkeypatch):
    from secpred import tune

    def no_search(*args):
        raise AssertionError("search ran")

    monkeypatch.setattr(tune, "_search_bound", no_search)
    with pytest.raises(ValueError, match=message):
        grid_search(model, grid, thresholds=FAST, search_thresholds=FAST)


def test_least_beta_with_1_minus_beta_below_1_runs():
    # the next double above 2**-54 is the least beta the grid admits
    beta = float(np.nextafter(2**-54, 1))
    grid = GridSpec(tau=(1e-20,), beta=(beta,), gamma=(0.3,), delta=(0.5,))
    params, bound = grid_search("cosp", grid, thresholds=FAST, search_thresholds=FAST)
    assert (params.tau, params.beta, bound) == (1e-20, beta, 0.0)


def test_theta_set_analytically():
    params, bound = grid_search(
        "cosp", GridSpec.single(P), thresholds=(12, 12), search_thresholds=FAST
    )
    # theta = (1-B)/(1+B) for the search-time fixpoint B implies the
    # no-mistake floor meets the certified bound
    floor = (1 - params.theta) / (1 + params.theta)
    assert floor >= bound - 1e-9


def test_search_fixpoint_matches_scalar_certify():
    # the search walks certify's enumeration on a mesh Point: solving B = f(B)
    # and then certifying at theta = (1-B)/(1+B) must reproduce exactly B as
    # the global minimum
    from secpred.analytic import Point, case_bound
    from secpred.certificate import iter_entries
    from secpred.tune import SEARCH_THRESHOLDS, _search_once

    rng = np.random.default_rng(3)
    inputs = []
    for model in ("cosp", "rosp"):
        for _ in range(3):
            tau = float(rng.uniform(0.2, 0.5))
            gamma = float(rng.uniform(0.1, 0.6))
            delta = float(rng.uniform(0.2, 0.8))
            beta = float(rng.uniform(tau + 0.1, 0.9)) if model == "cosp" else None
            theta = float(rng.uniform(0.3, 0.7))
            inputs.append((model, tau, beta, gamma, delta, theta, (8, 8)))
    # the step-0.05 cosp cell where an iterated fixpoint stopped furthest
    # short (5.3e-13): a case-6 entry with coef = 0.85 binds there
    inputs.append(("cosp", 0.05, 0.15, 0.1, 0.3, 0.5, SEARCH_THRESHOLDS))
    for model, tau, beta, gamma, delta, theta, T in inputs:
        grid = GridSpec(tau=(tau,), gamma=(gamma,), delta=(delta,),
                        beta=(beta,) if beta else None)
        params, b_search, _ = _search_once(model, grid, T)
        report = certify(model, params, target_b=1e-6, thresholds=T)
        assert report.min_value == pytest.approx(b_search, abs=5e-11), (
            model, tau, beta, gamma, delta, b_search, report.min_value,
        )
        # exactness: at that theta the binding entry other than the floor r
        # itself meets B too, so B is the fixpoint and not an iterate below it
        point = Point.of(model, params)
        binding = min(
            case_bound(model, e[0], *e[2:], point, T)
            for e in iter_entries(model, *T)
            if not (e[0] == 6 and e[2] == 0)
        )
        assert binding == pytest.approx(b_search, abs=1e-14), (model, tau, beta, binding)
        # two-sided check: evaluate the enumeration on a one-cell mesh at a
        # fixed no-mistake floor r and compare against the scalar certification
        fixed = PolicyParams(theta=theta, tau=tau, gamma=gamma, delta=delta, beta=beta)
        r = (1 - theta) / (1 + theta)
        cell = [np.array([x]) if x is not None else None for x in (tau, gamma, delta, beta)]
        mesh = Point(*cell, r=r)
        vec_min = min(
            [r]
            + [float(case_bound(model, e[0], *e[2:], mesh, T)[0]) for e in iter_entries(model, *T)]
        )
        scalar_min = certify(model, fixed, target_b=1e-6, thresholds=T).min_value
        assert vec_min == pytest.approx(scalar_min, abs=5e-11), (model, theta)


def test_mesh_pow_over_x_matches_scalar_at_small_tau():
    # tau = 0.001 is the floor of the refined grid.  The mesh maps
    # pow_over_x_integral itself, so its values equal the scalar ones, up to
    # the exponents a search at SEARCH_THRESHOLDS reaches.
    from secpred.analytic import Point, _pox, pow_over_x_integral
    from secpred.tune import SEARCH_THRESHOLDS

    tm, tk = SEARCH_THRESHOLDS
    grid = GridSpec(tau=(0.001, 0.002), beta=(0.003, 0.5), gamma=(0.3,), delta=(0.5,))
    tau, beta, gamma, delta = _flat_mesh("cosp", grid)
    point = Point(tau, gamma, delta, beta)
    spans = {
        "t1": (tau, np.ones_like(tau), 2 * tm + tk + 3),
        "tb": (tau, beta, tm + 1),
        "b1": (beta, np.ones_like(beta), tk + 1),
    }
    for interval, (lo, hi, nmax) in spans.items():
        for n in range(nmax + 1):
            want = [pow_over_x_integral(a, b, n) for a, b in zip(lo.tolist(), hi.tolist())]
            assert _pox(point, interval, n).tolist() == want, (interval, n)


@pytest.mark.parametrize("model", ["cosp", "rosp"])
def test_search_blocks_change_nothing(model, monkeypatch):
    # blocks of three (tau, beta) pairs leave a ragged last block on both
    # step-0.2 meshes (10 and 5 pairs of 25 cells); the array must equal the
    # one-block search bit for bit
    from secpred import tune

    grid = GridSpec.coarse(model, step=0.2)
    tm, tk = tune.SEARCH_THRESHOLDS
    _, _, (whole, axes) = tune._search_once(model, grid, (tm, tk), every=True)
    pairs, per_pair = axes[0].shape[0], axes[2].size * axes[3].size
    assert whole.size == pairs * per_pair <= tune.BLOCK_ELEMENTS // (tm * tk)  # one block
    monkeypatch.setattr(tune, "BLOCK_ELEMENTS", 3 * per_pair * tm * tk)
    assert pairs > 3 and pairs % 3
    _, _, (blocked, _) = tune._search_once(model, grid, (tm, tk), every=True)
    assert np.array_equal(blocked, whole)


_FLOOR_AXIS = (0.3, 0.7)  # gamma and delta of the small-tau grids
_COARSE_COSP = GridSpec.coarse("cosp", step=0.1)
# the refine grid around the step-0.05 cosp winner (tau 0.45, beta 0.75,
# gamma 0.3, delta 0.45), every sixth tau and beta kept so that a flat point
# holding every cell stays small; gamma and delta keep all 19 values
_REFINE_COSP = GridSpec(
    tau=tuple(round(0.45 + i * 0.005, 12) for i in range(-9, 10, 6)),
    beta=tuple(round(0.75 + i * 0.005, 12) for i in range(-9, 10, 6)),
    gamma=tuple(round(0.3 + i * 0.005, 12) for i in range(-9, 10)),
    delta=tuple(round(0.45 + i * 0.005, 12) for i in range(-9, 10)),
)


# (model, grid, search thresholds or None for SEARCH_THRESHOLDS) of the
# whole-array checks below
_SEARCH_GRIDS = [
    ("cosp", _COARSE_COSP, None),
    ("rosp", GridSpec.coarse("rosp", step=0.1), None),
    # tau = 0.001 is the floor of the refined grid, with beta just above it
    ("cosp", GridSpec(tau=(0.001, 0.002), beta=(0.0011, 0.0021, 0.5),
                      gamma=_FLOOR_AXIS, delta=_FLOOR_AXIS), None),
    ("rosp", GridSpec(tau=(0.001, 0.002), gamma=_FLOOR_AXIS, delta=_FLOOR_AXIS), None),
    # one gamma and one delta: the screen's four corners coincide
    ("cosp", GridSpec(_COARSE_COSP.tau, (0.3,), (0.5,), _COARSE_COSP.beta), None),
    ("cosp", _REFINE_COSP, None),
    ("cosp", _COARSE_COSP, (1, 1)),
    ("rosp", GridSpec.coarse("rosp", step=0.1), (1, 1)),
    ("cosp", GridSpec.coarse("cosp", step=0.2), (20, 20)),
    ("rosp", GridSpec.coarse("rosp", step=0.2), (20, 20)),
]
_SEARCH_GRID_IDS = ["cosp-grid0", "rosp-grid1", "cosp-grid2", "rosp-grid3",
                    "cosp-one gamma and delta", "cosp-refine", "cosp-T1", "rosp-T1", "cosp-T20",
                    "rosp-T20"]


@pytest.mark.parametrize("model, grid, thresholds", _SEARCH_GRIDS, ids=_SEARCH_GRID_IDS)
def test_factored_search_equals_flat_mesh(model, grid, thresholds):
    # the search takes each block of the (tau, beta) axis once and broadcasts
    # over gamma and delta; the same fixpoint on one flat point holding every
    # cell must give the same array, bit for bit
    from secpred.analytic import Point, case6_coef, case_bound
    from secpred.certificate import iter_entries
    from secpred.tune import SEARCH_THRESHOLDS, _search_once

    thresholds = thresholds or SEARCH_THRESHOLDS
    tau, beta, gamma, delta = _flat_mesh(model, grid)
    point = Point(tau, gamma, delta, beta)
    flat = np.full(tau.shape, np.inf)
    for case_id, _, m, k, m2 in iter_entries(model, *thresholds):
        if case_id == 6 and m == 0:
            continue
        value = case_bound(model, case_id, m, k, m2, point, thresholds)
        if case_id == 6:
            value = value / (1.0 - case6_coef(model, m, point))
        flat = np.minimum(flat, value)
    _, _, (b, _) = _search_once(model, grid, thresholds, every=True)
    assert np.array_equal(b, flat)


def _pairs(tau, beta):
    """The (tau, beta) pairs of a search point's or the mesh's tau and beta,
    beta None in random order."""
    taus = np.ravel(tau).tolist()
    return list(zip(taus, [None] * len(taus) if beta is None else np.ravel(beta).tolist()))


def _probe_and_screen(tops0, tops, monkeypatch):
    """Record each (tau, beta) pair's bound from the probe in ``tops0`` and
    from the full screen in ``tops``."""
    from secpred import tune

    screen = tune._screen

    def recorded(model, point, thresholds, probe=False):
        keep, top = screen(model, point, thresholds, probe)
        (tops0 if probe else tops).update(zip(_pairs(point.tau, point.beta), top.tolist()))
        return keep, top

    monkeypatch.setattr(tune, "_screen", recorded)


@pytest.mark.parametrize(
    "model, grid, thresholds",
    _SEARCH_GRIDS + [(m, GridSpec.coarse(m, step=0.05), None) for m in ("cosp", "rosp")],
    ids=_SEARCH_GRID_IDS + ["cosp-step 0.05", "rosp-step 0.05"],
)
def test_pruned_search_equals_every_cell(model, grid, thresholds, monkeypatch):
    # without every=True the full mesh runs only on the (tau, beta) pairs
    # whose bounds can reach the greatest cell, and the others hold -inf.
    # The maximum, the cells equal to it (90 on the rosp step-0.05 grid), the
    # winner and every computed cell must be those of the search over every
    # cell, and each pair left out must have the bound that left it out, its
    # screen top or, if it was never screened, its probe top0, more than the
    # slack below the maximum
    from secpred import tune

    thresholds = thresholds or tune.SEARCH_THRESHOLDS
    tops0, tops, ests = {}, {}, {}
    _probe_and_screen(tops0, tops, monkeypatch)
    estimate = tune._estimate

    def recorded(model, point, keep, lead, thresholds):
        ests[_pairs(point.tau, point.beta)[0]] = est = estimate(model, point, keep, lead, thresholds)
        return est

    monkeypatch.setattr(tune, "_estimate", recorded)
    params_all, best_all, (b_all, _) = tune._search_once(model, grid, thresholds, every=True)
    assert (b_all > -np.inf).all() and not tops0
    tops.clear()
    params, best, (b, axes) = tune._search_once(model, grid, thresholds)
    assert best == best_all and params == params_all
    assert np.array_equal(np.nonzero(b == best), np.nonzero(b_all == best))
    computed = (b > -np.inf).reshape(axes[0].shape[0], -1)
    assert (computed.all(axis=1) | ~computed.any(axis=1)).all()  # whole pairs
    assert np.array_equal(b[computed.ravel()], b_all[computed.ravel()])
    pairs = _pairs(*axes[:2])
    assert set(tops0) == set(pairs) and set(tops) <= set(pairs)
    out = [pair for pair, run in zip(pairs, computed[:, 0]) if not run]
    assert all(tops.get(pair, tops0[pair]) + 1e-12 < best for pair in out)
    # est, from the probe's entries alone, is at least its lead's greatest cell
    greatest = dict(zip(pairs, b_all.reshape(len(pairs), -1).max(axis=1).tolist()))
    assert ests and all(est >= greatest[pair] for pair, est in ests.items())


@pytest.mark.parametrize("model, pairs, most", [("cosp", 171, 3), ("rosp", 19, 1)])
def test_full_mesh_runs_on_few_pairs(model, pairs, most, monkeypatch):
    # on the step-0.05 grids the probe sees every (tau, beta) pair, one
    # full corner screen at most 4 of the 171 cosp pairs and 1 of the 19 rosp
    # pairs, and the full gamma x delta mesh at most 3 and 1 of them, in at
    # most 10 form calls (one per kept entry made 68 and 24)
    from secpred import tune

    screens = {"cosp": 4, "rosp": 1}[model]
    grid = GridSpec.coarse(model, step=0.05)
    tops0, tops = {}, {}  # pairs probed, screened
    _probe_and_screen(tops0, tops, monkeypatch)
    walks, calls = [], []  # each screen's probe flag, each mesh form call
    recorded = tune._screen
    monkeypatch.setattr(tune, "_screen", lambda model, point, thresholds, probe=False:
                        walks.append(probe) or recorded(model, point, thresholds, probe))
    full = set()  # pairs evaluated on the mesh

    def counted(form):
        def run(p, m, k, m2, tm, tk):
            if p.gamma.size == len(grid.gamma):
                full.update(_pairs(p.tau, p.beta))
                calls.append(1)
            return form(p, m, k, m2, tm, tk)
        return run

    monkeypatch.setattr(tune, "CASE_FORMS", {key: counted(form)
                                             for key, form in tune.CASE_FORMS.items()})
    tune._search_once(model, grid, tune.SEARCH_THRESHOLDS)
    assert len(tops0) == pairs
    assert set(tops) <= set(tops0) and 1 <= len(tops) <= screens, len(tops)
    assert full <= set(tops) and 1 <= len(full) <= most, len(full)
    assert walks == [True, False] and len(calls) <= 10, (walks, len(calls))


@pytest.mark.parametrize("model, grid, thresholds, above, screens", [
    ("cosp", GridSpec.coarse("cosp", step=0.05), None, np.inf, [1, 2]),
    (*_SEARCH_GRIDS[3], np.inf, [1, 1]),
    (*_SEARCH_GRIDS[6], np.inf, [1, 20]),
    (*_SEARCH_GRIDS[7], np.inf, [1, 8]),
    # est 0.262806 lies between the (0.4, 0.7) pair's top and top0 (0.262656
    # and 0.262947), and above the (0.5, 0.8) pair's top0 (0.261599)
    ("cosp", GridSpec.coarse("cosp", step=0.05), None, 2.1e-3, [2, 1]),
], ids=["cosp-step 0.05", *(_SEARCH_GRID_IDS[i] for i in (3, 6, 7)), "cosp-step 0.05, est + 2.1e-3"])
def test_search_with_estimate_too_high(model, grid, thresholds, above, screens, monkeypatch):
    # est is only an upper bound on the lead's greatest cell.  Above every
    # cell, the first screen holds the lead alone and the pairs whose probe
    # bound reaches the lead's greatest cell go through a second screen; a
    # little above it, a pair screened with the lead may reach the lead's
    # greatest cell but not est, and is meshed after the lead.  Either way
    # the winner, the maximum, the cells tied at it and every computed cell
    # must be those of the search over every cell, and each pair left out
    # must have a bound more than the slack below the maximum
    from secpred import tune

    thresholds = thresholds or tune.SEARCH_THRESHOLDS
    params_all, best_all, (b_all, axes) = tune._search_once(model, grid, thresholds, every=True)
    tops0, tops = {}, {}
    _probe_and_screen(tops0, tops, monkeypatch)
    screened = []  # the pairs of each screen after the probe
    screen = tune._screen

    def recorded(model, point, thresholds, probe=False):
        if not probe:
            screened.append(np.size(point.tau))
        return screen(model, point, thresholds, probe)

    estimate = tune._estimate
    monkeypatch.setattr(tune, "_screen", recorded)
    monkeypatch.setattr(tune, "_estimate", lambda *args: estimate(*args) + above)
    params, best, (b, _) = tune._search_once(model, grid, thresholds)
    assert screened == screens
    assert best == best_all and params == params_all
    assert np.array_equal(np.nonzero(b == best), np.nonzero(b_all == best))
    computed = b > -np.inf
    assert np.array_equal(b[computed], b_all[computed])
    out = [pair for pair, run in zip(_pairs(*axes[:2]), computed.reshape(len(tops0), -1)[:, 0])
           if not run]
    assert all(tops.get(pair, tops0[pair]) + 1e-12 < best for pair in out)


@pytest.mark.parametrize("model", ["cosp", "rosp"])
def test_probe_walks_exact_cells_of_the_search(model):
    # the probe's entries are exact cells of the search's own enumeration,
    # at every threshold, the tests' (1, 1) included
    from secpred.certificate import entry, iter_entries
    from secpred.tune import _probe_groups

    for t in (1, 2, 3, 6, 10, 20):
        probed = [entry(piece, i) for piece in _probe_groups(model, t, t, 7)
                  for i in range(np.size(piece[2]))]
        assert probed and all(e[1] == "exact" for e in probed)
        assert set(probed) <= set(iter_entries(model, t, t)), t


@pytest.mark.parametrize(
    "model, grid",
    [("cosp", _COARSE_COSP), ("rosp", GridSpec.coarse("rosp", step=0.1)), ("cosp", _REFINE_COSP)],
    ids=["cosp-grid0", "rosp-grid1", "cosp-refine"],
)
def test_probe_bound_at_least_screen_bound(model, grid):
    # the probe walks a subset of the screen's entries on the same corners,
    # so its top0 is at least the screen's top at every pair, and the full
    # mesh's cells lie below both up to the slack
    from secpred.analytic import Point
    from secpred.tune import SEARCH_THRESHOLDS, _screen, _search_once

    tau, beta, gam, dlt = _axes(model, grid)
    corners = (np.array([gam.min(), gam.max()])[:, None, None],
               np.array([dlt.min(), dlt.max()])[None, :, None])
    point = Point(tau.T, *corners, None if beta is None else beta.T)
    _, top = _screen(model, point, SEARCH_THRESHOLDS)
    _, top0 = _screen(model, point, SEARCH_THRESHOLDS, probe=True)
    assert top.shape == top0.shape == (tau.shape[0],)
    assert (top0 >= top).all()
    _, _, (b, _) = _search_once(model, grid, SEARCH_THRESHOLDS, every=True)
    assert (b.reshape(top.size, -1).max(axis=1) <= top + 1e-12).all()


@pytest.mark.parametrize("model", ["cosp", "rosp"])
@pytest.mark.parametrize("thresholds", [(10, 10), (20, 20)], ids=["T10", "T20"])
def test_case_forms_affine_in_gamma_and_delta(model, thresholds):
    # the search's screen keeps an entry by its values at the gamma and delta
    # corners alone, which is exact only while every entry, case 6 over
    # 1 - coef included, is affine in gamma and in delta at fixed (tau, beta):
    # each value must equal the bilinear interpolation of its four corners
    from secpred.analytic import Point
    from secpred.certificate import iter_entries
    from secpred.tune import _term

    tau = np.array([0.001, 0.05, 0.3, 0.6, 0.9])[:, None, None]
    beta = np.array([0.0011, 0.15, 0.64, 0.8, 0.95])[:, None, None]
    g = np.linspace(0.0, 1.0, 7)
    gamma, delta = g[None, :, None], g[None, None, :]
    point = Point(tau, gamma, delta, beta if model == "cosp" else None)
    for entry in iter_entries(model, *thresholds):
        case_id, _, m, k, m2 = entry
        if case_id == 6 and m == 0:
            continue  # r itself, which the search never evaluates
        v = np.broadcast_to(_term(model, point, entry, thresholds), (5, 7, 7))
        corners = ((1 - gamma) * (1 - delta) * v[:, :1, :1] + (1 - gamma) * delta * v[:, :1, -1:]
                   + gamma * (1 - delta) * v[:, -1:, :1] + gamma * delta * v[:, -1:, -1:])
        assert np.abs(v - corners).max() <= 1e-13, (model, case_id, m, k, m2)


@pytest.mark.parametrize("model,digest", [
    ("cosp", "ea4717d2e15dbad6774429052df78285bb7c41e4b738a12facea7dea1c8b9b7a"),
    ("rosp", "0e684dad1b498e28e4dcea90f018ab877c2240de519b3988c67b5217ad8127b7"),
])
def test_search_arrays_pinned(model, digest):
    # the step-0.05 search array at the search thresholds, bit for bit
    import hashlib

    from secpred.tune import SEARCH_THRESHOLDS, _search_once

    grid = GridSpec.coarse(model, step=0.05)
    _, _, (b, _) = _search_once(model, grid, SEARCH_THRESHOLDS, every=True)
    assert hashlib.sha256(b.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("model", ["cosp", "rosp"])
def test_chunks_change_nothing(model, monkeypatch):
    # a screen asking for pieces of one entry or of 7 entries gives the
    # search array of the pieces that fill its buffer, bit for bit
    from secpred import tune
    from secpred.certificate import entry_groups

    grid = GridSpec.coarse(model, step=0.1)
    _, _, (whole, _) = tune._search_once(model, grid, tune.SEARCH_THRESHOLDS, every=True)
    sizes = []

    def pieces_of(most):
        def groups(model, tm, tk, size):
            sizes.append(size)
            return entry_groups(model, tm, tk, size=min(size, most))
        return groups

    for most in (1, 7):
        monkeypatch.setattr(tune, "entry_groups", pieces_of(most))
        _, _, (pieces, _) = tune._search_once(model, grid, tune.SEARCH_THRESHOLDS, every=True)
        assert np.array_equal(pieces, whole), most
    assert min(sizes) > 7  # tune asks for more, so the default pieces differ


def test_screen_drops_most_entries(monkeypatch):
    # on the step-0.05 cosp grid fewer than a tenth of the entries can bind
    # anywhere, and only those reach the full gamma x delta mesh
    from secpred import tune

    grid = GridSpec.coarse("cosp", step=0.05)
    full, screened = set(), set()  # entries evaluated on the mesh, on the corners

    def counted(form, case_id):
        # a call evaluates one entry per element of its parameter arrays
        def run(p, m, k, m2, tm, tk):
            size = max((np.size(a) for a in (m, k, m2) if a is not None), default=1)
            columns = [np.ravel(a).tolist() if np.ndim(a) else [a] * size for a in (m, k, m2)]
            entries = {(case_id, *entry) for entry in zip(*columns)}
            (full if p.gamma.size == len(grid.gamma) else screened).update(entries)
            return form(p, m, k, m2, tm, tk)
        return run

    forms = {key: counted(form, key[1]) for key, form in tune.CASE_FORMS.items()}
    monkeypatch.setattr(tune, "CASE_FORMS", forms)
    kept = []
    screen = tune._screen
    monkeypatch.setattr(tune, "_screen", lambda *args: kept.append(screen(*args)) or kept[-1])
    tune._search_once("cosp", grid, tune.SEARCH_THRESHOLDS)
    assert full <= screened and len(screened) > 1000
    # every entry returned, a row of its piece's mask, can bind at some pair
    assert kept and all(where.ndim == 1 and where.any()
                        for keep, _ in kept for _, rows in keep for where in rows)
    assert len(full) < 0.1 * len(screened), (len(full), len(screened))


def test_search_memory_flat_in_grid_size(monkeypatch):
    # with screen blocks of 5 pairs, fewer than either grid's 10 or 19, the
    # traced peak of a rosp search less its search array (8 bytes a cell)
    # stays level from the step-0.1 grid (1000 cells) to the step-0.05 grid
    # (6859); a full pass on a point holding the whole mesh grows with it.
    # The screen's chunks are cut to 1024 values, as at the default 16384
    # its 128 KiB buffer outweighs such a full pass on the smaller grid
    import tracemalloc

    from secpred import tune

    monkeypatch.setattr(tune, "BLOCK_ELEMENTS", 4 * 5 * FAST[0] * FAST[1])
    monkeypatch.setattr(tune, "_CHUNK", 1 << 10)
    grids = [GridSpec.coarse("rosp", step=step) for step in (0.1, 0.05)]
    tune._search_once("rosp", grids[0], FAST)  # first-call allocations untraced
    peaks = []
    for grid in grids:
        tracemalloc.start()
        try:
            tune._search_once("rosp", grid, FAST)
            cells = len(grid.tau) * len(grid.gamma) * len(grid.delta)
            peaks.append(tracemalloc.get_traced_memory()[1] - 8 * cells)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0], peaks


def test_refine_improves_or_holds():
    base = GridSpec(tau=(0.33,), gamma=(0.34,), delta=(0.66,))
    params0, b0 = grid_search("rosp", base, thresholds=FAST, search_thresholds=FAST)
    params1, b1 = grid_search(
        "rosp", base, thresholds=FAST, search_thresholds=FAST, refine=True
    )
    # the refined grid contains the original cell, so the bound cannot drop
    assert b1 >= b0 - 1e-12
    assert abs(params1.tau - 0.33) <= 0.05


def test_refine_step_from_grid_spacing():
    # the refined axis steps by a tenth of the grid's spacing around the
    # coarse winner: 0.01 on the step-0.1 grid, and 0.005, from the 0.05
    # fallback, where no axis has two distinct values (a repeated value is
    # no spacing)
    for grid, step in ((GridSpec.coarse("rosp", step=0.1), 0.1),
                       (GridSpec(tau=(0.3, 0.3), gamma=(0.3,), delta=(0.5,)), 0.05)):
        coarse, _ = grid_search("rosp", grid, thresholds=FAST, search_thresholds=FAST)
        _, _, rows = grid_search(
            "rosp", grid, thresholds=FAST, search_thresholds=FAST, refine=True, emit_all=True
        )
        want = [round(coarse.tau + i * step / 10, 12) for i in range(-9, 10)]
        taus = sorted({p.tau for p, _ in rows})
        assert taus == pytest.approx([t for t in want if 0.001 <= t <= 0.999], abs=1e-12), grid


def test_emit_all():
    grid = GridSpec(tau=(0.37,), beta=(0.64,), gamma=(0.25, 0.27), delta=(0.46,))
    params, bound, rows = grid_search(
        "cosp", grid, thresholds=FAST, search_thresholds=FAST, emit_all=True
    )
    assert len(rows) == 2
    assert all(isinstance(p, PolicyParams) for p, _ in rows)
    assert max(b for _, b in rows) >= bound - 0.05


def test_coarse_grid_reproduces_paper_scale():
    # the published optimum is an existence witness: a 0.05-step grid must
    # land within 0.02 of its constant
    params, bound = grid_search("cosp", GridSpec.coarse("cosp", 0.05), thresholds=(20, 20))
    assert bound >= 0.25
    assert abs(bound - 0.262) <= 0.02
    params_r, bound_r = grid_search("rosp", GridSpec.coarse("rosp", 0.05), thresholds=(20, 20))
    assert bound_r >= 0.21
