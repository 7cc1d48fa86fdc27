"""Grid search over policy parameters maximizing the certified bound.

The search space is (tau, beta, gamma, delta) for chosen order and
(tau, gamma, delta) for random order; theta never needs to be searched.
The only places theta enters the certified minimum are the no-mistake
entries, through r = (1-theta)/(1+theta), and r only helps.  For each grid
cell we want the fixpoint B = f(B), where f substitutes r := B into the
enumeration and takes the minimum over all entries; theta is then set to
(1-B)/(1+B), the largest threshold whose no-mistake floor still meets B.

Every other entry is free of r, and a case-6 entry is ``base + coef * r``.
At m = 0 it is r itself and holds by construction; for m >= 1, coef < 1, so
B <= base + coef * B is B <= base / (1 - coef).  The fixpoint is therefore
the minimum of these bounds and of the r-free entries, in closed form.

The search walks certify's enumeration (``entry_groups``) at r = 0 on an
``analytic.Point`` whose fields are broadcast mesh axes, so it shares every
case formula with certification; the reported winner is re-certified with
the exact enumeration at full thresholds.  tau and beta run along the first
axis, over the (tau, beta) pairs of the grid, and gamma and delta along the
second and third, so every power, log and integral of a case form, which
depends on (tau, beta) alone, is taken once per pair and only the terms
with gamma or delta span the full mesh.  The pairs are walked in blocks,
each on a fresh Point, so the points' columns stay a fixed size.

Most entries never bind, so a screen runs before the full mesh, which sees
only the entries that can.  With (tau, beta) fixed, every case form is affine in
gamma and in delta (no gamma * delta term), and the case-6 divisor 1 - coef
reads (tau, beta) alone, so an entry's extremes over a pair's cells lie at
the corners of its gamma x delta grid.  The screen walks certify's pieces of
entries on those corners, each sized to about ``_CHUNK`` values per call,
with m, k and m2 as arrays over the piece's entries.  The least over
entries of an entry's greatest corner value bounds the fixpoint at every
cell of the pair; an entry whose least corner value exceeds it by more than
a rounding slack is above the fixpoint at every cell there, tested as its
piece lands and against the final bound.  The screen hands each
entry it keeps to the full pass as ints, a plain index into the point's
columns, with a mask over its block's pairs; on each sub-block the full pass
evaluates, one at a time, the entries kept at some pair of it, on a point
that shares the screen's pow-over-x rows.  ``np.minimum`` then picks the
same values, so each cell is bit-identical to the one over every entry.
On the step-0.05 grid the screens keep 35 of the 1 495 cosp entries and 24
of the 1 506 rosp entries, and the full mesh, run only on the pairs below,
evaluates 33 and 22 of them.

Most pairs cannot hold the greatest cell either, so the search is a branch
and bound over the pairs.  The same corners bound the fixpoint at every cell
of a pair by ``top``, the least over entries of an entry's greatest corner
value, up to a few ulps.  A probe first walks only the exact cells with m
and k up to 3 (51 cosp and 54 rosp entries) on the corners of every pair.
An exact form ignores the thresholds, so these are entries of the search's
own enumeration, and the probe's bound ``top0`` is at least ``top``.  The
pair with the greatest ``top0`` is screened and meshed first, which gives
``best``, an exact search value.  Then only the pairs whose ``top0`` is not
more than ``_SCREEN_SLACK`` below ``best`` are screened, and the full mesh
runs only on those whose ``top`` is not either; the cells of the others hold
-inf.  So no pair holding a cell equal to the maximum is left out, and the
maximum, the cells tied at it and the winner are those of the search over
every cell.  On the step-0.05 grid the screen sees 3 of the 171 cosp pairs
and 1 of the 19 rosp pairs, and the full mesh runs on the same pairs.
``grid_search(..., emit_all=True)`` lists every cell, so its last search
screens every pair and costs the full mesh.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import CASE_FORMS, DEFAULT_THRESHOLDS, Point, case6_coef, check_thresholds
from .certificate import _size, certify, entry, entry_groups
from .core import BLOCK_ELEMENTS, COSP, PolicyParams, check_model

__all__ = ["GridSpec", "grid_search", "SEARCH_THRESHOLDS", "MAX_GRID_POINTS"]

SEARCH_THRESHOLDS = (10, 10)
# A grid whose axis lengths multiply past this is refused before the mesh is
# built.  It admits the refine grid, 19 points per axis (130 321).
MAX_GRID_POINTS = 250_000


@dataclass(frozen=True)
class GridSpec:
    tau: tuple[float, ...]
    gamma: tuple[float, ...]
    delta: tuple[float, ...]
    beta: tuple[float, ...] | None = None  # chosen order only

    @classmethod
    def coarse(cls, model: str, step: float = 0.05):
        """0.05, 0.05 + step, ... up to 0.95 on every axis."""
        if not math.isfinite(step):
            raise ValueError(f"grid step must be finite, got {step}")
        if step < 1e-3:
            raise ValueError("grid step must be >= 1e-3")
        pts = tuple(round(0.05 + i * step, 10) for i in range(int((0.95 - 0.05) / step + 1.5)))
        pts = tuple(p for p in pts if p <= 0.95 + 1e-12)
        beta = pts if model == COSP else None
        return cls(tau=pts, gamma=pts, delta=pts, beta=beta)

    @classmethod
    def single(cls, params: PolicyParams):
        beta = (params.beta,) if params.beta is not None else None
        return cls(tau=(params.tau,), gamma=(params.gamma,), delta=(params.delta,), beta=beta)


def _axes(model: str, grid: GridSpec):
    """The grid as broadcastable (tau, beta, gamma, delta) axes.

    tau and beta are (P, 1, 1) over the P distinct (tau, beta) pairs with
    beta > tau, in nested grid order (random order: P is the tau axis and
    beta is None); gamma is (1, G, 1) and delta (1, 1, D).  The (P, G, D)
    mesh they span, flattened, is the cells in nested axis order.  A grid
    over ``MAX_GRID_POINTS``, a NaN, a tau or beta outside (0, 1), a beta
    with 1 - beta == 1 (beta <= 2**-54) and a gamma or delta outside [0, 1]
    are refused before a mesh is built, as is a model that ``check_model``
    refuses.
    """
    cosp = check_model(model) == COSP
    if cosp and grid.beta is None:
        raise ValueError("chosen-order search needs beta values")
    tau, beta, gamma, delta = (
        None if a is None else np.asarray(a, dtype=float)
        for a in (grid.tau, grid.beta if cosp else None, grid.gamma, grid.delta)
    )
    size = math.prod(a.size for a in (tau, beta, gamma, delta) if a is not None)
    if size > MAX_GRID_POINTS:
        raise ValueError(f"grid of {size} points exceeds the cap of {MAX_GRID_POINTS}")
    for name, a, closed in (("tau", tau, False), ("beta", beta, False),
                            ("gamma", gamma, True), ("delta", delta, True)):
        if a is None:
            continue
        inside = (0.0 <= a) & (a <= 1.0) if closed else (0.0 < a) & (a < 1.0)
        if not inside.all():  # NaN compares false, so it is refused too
            span = "[0, 1]" if closed else "(0, 1)"
            raise ValueError(f"grid {name} values must lie in {span}, got {a[~inside][0]}")
    if cosp:
        # 1 - beta rounds to 1 for beta <= 2**-54, and case 6's divisor
        # 1 - (1-beta)^m to 0
        flat = 1.0 - beta == 1.0
        if flat.any():
            raise ValueError(f"grid beta values must leave 1 - beta below 1, got {beta[flat][0]}")
        tau, beta = (a.ravel() for a in np.meshgrid(tau, beta, indexing="ij"))
        keep = beta > tau
        tau, beta = tau[keep], beta[keep, None, None]
    tau, gamma, delta = tau[:, None, None], gamma[None, :, None], delta[None, None, :]
    if not tau.size * gamma.size * delta.size:
        raise ValueError("empty grid (no cells with beta > tau)" if cosp else "empty grid")
    return tau, beta, gamma, delta


# An entry is screened out at a pair when its least corner value exceeds the
# least greatest corner value over all entries by more than this.  Each term
# is affine in gamma and in delta, so its extremes over the pair's cells are
# at the corners up to rounding, a few ulps of values in [0, 1] (2.2e-16
# measured); the slack covers that many times over, so a dropped entry is
# above the fixpoint at every cell and the minimum is unchanged, bit for bit.
# A pair is left out of the full mesh when its bound ``top`` lies more than
# this below the greatest cell found, as its cells lie below ``top`` up to
# the same rounding.
_SCREEN_SLACK = 1e-12


def _term(model, point, entry, thresholds):
    """One entry's bound on the fixpoint at ``point`` (r = 0): the case form,
    or for case 6 the form over 1 - coef.  ``entry`` is as ``certificate.entry``
    gives it, or a piece of entries; its regime is not read."""
    case_id, _, m, k, m2 = entry
    value = CASE_FORMS[model, case_id](point, m, k, m2, *thresholds)
    if case_id == 6:
        value = value / (1.0 - case6_coef(model, m, point))
    return value


def _block_pairs(cells, thresholds):
    """How many (tau, beta) pairs a block holds, each pair spanning ``cells``
    cells.  A block fills about BLOCK_ELEMENTS // (tm * tk) cells, and holds
    at least one pair: the screen keeps a value per pair of the block for
    each entry it keeps, and the entries grow with tm * tk."""
    tm, tk = thresholds
    return max(1, BLOCK_ELEMENTS // (tm * tk) // cells)


# The screen evaluates pieces of entries that fill about this many values of
# its point.
_CHUNK = 1 << 14


# The probe walks the exact cells with m and k up to this
_PROBE = 3


def _probe_groups(model, tm, tk, size):
    """The pieces the probe walks: the exact cells of ``entry_groups`` at
    (min(_PROBE, tm), min(_PROBE, tk)), in pieces of at most ``size``
    entries.  An exact form ignores the thresholds, so these are entries of
    the search's own enumeration at (tm, tk), with the same values; no
    large-regime group is read, as a floor at a low threshold lies below the
    entries it stands for at a higher one."""
    tm, tk = min(_PROBE, tm), min(_PROBE, tk)
    return itertools.takewhile(lambda g: g[1] == "exact", entry_groups(model, tm, tk, size=size))


def _screen(model, point, thresholds, probe=False):
    """The entries that can bind at some (tau, beta) pair of ``point``, and
    ``top``, as (keep, top).  ``keep`` lists (entry, where): the entry's ints
    as ``certificate.entry`` gives them, and a bool array over the pairs that
    says where it can.

    The point holds the corners of each pair's gamma x delta grid along its
    leading axes and the pairs along its last.  Every entry of
    ``entry_groups`` is evaluated there, in pieces that fill ``values``
    (arrays shaped (count, 1, 1, 1), or one entry's ints), less case 6 at
    m = 0, which is identically r and met by construction.  ``top`` is the
    least over entries of an entry's greatest corner value, which bounds
    the fixpoint at every cell of the pair; an entry whose least corner
    value exceeds it (plus ``_SCREEN_SLACK``) cannot be the minimum anywhere
    there.  Entries are tested as their piece lands and, as ``top`` only
    falls, the survivors again against the final ``top``.  A NaN keeps the
    entry.  With ``probe`` only ``_probe_groups`` is walked, a subset of the
    entries, so its ``top`` is at least the full one at every pair.
    """
    shape = np.broadcast_shapes(point.gamma.shape, point.delta.shape, point.tau.shape)
    corners, pairs = shape[0] * shape[1], shape[2]
    top = np.full(pairs, np.inf)
    values = np.empty((max(1, _CHUNK // (corners * pairs)), *shape))
    found = []
    walk = _probe_groups if probe else entry_groups
    for piece in walk(model, *thresholds, size=len(values)):
        case_id, regime, m, k, m2 = piece
        if case_id == 6 and isinstance(m, int) and m == 0:
            continue
        count = _size(piece)
        form = entry(piece, 0) if count == 1 else (
            case_id, regime, *(None if a is None else a[:, None, None, None] for a in (m, k, m2)))
        at = values[:count]
        at[...] = _term(model, point, form, thresholds)
        at = at.reshape(count, corners, pairs)
        np.minimum(top, at.max(axis=1).min(axis=0), out=top)
        found += _alive([(piece, np.arange(count), at.min(axis=1))], top)
    keep = [(entry(piece, i), ~(row > top + _SCREEN_SLACK))
            for piece, index, least in _alive(found, top) for i, row in zip(index, least)]
    return keep, top


def _alive(found, top):
    """The records (piece, index, least) of ``found`` cut to the entries
    whose least corner value ``least`` is within ``_SCREEN_SLACK`` of ``top``
    at some pair.  A NaN keeps the entry."""
    kept = []
    for piece, index, least in found:
        rows = (~(least > top + _SCREEN_SLACK)).any(axis=1)
        if rows.any():
            kept.append((piece, index[rows], least[rows]))
    return kept


def _search_bound(model, axes, thresholds, every=False):
    """The fixpoint B = f(B) (r = 0) at the cells of the mesh that can hold
    its maximum, and -inf at the rest, flat in the order of the mesh that
    ``_axes`` spans; with ``every``, at every cell, which costs the full
    mesh.

    The pairs go through in blocks.  With ``every``, ``_screen`` runs on all
    of a block's gamma and delta corners at once, and the full mesh on every
    pair.  Otherwise the probe (``_screen`` over ``_probe_groups``) runs on
    the block's corners first and gives each pair ``top0``, at least its
    ``top``.  The pair with the greatest ``top0`` is screened and meshed
    first, alone; then the block's other pairs whose ``top0`` is not
    ``_SCREEN_SLACK`` below ``best``, the greatest cell so far, are
    screened, and the full mesh runs on those whose ``top`` is not either,
    in sub-blocks.  ``best`` carries across blocks, and a NaN in ``top0``,
    ``top`` or ``best`` keeps a pair.  Each sub-block sees only the entries
    the screen keeps at some pair of it, and the points of a block share
    their pow-over-x rows.  Every cell computed is the same as with every
    entry, bit for bit.
    """
    tau, beta, gam, dlt = axes
    b = np.full((tau.shape[0], gam.size, dlt.size), -np.inf)
    # corners along the leading axes and pairs along the last; a grid with
    # one gamma or one delta value repeats it
    corners = (np.array([gam.min(), gam.max()])[:, None, None],
               np.array([dlt.min(), dlt.max()])[None, :, None])
    outer_size, inner_size = (_block_pairs(n, thresholds) for n in (4, gam.size * dlt.size))
    best = -np.inf

    def screen(pairs, probe=False):
        point = Point(tau[pairs].T, *corners, None if beta is None else beta[pairs].T, rows=rows)
        return _screen(model, point, thresholds, probe)

    def mesh(local):
        # screen the pairs local, then run the full mesh on those that can
        # still hold the greatest cell (every pair with ``every``)
        nonlocal best
        keep, top = screen(local)
        live = np.arange(local.size) if every else np.flatnonzero(~(top + _SCREEN_SLACK < best))
        for i in range(0, live.size, inner_size):
            sub = live[i:i + inner_size]
            block = local[sub]
            point = Point(tau[block], gam, dlt, None if beta is None else beta[block], rows=rows)
            out = np.full((sub.size, gam.size, dlt.size), np.inf)
            for entry, where in keep:
                if where[sub].any():
                    np.minimum(out, _term(model, point, entry, thresholds), out=out)
            b[block] = out
            best = np.maximum(best, out.max())

    for lo in range(0, len(b), outer_size):
        pairs = np.arange(lo, min(lo + outer_size, len(b)))
        rows = {}  # the pow-over-x rows that screen's and mesh's points share
        if every:
            mesh(pairs)
            continue
        _, top0 = screen(pairs, probe=True)
        lead = int(np.argmax(top0))
        for local in pairs[lead:lead + 1], np.delete(pairs, lead):
            local = local[~(top0[local - lo] + _SCREEN_SLACK < best)]  # best includes the lead here
            if local.size:
                mesh(local)
    return b.ravel()


def _cell(axes, i):
    """(tau, beta, gamma, delta) at flat cell i of the mesh; beta None for
    random order."""
    tau, beta, gam, dlt = axes
    p, gd = divmod(int(i), gam.size * dlt.size)
    g, d = divmod(gd, dlt.size)
    return (
        float(tau.flat[p]),
        None if beta is None else float(beta.flat[p]),
        float(gam.flat[g]),
        float(dlt.flat[d]),
    )


def _cell_params(b, axes, i) -> PolicyParams:
    """The policy at cell i, with theta = (1-B)/(1+B) from its fixpoint B."""
    tau, beta, gam, dlt = _cell(axes, i)
    bi = float(b[i])
    return PolicyParams(theta=(1.0 - bi) / (1.0 + bi), tau=tau, gamma=gam, delta=dlt, beta=beta)


def _search_once(model, grid, thresholds, every=False):
    axes = _axes(model, grid)
    b = _search_bound(model, axes, thresholds, every)
    best = float(np.max(b))
    # ties go to the least (tau, beta, gamma, delta); a None beta compares equal
    pick = min(np.nonzero(b == best)[0], key=lambda i: _cell(axes, i))
    return _cell_params(b, axes, pick), best, (b, axes)


def _refined_grid(params: PolicyParams, step: float):
    def around(x):
        fine = step / 10.0
        pts = [round(x + i * fine, 12) for i in range(-9, 10)]
        return tuple(p for p in pts if 0.001 <= p <= 0.999)

    return GridSpec(
        tau=around(params.tau),
        gamma=around(params.gamma),
        delta=around(params.delta),
        beta=around(params.beta) if params.beta is not None else None,
    )


def grid_search(
    model: str,
    grid: GridSpec,
    thresholds: tuple[int, int] = DEFAULT_THRESHOLDS,
    refine: bool = False,
    search_thresholds: tuple[int, int] = SEARCH_THRESHOLDS,
    emit_all: bool = False,
):
    """Maximize the certified worst-case bound over the grid.

    Returns ``(params, certified_bound)`` where the bound is recomputed by
    the exact certification at full ``thresholds`` for the winner (and so is
    never a stale search-time value).  With ``emit_all`` a third element
    lists ``(params, search_bound)`` for every cell of the last search:
    with ``refine``, the refine grid's cells only, not the coarse grid's.
    Without it the search computes only the (tau, beta) pairs whose probe
    and screen bounds can reach the greatest cell; ``emit_all`` costs the
    full mesh of the search whose cells it lists, and changes neither the
    winner nor the bound.

    The winner's theta comes from the fixpoint at ``search_thresholds``, so
    at larger ``thresholds`` its certified bound can come out lower than the
    search bound: ``grid_search("rosp", GridSpec.single(Q))`` certifies
    0.218400 at the default search thresholds (10, 10) but 0.221051 with
    ``search_thresholds=(20, 20)``, Q being the theorem's rosp parameters.
    """
    check_thresholds(thresholds)
    check_thresholds(search_thresholds)
    params, search_b, cells = _search_once(
        model, grid, search_thresholds, emit_all and not refine
    )
    if refine:
        # the gap between an axis's first two distinct values, sorted
        axes = (sorted(set(v)) for v in (grid.tau, grid.gamma, grid.delta))
        step = min((v[1] - v[0] for v in axes if len(v) > 1), default=0.05)
        params, search_b, cells = _search_once(
            model, _refined_grid(params, step), search_thresholds, emit_all
        )

    report = certify(model, params, target_b=max(search_b - 0.05, 1e-6), thresholds=thresholds)
    certified = report.min_value
    if emit_all:
        b, axes = cells
        return params, certified, [(_cell_params(b, axes, i), float(b[i])) for i in range(len(b))]
    return params, certified
