"""Execution of the prediction-aware hiring policy over a schedule.

The policy starts in prediction mode, planning to hire the top-predicted
candidate on arrival.  The first candidate whose value deviates from its
prediction by more than theta flips the run into secretary mode: skip
everything up to time tau, then consider each candidate that beats all
earlier arrivals.  The top-predicted candidate is only hired
probabilistically in secretary mode (gamma if it triggered the switch,
delta otherwise); anyone else is hired outright.

``run_trial`` replays one schedule step by step and is the reference.
Arrival times are independent uniforms, so two equal times have
probability zero; they occur only because a time is a 53-bit float, and
``run_trial`` takes arrivals at one time as simultaneous: a mistake among
them switches the mode before any of them is considered, and only the
greatest value among them can be hired.  So the outcome does not depend
on how the candidates are labelled.

``run_trials_batch`` is a vectorized engine that reproduces ``run_trial``
bit for bit across many trials (same per-trial streams, same draws, tied
rows included) and is what the simulation module uses.  It needs no
arrival-order sort: secretary mode hires nobody before max(tau, t_switch),
so its first hire is the earliest arrival after that point whose value
beats every value that arrived before it, the greatest of them on a tie,
and a gated-out top prediction passes to the earliest later arrival that
beats it.  The engine holds the candidates as columns in decreasing
value, so the best value that arrived before the window is the first
column j0 that did, and the candidates that beat it are the columns ahead
of it.

So a row's result depends only on the columns it reads: a short column
prefix that holds j0, the mistakes and the top prediction.  Any other
column is no mistake and not the top prediction, and it ranks below j0,
which arrived before the window: it is never hired and changes nothing.
The engine draws only those columns, on widening prefixes
(``_PREFIXES``): every row of a block on the first 4 columns, the rows
whose j0 lies beyond them on the first 16, and the few left after that on
the whole row.

A block's times are stored column-major, one array row per column, so
finding j0, the switch and the earliest candidate are reductions over
contiguous rows of trials rather than over the short second axis of each
trial's row.  Rows run in blocks of about ``ROW_ELEMENTS`` draws, one
after another into the same two buffers, so memory does not grow with n or
with the number of trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .core import COSP, Instance, PolicyParams, Schedule, check_integer, check_model, check_seed
from .rng import TrialStream, trial_seeds_vector, uniforms_at

__all__ = [
    "TrialOutcome",
    "make_cosp_schedule",
    "make_rosp_schedule",
    "run_trial",
    "run_trials_batch",
    "BatchResult",
]

# Draws per block: a block of ROW_ELEMENTS // len(cols) rows draws its
# columns cols into two uint64 buffers of max(ROW_ELEMENTS, n) draws, 2 MiB
# each below n = 2^18.  Fewer, longer passes pay numpy's per-call cost less
# often.
ROW_ELEMENTS = 1 << 18
# Widths of the column prefixes a row's hire is looked for on, narrowest
# first; a row none of them settles is read whole.
_PREFIXES = (4, 16)

PREDICTION = "prediction"
SECRETARY = "secretary"


@dataclass(frozen=True)
class TrialOutcome:
    hired_index: int | None
    hired_value: float
    ratio: float
    switch_time: float | None
    mode_at_end: str


def _draw_times(instance: Instance, stream: TrialStream, fixed: tuple[int, float] | None):
    """One uniform per candidate in index order; candidate ``fixed[0]``, if
    given, arrives at ``fixed[1]`` and draws nothing.  Equal times are kept."""
    return [
        fixed[1] if fixed is not None and i == fixed[0] else stream.uniform()
        for i in range(instance.n)
    ]


def make_cosp_schedule(instance: Instance, beta: float, stream: TrialStream) -> Schedule:
    """Chosen-order schedule: the top prediction arrives exactly at beta,
    everyone else independently uniform on [0, 1].

    Draws one uniform per other candidate, in index order.  A drawn time
    equal to beta or to another is kept, and ``run_trial`` takes the tied
    arrivals as simultaneous.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta={beta} outside (0, 1)")
    times = _draw_times(instance, stream, (instance.top_predicted_index, beta))
    return Schedule(tuple(times))


def make_rosp_schedule(instance: Instance, stream: TrialStream) -> Schedule:
    """Random-order schedule: all arrivals independently uniform on [0, 1].

    Draws one uniform per candidate, in index order; equal times are kept,
    and ``run_trial`` takes the tied arrivals as simultaneous.
    """
    times = _draw_times(instance, stream, None)
    return Schedule(tuple(times))


def run_trial(
    instance: Instance,
    schedule: Schedule,
    params: PolicyParams,
    stream: TrialStream,
) -> TrialOutcome:
    """Replay the policy once over the given schedule.

    Candidates arrive in order of their times, and the arrivals at one
    time as a group.  In prediction mode a mistake in the group switches
    the mode at that time, before anyone in it is considered; a group with
    no mistake that holds the top prediction hires it.  In secretary mode,
    after tau, only the group's greatest value (the lowest index among
    equal ones) can be hired, and only if it beats every earlier value.  A
    top prediction there is gated by gamma at the switch time and by delta
    later; a rejection ends the group, as nobody else in it beats the top
    prediction.  Each probabilistic hire decision consumes exactly one
    uniform from the stream.
    """
    times = schedule.arrival_times
    if len(times) != instance.n:
        raise ValueError(f"schedule length {len(times)} != instance size {instance.n}")

    theta, tau = params.theta, params.tau
    gamma, delta = params.gamma, params.delta
    vs, devs = instance.values, instance.deviations
    ihat = instance.top_predicted_index
    vstar = instance.top_true_value

    # by time, and within a time by decreasing value; the sort is stable,
    # so equal values keep index order
    order = sorted(range(instance.n), key=lambda i: (times[i], -vs[i]))
    mode = PREDICTION
    switch_time: float | None = None
    best_seen = -float("inf")
    hired: int | None = None

    for t, group in groupby(order, key=times.__getitem__):
        group = list(group)
        if mode == PREDICTION:
            if any(devs[i] > theta for i in group):
                mode = SECRETARY
                switch_time = t
            elif ihat in group:
                hired = ihat
                break
        top = group[0]
        if mode == SECRETARY and t > tau and vs[top] > best_seen:
            if top != ihat or stream.uniform() < (gamma if t == switch_time else delta):
                hired = top
                break
        best_seen = max(best_seen, vs[top])

    hired_value = vs[hired] if hired is not None else 0.0
    return TrialOutcome(
        hired_index=hired,
        hired_value=hired_value,
        ratio=hired_value / vstar,
        switch_time=switch_time,
        mode_at_end=mode,
    )


# ---------------------------------------------------------------------------
# vectorized batch engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchResult:
    hired: np.ndarray        # candidate index or -1
    ratios: np.ndarray
    switched: np.ndarray     # bool: left prediction mode


def _view(buf, shape, dtype):
    """The first elements of buffer ``buf`` as an array of this shape and dtype."""
    return buf.reshape(-1).view(dtype)[: math.prod(shape)].reshape(shape)


@dataclass(frozen=True)
class _Draws:
    """Where the arrival times of a block of rows come from, and go to.

    Row r of the block reads column c from draw ``col_draw[c]`` of the
    stream seeded ``seeds[r]``, and in cosp column ``pin`` is beta.  Times
    are drawn column-major, one array row per column, into the uint64
    buffer ``out`` (as float64) through the buffer ``scratch``, so each
    draw overwrites the times the last one returned.
    """

    seeds: np.ndarray
    col_draw: np.ndarray
    pin: int
    beta: float | None
    out: np.ndarray
    scratch: np.ndarray

    def times(self, rows, cols):
        """Arrival times of columns ``cols`` in rows ``rows``, as a
        (columns, rows) array."""
        seeds = self.seeds[rows]
        shape = (len(cols), len(seeds))
        t = uniforms_at(
            seeds[None, :],
            self.col_draw[cols][:, None],
            _view(self.out, shape, np.float64),
            _view(self.scratch, shape, np.uint64),
        )
        if self.beta is not None:
            t[cols == self.pin] = self.beta
        return t

    def groups(self, rows, width):
        """``rows`` in groups whose times on ``width`` columns fit a draw."""
        step = self.out.size // width
        return (rows[lo:lo + step] for lo in range(0, len(rows), step))


def _first(mask):
    """The first array row where each column of ``mask`` is true, and
    len(mask) where none is.

    Row c weighs len(mask) - c, so the first true row weighs most.  The
    weights take the least unsigned type that holds len(mask), which keeps
    the products small and fast.
    """
    w = len(mask)
    weights = np.arange(w, 0, -1, dtype=np.min_scalar_type(w))
    return np.subtract(w, (mask * weights[:, None]).max(axis=0, initial=0), dtype=np.intp)


def _argmin(a):
    """The first array row holding each column's least value of ``a``."""
    return _first(a == a.min(axis=0))


def _scan(pre, opens, gstart, pos, fall):
    """Each row's secretary-mode hire found on the column prefix ``pre``, a
    (columns, rows) array.

    Columns run in decreasing value.  The best value outside the window is
    that of the first column j0 with ``t < opens``, and the candidates that
    beat it are the columns before ``gstart[j0]``, all in the window; the
    hire is the earliest of them, the first column among equal times.  If that is ihat, at column ``pos``, and
    ``fall`` says the gate rejects it, the hire passes to the earliest of
    the columns before ``gstart[pos]``: each beats ihat and, being in the
    window, arrives after it.  Returns the hire's position (-1 if there is
    none) and whether the prefix settles it: it holds j0 or the whole row.
    Overwrites ``pre``.
    """
    width = len(pre)
    n = len(gstart) - 1
    # column numbers in the least type that holds them, which keeps the
    # compares fast
    at = np.arange(width, dtype=np.min_scalar_type(width))
    mask = pre < opens
    j0 = _first(mask)
    found = j0 < width
    # the candidates are the columns before lim: every column of the prefix
    # where it does not hold j0
    lim = np.append(gstart[:width], width).astype(at.dtype)[j0]
    np.greater_equal(at[:, None], lim, out=mask)
    # times lie in [0, 1), so adding 1 to the other columns makes them
    # later than every candidate
    np.add(pre, mask, out=pre)
    first = np.where(lim > 0, _argmin(pre), -1)
    rows = np.flatnonzero(fall & (first == pos))
    above = gstart[pos]
    first[rows] = _argmin(pre[:above, rows]) if above else -1
    return first, found | (width == n)


def _resolve_block(draws, stages, mistakes, gstart, params, gate_draw, hired, switched):
    """Each row's hired position (or -1) and switched flag, written into
    ``hired`` and ``switched``.

    ``stages`` holds (width, cols) pairs of widening column prefixes, the
    last the whole row.  Each stage draws the columns ``cols``: its prefix
    of ``width`` columns, the mistakes and ihat, or every column.  The
    first stage draws them for every row of the block, and finds the
    switch on the mistakes (``stages[0][1][mistakes]``) and the hire on
    its prefix; each later one draws its columns only for the rows the
    stage before did not settle, which overwrites the block's times.
    Arrivals before max(tau, t_switch) are never hired, and each of them
    arrives before every arrival in the window after it.  So the first
    candidate the secretary mode takes is the earliest window arrival that
    beats the best value outside the window, the greatest of those at that
    time.  A mistake at ihat's time switches the mode before ihat is
    considered, and a top prediction at the switch time is gated by gamma.
    """
    pos_ihat = draws.pin
    width, cols = stages[0]
    times = draws.times(slice(None), cols)
    k = times.shape[1]
    # the mistakes' times are gathered into scratch, which the draw no longer needs
    gathered = _view(draws.scratch, (len(mistakes), k), np.float64)
    np.take(times, mistakes, axis=0, mode="clip", out=gathered)
    t_switch = gathered.min(axis=0, initial=np.inf)
    t_ihat = times[np.searchsorted(cols, pos_ihat)]
    pred_hire = t_ihat < t_switch
    # whether the gate rejects ihat, should secretary mode reach it
    p_gate = np.where(t_ihat == t_switch, params.gamma, params.delta)
    fall = ~(uniforms_at(draws.seeds, gate_draw) < p_gate)
    del p_gate
    np.logical_and(np.isfinite(t_switch), ~pred_hire, out=switched)

    # t > tau and t >= t_switch, as one comparison
    opens = np.maximum(np.nextafter(params.tau, np.inf), t_switch, out=t_switch)
    # cols begins with the prefix
    first, done = _scan(times[:width], opens, gstart, pos_ihat, fall)
    rows = np.flatnonzero(~(done | pred_hire))
    for width, cols in stages[1:]:
        left = []
        for group in draws.groups(rows, len(cols)):
            times = draws.times(group, cols)
            first[group], done = _scan(times[:width], opens[group], gstart, pos_ihat, fall[group])
            left.append(group[~done])
        rows = np.concatenate(left) if left else rows
    np.copyto(hired, np.where(pred_hire, pos_ihat, first))


def _stages(is_mistake, pos_ihat):
    """The (width, cols) stages a row's hire is looked for on, narrowest
    first: each prefix of ``_PREFIXES`` with the mistakes and ihat, then
    the whole row.  A stage whose columns are more than half of the row
    reads the row whole, and is the last."""
    n = len(is_mistake)
    read = is_mistake.copy()
    read[pos_ihat] = True
    stages = []
    for width in _PREFIXES:
        read[:width] = True
        if 2 * np.count_nonzero(read) > n or width >= n:
            break
        stages.append((width, np.flatnonzero(read)))
    return stages + [(n, np.arange(n))]


def run_trials_batch(
    instance: Instance,
    model: str,
    params: PolicyParams,
    base_seed: int,
    start: int,
    count: int,
) -> BatchResult:
    """Run trials [start, start+count) with per-trial derived streams.

    Matches ``make_*_schedule`` + ``run_trial`` driven by
    ``TrialStream(trial_seed(base_seed, i))`` exactly.  Block column c
    holds candidate ``order[c]``, the candidates sorted by decreasing value
    (ties in index order); each column keeps its candidate's draw number,
    so the streams are read as ``make_*_schedule`` reads them.  Trials run in
    blocks of ``ROW_ELEMENTS // len(cols)`` rows, ``cols`` being the
    columns of the 16-column stage, and a block draws only the columns a
    row's hire depends on, in stages (``_stages``): the 4-column prefix,
    the mistakes and ihat for every row; the 16-column prefix with them for
    the rows whose hire the first does not settle; then the whole row for
    the rows left.  A stage whose columns are more than half of the row
    reads it whole, and is the last.  The blocks run in order, each
    drawing into the same two buffers, and the hires are mapped back
    through ``order``.

    ``base_seed`` must lie in [0, 2**64), the seeds a stream can hold, and
    start and count are integers >= 0 with start + count <= 2**64, since
    trial indices are uint64; each is checked by ``core.check_integer``.
    """
    beta = params.require_beta() if check_model(model) == COSP else None
    base_seed = check_seed("base_seed", base_seed)
    start = check_integer("start", start, 0, 2**64)
    count = check_integer("count", count, 0, 2**64 - start)

    n = instance.n
    v = np.asarray(instance.values)
    ihat = instance.top_predicted_index
    vstar = instance.top_true_value

    order = np.argsort(-v, kind="stable")
    pos_ihat = int(np.flatnonzero(order == ihat)[0])
    is_mistake = (np.asarray(instance.deviations) > params.theta)[order]
    # first column of each column's tie group, and n past the last column
    vs = v[order]
    gstart = np.append(np.searchsorted(-vs, -vs, side="left"), n)

    # draw number of each candidate within one round of time draws, in
    # column order
    col_draw = np.arange(1, n + 1, dtype=np.uint64)
    if beta is not None:
        col_draw[ihat + 1:] -= np.uint64(1)
    col_draw = col_draw[order]
    # the hire gate's uniform is the draw after the times
    gate_draw = n if beta is not None else n + 1

    hired = np.empty(count, dtype=np.int64)
    switched = np.empty(count, dtype=bool)
    stages = _stages(is_mistake, pos_ihat)
    # blocks are sized for the widest prefix's stage, or for the whole row
    # where that stage reads it
    cols = stages[min(len(_PREFIXES), len(stages)) - 1][1]
    mistakes = np.flatnonzero(is_mistake[stages[0][1]])
    rows = max(1, ROW_ELEMENTS // len(cols))
    # every block draws into the same two buffers: block-sized arrays
    # allocated for each block are handed back to the system and faulted
    # in again
    out = np.empty(max(ROW_ELEMENTS, n), dtype=np.uint64)
    scratch = np.empty_like(out)
    for lo in range(0, count, rows):
        block = slice(lo, lo + rows)
        seeds = trial_seeds_vector(base_seed, start + lo, min(rows, count - lo))
        draws = _Draws(seeds, col_draw, pos_ihat, beta, out, scratch)
        _resolve_block(
            draws, stages, mistakes, gstart, params, gate_draw, hired[block], switched[block]
        )

    hired = np.where(hired >= 0, order[hired], -1)
    ratios = np.where(hired >= 0, v[hired] / vstar, 0.0)
    return BatchResult(hired=hired, ratios=ratios, switched=switched)
