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
``run_trial`` takes tied arrivals in index order.

``run_trials_batch`` is a vectorized engine that reproduces ``run_trial``
bit for bit across many trials (same per-trial streams, same draws) and is
what the simulation module uses.  It needs no arrival-order sort:
secretary mode hires nobody before max(tau, t_switch), so its first hire
is the earliest arrival after that point whose value beats every value
that arrived before it, and a gated-out top prediction passes to the
earliest later arrival that beats it.  The engine holds the candidates as
columns in decreasing value, so the best value that arrived before the
window is the first column j0 that did, and the candidates that beat it
are the columns ahead of it.

So a row's result depends only on the columns it reads: a short column
prefix, which holds j0 in most rows, the mistakes and the top prediction.
Any other column is no mistake and not the top prediction, and it ranks
below j0, which arrived before the window: it is never hired and changes
nothing, and neither does a tie among such columns.  The engine draws only
those columns, and reads a row whole when its prefix does not hold j0.  A
row with two equal times among the columns it read is replayed by
``run_trial``.  Rows run in blocks of about ``ROW_ELEMENTS`` draws, sized
for a core's L2 cache, so memory does not grow with n or with the number
of trials.  The blocks can run on several threads, each with buffers of
its own: numpy releases the interpreter lock in the whole-block passes,
and a row's result does not depend on the thread that runs it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import COSP, Instance, PolicyParams, Schedule, check_model
from .rng import TrialStream, trial_seed, trial_seeds_vector, uniforms_at

__all__ = [
    "TrialOutcome",
    "make_cosp_schedule",
    "make_rosp_schedule",
    "run_trial",
    "run_trials_batch",
    "BatchResult",
]

# Draws per block: a block of ROW_ELEMENTS // len(cols) rows draws its
# columns cols into a thread's two uint64 buffers of max(ROW_ELEMENTS, n)
# draws, which take 512 KiB each below n = 2^16 and stay in a core's L2
# cache.
ROW_ELEMENTS = 1 << 16
# Columns of the prefix a row's hire is looked for on.
_PREFIX = 16

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
    arrivals in index order.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta={beta} outside (0, 1)")
    times = _draw_times(instance, stream, (instance.top_predicted_index, beta))
    return Schedule(tuple(times))


def make_rosp_schedule(instance: Instance, stream: TrialStream) -> Schedule:
    """Random-order schedule: all arrivals independently uniform on [0, 1].

    Draws one uniform per candidate, in index order; equal times are kept,
    and ``run_trial`` takes the tied arrivals in index order.
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

    Candidates arrive in order of their times, and tied arrivals in index
    order.  An arrival at the switch time counts as the switch: a top
    prediction reached in secretary mode at that time (it switched the
    mode, or came after a tied candidate that did) is gated by gamma, a
    later one by delta.
    Each probabilistic hire decision consumes exactly one uniform from the
    stream, in arrival order.
    """
    times = schedule.arrival_times
    if len(times) != instance.n:
        raise ValueError(f"schedule length {len(times)} != instance size {instance.n}")

    theta, tau = params.theta, params.tau
    gamma, delta = params.gamma, params.delta
    vs, devs = instance.values, instance.deviations
    ihat = instance.top_predicted_index
    vstar = instance.top_true_value

    order = sorted(range(instance.n), key=lambda i: times[i])
    mode = PREDICTION
    switch_time: float | None = None
    best_seen = -float("inf")
    hired: int | None = None

    for i in order:
        t = times[i]
        if mode == PREDICTION and devs[i] > theta:
            mode = SECRETARY
            switch_time = t
        if mode == PREDICTION and i == ihat:
            hired = i
            break
        if mode == SECRETARY and t > tau and vs[i] > best_seen:
            if i == ihat:
                p = gamma if t == switch_time else delta
                if stream.uniform() < p:
                    hired = i
                    break
            else:
                hired = i
                break
        best_seen = max(best_seen, vs[i])

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

    Column c of row r is draw ``col_draw[c]`` of the stream seeded
    ``seeds[r]``, and in cosp column ``pin`` is beta.  Times are drawn into
    the uint64 buffer ``out`` (as float64) through the buffer ``scratch``,
    so each draw overwrites the times the last one returned.
    """

    seeds: np.ndarray
    col_draw: np.ndarray
    pin: int
    beta: float | None
    out: np.ndarray
    scratch: np.ndarray

    def times(self, rows, cols):
        """Arrival times of columns ``cols`` in rows ``rows``, and whether
        each row holds two equal ones, found on a sorted copy in ``scratch``."""
        seeds = self.seeds[rows]
        shape = (len(seeds), len(cols))
        t = uniforms_at(
            seeds[:, None],
            self.col_draw[cols],
            _view(self.out, shape, np.float64),
            _view(self.scratch, shape, np.uint64),
        )
        if self.beta is not None:
            t[:, cols == self.pin] = self.beta
        ordered = _view(self.scratch, shape, np.float64)
        np.copyto(ordered, t)
        ordered.sort(axis=1)
        return t, (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)

    def groups(self, rows, width):
        """``rows`` in groups whose times on ``width`` columns fit a draw."""
        step = self.out.size // width
        return (rows[lo:lo + step] for lo in range(0, len(rows), step))


def _scan(pre, opens, gstart, pos, fall):
    """Each row's secretary-mode hire found on the column prefix ``pre``.

    Columns run in decreasing value.  The best value outside the window is
    that of the first column j0 with ``t < opens``, and the candidates that
    beat it are the columns before ``gstart[j0]``, all in the window; the
    hire is the earliest of them.  If that is ihat, at column ``pos``, and
    ``fall`` says the gate rejects it, the hire passes to the earliest of
    the columns before ``gstart[pos]``: each beats ihat and, being in the
    window, arrives after it.  Returns the hire's position (-1 if there is
    none) and whether the prefix settles it: it holds j0 or the whole row.
    Overwrites ``pre``.
    """
    width = pre.shape[1]
    n = len(gstart) - 1
    mask = pre < opens[:, None]
    found = mask.any(axis=1)
    lim = gstart[np.where(found, mask.argmax(axis=1), n)]
    np.greater_equal(np.arange(width), lim[:, None], out=mask)
    np.copyto(pre, np.inf, where=mask)
    first = np.where(lim > 0, pre.argmin(axis=1), -1)
    rows = np.flatnonzero(fall & (first == pos))
    above = gstart[pos]
    first[rows] = pre[rows, :above].argmin(axis=1) if above else -1
    return first, found | (width == n)


def _resolve_block(draws, cols, mistakes, gstart, params, gate_draw, hired, switched):
    """Each row's hired position (or -1) and switched flag, written into
    ``hired`` and ``switched``; returns the rows to replay.

    Only the columns ``cols`` are drawn: every column, or a prefix of
    ``_PREFIX`` columns, the mistakes (``cols[mistakes]``) and ihat.  A row
    whose hire that prefix does not settle is drawn whole, which overwrites
    the block's times.  Arrivals before max(tau, t_switch) are never hired,
    and each of them arrives before every arrival in the window after it.
    So the first candidate the secretary mode takes is the earliest window
    arrival that beats the best value outside the window.  The rows
    returned hold two equal times among the columns they read.
    """
    n = len(gstart) - 1
    pos_ihat = draws.pin
    times, tied = draws.times(slice(None), cols)
    k = len(times)
    # the mistakes' times are gathered into scratch, which the ties no longer need
    t_switch = np.take(
        times, mistakes, axis=1, mode="clip", out=_view(draws.scratch, (k, len(mistakes)), np.float64)
    ).min(axis=1, initial=np.inf)
    t_ihat = times[:, np.searchsorted(cols, pos_ihat)]
    pred_hire = t_ihat < t_switch
    # whether the gate rejects ihat, should secretary mode reach it
    p_gate = np.where(t_ihat == t_switch, params.gamma, params.delta)
    fall = ~(uniforms_at(draws.seeds, gate_draw) < p_gate)
    del p_gate
    np.logical_and(np.isfinite(t_switch), ~pred_hire, out=switched)

    # t > tau and t >= t_switch, as one comparison
    opens = np.maximum(np.nextafter(params.tau, np.inf), t_switch, out=t_switch)
    # cols begins with the prefix
    width = n if len(cols) == n else _PREFIX
    first, done = _scan(times[:, :width], opens, gstart, pos_ihat, fall)
    every = np.arange(n)
    for rows in draws.groups(np.flatnonzero(~(done | pred_hire)), n):
        times, row_ties = draws.times(rows, every)
        tied[rows] |= row_ties
        first[rows] = _scan(times, opens[rows], gstart, pos_ihat, fall[rows])[0]
    np.copyto(hired, np.where(pred_hire, pos_ihat, first))
    return np.flatnonzero(tied)


def _in_threads(work, workers):
    """``[work(w, workers, stop) for w in range(workers)]``, run at once.

    Worker 0 runs on the calling thread and each other one on a thread of
    its own.  Every helper is joined before this returns or raises.  The
    first worker to fail sets the event ``stop``, which the others read
    between blocks, and its exception is raised here once all have
    stopped.
    """
    results = [None] * workers
    errors = []
    stop = threading.Event()

    def run(w):
        try:
            results[w] = work(w, workers, stop)
        except BaseException as exc:
            stop.set()
            errors.append(exc)

    helpers = []
    try:
        for w in range(1, workers):
            helper = threading.Thread(target=run, args=(w,), name=f"secpred-batch-{w}")
            helper.start()
            helpers.append(helper)
        run(0)
    except BaseException:
        stop.set()
        raise
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return results


def run_trials_batch(
    instance: Instance,
    model: str,
    params: PolicyParams,
    base_seed: int,
    start: int,
    count: int,
    threads: int = 1,
) -> BatchResult:
    """Run trials [start, start+count) with per-trial derived streams.

    Matches ``make_*_schedule`` + ``run_trial`` driven by
    ``TrialStream(trial_seed(base_seed, i))`` exactly.  Block column c
    holds candidate ``order[c]``, the candidates sorted by decreasing value
    (ties in index order); each column keeps its candidate's draw number,
    so the streams are read as the scalar replay reads them.  Trials run in
    blocks of ``ROW_ELEMENTS // len(cols)`` rows, which draw only the
    columns ``cols`` a row's hire depends on: a prefix, the mistakes and
    ihat, or every column when those are more than half of them.  The hires
    are found on the prefix, or on the whole row where the prefix does not
    settle them, and mapped back through ``order``.  The rows with two
    equal times among the columns they read are then replayed by
    ``run_trial``.

    The blocks run on W = min(threads, blocks) workers, the calling thread
    and W - 1 helper threads: worker w takes blocks w, w + W, and so on,
    with buffers of its own, and writes only its blocks' rows.  numpy
    releases the interpreter lock in the whole-block passes, so the workers
    share the cores, and the result does not depend on W.
    """
    beta = params.require_beta() if check_model(model) == COSP else None
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

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
    read = is_mistake.copy()
    read[:_PREFIX] = True
    read[pos_ihat] = True
    # a block that reads most of each row reads it whole, and needs no
    # second draw for the rows its prefix does not settle
    cols = np.flatnonzero(read) if 2 * np.count_nonzero(read) <= n else np.arange(n)
    mistakes = np.flatnonzero(is_mistake[cols])
    rows = max(1, ROW_ELEMENTS // len(cols))
    starts = range(0, count, rows)

    def work(w, workers, stop):
        # every block draws into the same two buffers: block-sized arrays
        # allocated for each block are handed back to the system and
        # faulted in again
        out = np.empty(max(ROW_ELEMENTS, n), dtype=np.uint64)
        scratch = np.empty_like(out)
        replay = []
        for lo in starts[w::workers]:
            if stop.is_set():
                break
            block = slice(lo, lo + rows)
            seeds = trial_seeds_vector(base_seed, start + lo, min(rows, count - lo))
            draws = _Draws(seeds, col_draw, pos_ihat, beta, out, scratch)
            tied = _resolve_block(
                draws, cols, mistakes, gstart, params, gate_draw, hired[block], switched[block]
            )
            replay += (lo + tied).tolist()
        return replay

    replays = _in_threads(work, max(1, min(threads, len(starts))))
    hired = np.where(hired >= 0, order[hired], -1)
    # a row with two equal times among those it read takes them in index
    # order, as the scalar replay does
    for r in sorted(r for replay in replays for r in replay):
        stream = TrialStream(trial_seed(base_seed, start + r))
        if beta is not None:
            schedule = make_cosp_schedule(instance, beta, stream)
        else:
            schedule = make_rosp_schedule(instance, stream)
        out = run_trial(instance, schedule, params, stream)
        hired[r] = -1 if out.hired_index is None else out.hired_index
        switched[r] = out.switch_time is not None
    ratios = np.where(hired >= 0, v[hired] / vstar, 0.0)
    return BatchResult(hired=hired, ratios=ratios, switched=switched)
