"""Execution of the prediction-aware hiring policy over a schedule.

The policy starts in prediction mode, planning to hire the top-predicted
candidate on arrival.  The first candidate whose value deviates from its
prediction by more than theta flips the run into secretary mode: skip
everything up to time tau, then consider each candidate that beats all
earlier arrivals.  The top-predicted candidate is only hired
probabilistically in secretary mode (gamma if it triggered the switch,
delta otherwise); anyone else is hired outright.

``run_trial`` replays one schedule step by step.  ``run_trials_batch`` is a
vectorized engine that reproduces ``run_trial`` bit for bit across many
trials (same per-trial streams, same draws) and is what the simulation
module uses.  It needs no arrival-order sort: secretary mode
hires nobody before max(tau, t_switch), so its first hire is the earliest
arrival after that point whose value beats every value that arrived
before it, and a gated-out top prediction passes to the earliest later
arrival that beats it.  The engine holds the candidates as columns in
decreasing value, so the best value that arrived before the window is the
first column that did, and the candidates that beat it are the columns
ahead of it.

A block of trials runs in two stages.  The collision stage is the only one
that reads whole rows: it mixes each row's raw 64-bit draws, all but the
mix's last round, and compares them on integer keys, which equal times
share (32-bit ones below n = 2^16); the last round maps those keys one to
one, so it is taken only on the rare rows with two equal keys, which are
compared on their float times.  It keeps the draws of the columns the
resolution stage reads: a short column prefix, the mistakes and the top
prediction.  The resolution stage finishes those draws into times, and
draws a wider prefix only for the rows that need it.  Both stages work on
blocks of about ``ROW_ELEMENTS`` draws, sized for a core's L2 cache, so
memory does not grow with n or with the number of trials.  The blocks can
run on several threads, each with buffers of its own: numpy releases the
interpreter lock in the whole-block passes, and a row's result does not
depend on the thread that runs it.

The engine resolves only distinct times.  A row whose first round of times
truly collides (about n^2 / 2^54 of the rows) is replayed by
``make_*_schedule`` and ``run_trial``, which redraw the whole round until
its times are distinct; that rule is written once, in ``_draw_times``.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .core import COSP, Instance, PolicyParams, Schedule, check_model
from .rng import (
    TrialStream,
    last_round,
    offsets,
    premixed_at,
    to_uniforms,
    trial_seed,
    trial_seeds_vector,
    uniforms_at,
)

__all__ = [
    "TrialOutcome",
    "make_cosp_schedule",
    "make_rosp_schedule",
    "run_trial",
    "run_trials_batch",
    "BatchResult",
]

# Draws per block of either stage: a thread's two collision-stage uint64
# buffers of ROW_ELEMENTS // n whole rows then take 512 KiB each and stay
# in a core's L2 cache, and so do the draws a resolution block keeps.
ROW_ELEMENTS = 1 << 16
# Columns of the first prefix a row's hire is looked for on.
_PREFIX = 16
# The collision key of a raw draw is its high 32-bit word in rows of fewer
# than _WIDE_KEYS columns, which hold n^2 / 2^33 < 0.5 equal pairs of such
# keys on average; longer rows, which would mostly be compared again on
# their times, are keyed on the time's 53 bits.
_HIGH_WORD = 1 if sys.byteorder == "little" else 0
_WIDE_KEYS = 1 << 16

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
    """Draw arrival times, redrawing whole vectors on (measure-zero) collisions."""
    n = instance.n
    while True:
        times = [0.0] * n
        for i in range(n):
            if fixed is not None and i == fixed[0]:
                times[i] = fixed[1]
            else:
                times[i] = stream.uniform()
        if len(set(times)) == n:
            return times


def make_cosp_schedule(instance: Instance, beta: float, stream: TrialStream) -> Schedule:
    """Chosen-order schedule: the top prediction arrives exactly at beta,
    everyone else independently uniform on [0, 1]."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta={beta} outside (0, 1)")
    times = _draw_times(instance, stream, (instance.top_predicted_index, beta))
    return Schedule(tuple(times))


def make_rosp_schedule(instance: Instance, stream: TrialStream) -> Schedule:
    """Random-order schedule: all arrivals independently uniform on [0, 1]."""
    times = _draw_times(instance, stream, None)
    return Schedule(tuple(times))


def run_trial(
    instance: Instance,
    schedule: Schedule,
    params: PolicyParams,
    stream: TrialStream,
) -> TrialOutcome:
    """Replay the policy once over the given schedule.

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


def _key_collisions(z, keys, pin, beta):
    """Rows of draws ``z`` whose arrival times collide.

    ``z`` holds raw draws but for the mix's last round (``premixed_at``),
    and a draw's time is the top 53 bits of the finished draw.  The rows
    are compared first on keys sorted in ``keys``, an array of z's shape
    that is overwritten: as uint32 it holds each draw's high word, which
    equal times share, and as uint64 its top 53 bits.  The last round,
    ``x ^ (x >> 31)``, maps each of those keys one to one by the same rule
    on the key's own bits, so two finished draws share a key exactly when
    these do, and the round is taken only on the rows with two equal keys,
    which are compared on their float times.  In cosp, column ``pin`` is
    beta, keyed as the draw ``floor(beta 2^53)`` would be: a beta that is
    not a multiple of 2^-53 may share a key but never a time.
    """
    if keys.dtype == np.uint32:
        np.copyto(keys, z.view(np.uint32)[:, _HIGH_WORD::2])
        drop = 21
    else:
        np.right_shift(z, np.uint64(11), out=keys)
        drop = 0
    if beta is not None:
        # the rule is its own inverse on keys of 53 bits or fewer
        key = int(beta * 2.0**53) >> drop
        keys[:, pin] = key ^ (key >> 31)
    keys.sort(axis=1)
    rows = np.flatnonzero((keys[:, 1:] == keys[:, :-1]).any(axis=1))
    if not rows.size:
        return rows
    times = (last_round(z[rows]) >> np.uint64(11)) * 2.0**-53
    if beta is not None:
        times[:, pin] = beta
    times.sort(axis=1)
    return rows[(times[:, 1:] == times[:, :-1]).any(axis=1)]


def _view(buf, shape, dtype):
    """The first elements of buffer ``buf`` as an array of this shape and dtype."""
    return buf.reshape(-1).view(dtype)[: math.prod(shape)].reshape(shape)


def _colliding_rows(seeds, offs, pin, beta, cols, z, scratch, taken):
    """Rows whose first round of arrival times holds two equal times.

    Column j of a row takes the draw at offset ``offs[j]`` of its stream
    (``rng.offsets`` of its draw number); in cosp the draw numbers skip
    ihat, whose column ``pin`` is pinned at beta.  Rows run in groups of
    ``len(z)``, whose draws are all but mixed in the uint64 buffers ``z``
    and ``scratch``; the collision keys reuse ``scratch``.  The draws of
    columns ``cols`` are copied into ``taken``, still without the mix's
    last round, so they need not be mixed again.
    """
    step, n = z.shape
    key = np.uint32 if n < _WIDE_KEYS else np.uint64
    bad = []
    for lo in range(0, len(seeds), step):
        group = seeds[lo:lo + step]
        k = len(group)
        raw = premixed_at(group[:, None], offs, z[:k], scratch[:k])
        np.take(raw, cols, axis=1, out=taken[lo:lo + k], mode="clip")
        bad.append(lo + _key_collisions(raw, _view(scratch, (k, n), key), pin, beta))
    return np.concatenate(bad)


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
        """Arrival times of columns ``cols`` in rows ``rows``."""
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
        return t

    def groups(self, rows, width):
        """``rows`` in groups whose times on ``width`` columns fit a draw."""
        step = self.out.size // width
        return (rows[lo:lo + step] for lo in range(0, len(rows), step))


def _scan(pre, opens, gstart):
    """Each row's first secretary-mode hire found on the column prefix ``pre``.

    Columns run in decreasing value.  The best value outside the window is
    that of the first column j0 with ``t < opens``, and the candidates that
    beat it are the columns before ``gstart[j0]``, all in the window; the
    hire is the earliest of them.  Returns its position (-1 if there is
    none) and whether the prefix settles it: it holds j0 or the whole row.
    Overwrites ``pre``.
    """
    width = pre.shape[1]
    n = len(gstart) - 1
    outside = pre < opens[:, None]
    found = outside.any(axis=1)
    lim = gstart[np.where(found, outside.argmax(axis=1), n)]
    pre[np.arange(width) >= lim[:, None]] = np.inf
    first = np.where(lim > 0, pre.argmin(axis=1), -1)
    return first, found | (width == n)


def _first_hires(pre, opens, gstart, draws):
    """Position of each row's first secretary-mode hire, or -1.

    ``pre`` holds each row's first columns.  The rows that prefix does not
    settle are drawn again on a prefix four times as wide, until each is
    settled.  Overwrites ``pre``.
    """
    first, done = _scan(pre, opens, gstart)
    todo = np.flatnonzero(~done)
    width = pre.shape[1]
    n = len(gstart) - 1
    while todo.size:
        width = min(4 * width, n)
        left = []
        for rows in draws.groups(todo, width):
            first[rows], done = _scan(draws.times(rows, np.arange(width)), opens[rows], gstart)
            left.append(rows[~done])
        todo = np.concatenate(left)
    return first


def _resolve_block(times, draws, cols, u_gate, gstart, mistake_cols, params):
    """Hired position (or -1) and the switched flag of each row.

    ``times`` holds every row's columns ``cols``: a prefix of ``_PREFIX``
    columns, the mistakes and ihat.  Other columns are drawn only for the
    rows that read them, and each such draw overwrites ``times``.  Arrivals
    before max(tau, t_switch) are never hired, and each of them arrives
    before every arrival in the window after it.  So the first candidate
    the secretary mode takes is the earliest window arrival that beats the
    best value outside the window.  If that is ihat and the gate rejects
    it, the next is the earliest later arrival that beats v[ihat]: one of
    the columns before ``gstart[pos_ihat]``.
    """
    pos_ihat = draws.pin
    t_switch = times[:, np.searchsorted(cols, mistake_cols)].min(axis=1, initial=np.inf)
    t_ihat = times[:, np.searchsorted(cols, pos_ihat)]
    pred_hire = t_ihat < t_switch
    p_gate = np.where(t_ihat == t_switch, params.gamma, params.delta)

    # t > tau and t >= t_switch, as one comparison
    opens = np.maximum(np.nextafter(params.tau, np.inf), t_switch)
    # cols begins with the prefix
    hired = _first_hires(times[:, : min(_PREFIX, len(cols))], opens, gstart, draws)
    hired[pred_hire] = pos_ihat
    fall = np.flatnonzero(~pred_hire & (hired == pos_ihat) & ~(u_gate < p_gate))
    above = gstart[pos_ihat]
    # ihat was the earliest of columns [0, lim), which holds [0, above), and no
    # two times in a row are equal, so every column before above arrives later
    if above:
        for rows in draws.groups(fall, above):
            hired[rows] = draws.times(rows, np.arange(above)).argmin(axis=1)
    else:
        hired[fall] = -1

    switched = np.isfinite(t_switch) & ~pred_hire
    return hired, switched


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
    blocks of about ``ROW_ELEMENTS`` draws in two stages.  The collision
    stage mixes whole rows, ``ROW_ELEMENTS // n`` at a time, to find the
    rows whose first round of times collides, and keeps the draws of the
    columns the resolution stage reads, still without the mix's last
    round.  That stage finishes them, finds the hires on column prefixes
    from each row's first round, and maps them back through ``order``.  The
    colliding rows are then replayed by ``run_trial``.

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
    mistake_cols = np.flatnonzero((np.asarray(instance.deviations) > params.theta)[order])
    # first column of each column's tie group, and n past the last column
    vs = v[order]
    gstart = np.append(np.searchsorted(-vs, -vs, side="left"), n)

    # draw number of each candidate within one round of time draws, in
    # column order
    col_draw = np.arange(1, n + 1, dtype=np.uint64)
    if beta is not None:
        col_draw[ihat + 1:] -= np.uint64(1)
    col_draw = col_draw[order]
    offs = offsets(col_draw)
    # the hire gate's uniform is the draw after the times
    gate_draw = n if beta is not None else n + 1

    hired = np.empty(count, dtype=np.int64)
    switched = np.empty(count, dtype=bool)
    # whole rows per collision group
    step = min(max(1, ROW_ELEMENTS // n), count)
    # the columns the resolution stage reads of every row: a prefix, the
    # mistakes and ihat
    read = np.zeros(n, dtype=bool)
    read[:_PREFIX] = True
    read[mistake_cols] = True
    read[pos_ihat] = True
    cols = np.flatnonzero(read)
    rows = max(1, step * n // len(cols))
    starts = range(0, count, rows)

    def work(w, workers, stop):
        # both stages draw into the same two buffers: block-sized arrays
        # allocated for each block are handed back to the system and
        # faulted in again; a block's rows keep the draws of cols in taken
        z = np.empty((step, n), dtype=np.uint64)
        scratch = np.empty_like(z)
        taken = np.empty((min(rows, count), len(cols)), dtype=np.uint64)
        replay = []
        for lo in starts[w::workers]:
            if stop.is_set():
                break
            block = slice(lo, lo + rows)
            seeds = trial_seeds_vector(base_seed, start + lo, min(rows, count - lo))
            k = len(seeds)
            bad = _colliding_rows(seeds, offs, pos_ihat, beta, cols, z, scratch, taken)
            replay += (lo + bad).tolist()
            kept = last_round(taken[:k], _view(z, (k, len(cols)), np.uint64))
            times = to_uniforms(kept, _view(z, (k, len(cols)), np.float64))
            if beta is not None:
                times[:, cols == pos_ihat] = beta
            u_gate = uniforms_at(seeds, gate_draw)
            draws = _Draws(seeds, col_draw, pos_ihat, beta, z, scratch)
            hired[block], switched[block] = _resolve_block(
                times, draws, cols, u_gate, gstart, mistake_cols, params
            )
        return replay

    replays = _in_threads(work, max(1, min(threads, len(starts))))
    hired = np.where(hired >= 0, order[hired], -1)
    # a row whose first round of times collides draws again, round after
    # round, as the scalar schedule does
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
