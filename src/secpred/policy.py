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
trials (same per-trial streams, same draws, same redraws) and is what the
simulation module uses.  It needs no arrival-order sort: secretary mode
hires nobody before max(tau, t_switch), so its first hire is the earliest
arrival after that point whose value beats every value that arrived
before it, and a gated-out top prediction passes to the earliest later
arrival that beats it.  The engine holds the candidates as columns in
decreasing value, so the best value that arrived before the window is the
first column that did, and the candidates that beat it are the columns
ahead of it.  Those are found on a short column prefix that widens only
for the rows that need it; only the draws and the collision check read
whole rows.  Trials run in row blocks of about ``ROW_ELEMENTS`` arrival
times, sized for a core's L2 cache, so memory does not grow with n or
with the number of trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import COSP, Instance, PolicyParams, Schedule, check_model
from .rng import TrialStream, trial_seeds_vector, uniforms_at

__all__ = [
    "TrialOutcome",
    "make_cosp_schedule",
    "make_rosp_schedule",
    "run_trial",
    "run_trials_batch",
    "BatchResult",
]

# Rows per block are ROW_ELEMENTS // n: a block's float64 arrival times
# then take 512 KiB and stay in a core's L2 cache while they are resolved.
ROW_ELEMENTS = 1 << 16

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


def _block_times(seeds, col_draw, per_round, pin, beta, out):
    """Arrival times of a block of trials, as ``_draw_times`` draws them.

    Column j takes draw ``col_draw[j]`` of its row's stream; in cosp the
    draw numbers skip ihat, whose column ``pin`` is pinned at beta.  A row
    whose times collide is redrawn whole from the next ``per_round`` draws.
    The times are written into ``out``.  Returns them and the number of
    draws each row used.
    """
    seeds = seeds[:, None]
    times = uniforms_at(seeds, col_draw, out)
    if beta is not None:
        times[:, pin] = beta
    used = np.full(len(seeds), per_round, dtype=np.uint64)
    while True:
        srt = np.sort(times, axis=1)
        bad = np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))
        if not bad.size:
            return times, used
        redo = uniforms_at(seeds[bad], used[bad, None] + col_draw)
        if beta is not None:
            redo[:, pin] = beta
        times[bad] = redo
        used[bad] += np.uint64(per_round)


def _first_hires(times, opens, gstart):
    """Position of each row's first secretary-mode hire, or -1.

    Columns run in decreasing value.  The best value outside the window is
    that of the first column j0 with ``t < opens``, and the candidates that
    beat it are the columns before ``gstart[j0]``, all in the window; the
    hire is the earliest of them.  j0 is looked for on a prefix that widens
    until every row has one or the prefix is the whole row (j0 = n).
    """
    rows, n = times.shape
    first = np.empty(rows, dtype=np.int64)
    todo = np.arange(rows)
    width = 16
    while todo.size:
        width = min(width, n)
        pre = times[todo, :width]
        outside = pre < opens[todo, None]
        found = outside.any(axis=1)
        lim = gstart[np.where(found, outside.argmax(axis=1), n)]
        pre[np.arange(width) >= lim[:, None]] = np.inf
        pos = pre.argmin(axis=1)
        done = found | (width == n)
        first[todo[done]] = np.where(lim[done] > 0, pos[done], -1)
        todo = todo[~done]
        width *= 4
    return first


def _resolve_block(times, u_gate, gstart, mistake_cols, pos_ihat, params):
    """Hired position (or -1) and the switched flag of each row.

    Arrivals before max(tau, t_switch) are never hired, and each of them
    arrives before every arrival in the window after it.  So the first
    candidate the secretary mode takes is the earliest window arrival that
    beats the best value outside the window.  If that is ihat and the gate
    rejects it, the next is the earliest later arrival that beats v[ihat]:
    one of the columns before ``gstart[pos_ihat]``.
    """
    t_switch = times[:, mistake_cols].min(axis=1, initial=np.inf)
    t_ihat = times[:, pos_ihat]
    pred_hire = t_ihat < t_switch

    # t > tau and t >= t_switch, as one comparison
    opens = np.maximum(np.nextafter(params.tau, np.inf), t_switch)
    hired = _first_hires(times, opens, gstart)
    hired[pred_hire] = pos_ihat
    p_gate = np.where(t_ihat == t_switch, params.gamma, params.delta)
    fall = np.flatnonzero(~pred_hire & (hired == pos_ihat) & ~(u_gate < p_gate))
    above = gstart[pos_ihat]
    # ihat was the earliest of columns [0, lim), which holds [0, above), and no
    # two times in a row are equal, so every column before above arrives later
    hired[fall] = times[fall, :above].argmin(axis=1) if above else -1

    switched = np.isfinite(t_switch) & ~pred_hire
    return hired, switched


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
    so the streams are read as the scalar replay reads them.  Hires are
    resolved on column prefixes and mapped back through ``order``.  Trials
    run in row blocks of ``ROW_ELEMENTS // n`` rows (at least one).
    """
    beta = params.require_beta() if check_model(model) == COSP else None

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
    per_round = n - 1 if beta is not None else n

    seeds = trial_seeds_vector(base_seed, start, count)
    hired = np.empty(count, dtype=np.int64)
    switched = np.empty(count, dtype=bool)
    rows = max(1, ROW_ELEMENTS // n)
    # every block draws into one buffer: block-sized arrays allocated for
    # each block are handed back to the system and faulted in again
    buf = np.empty((min(rows, count), n))
    for lo in range(0, count, rows):
        block = slice(lo, lo + rows)
        out = buf[: min(rows, count - lo)]
        times, used = _block_times(seeds[block], col_draw, per_round, pos_ihat, beta, out)
        # the hire gate's uniform is the draw after the last time draw
        u_gate = uniforms_at(seeds[block], used + np.uint64(1))
        hired[block], switched[block] = _resolve_block(
            times, u_gate, gstart, mistake_cols, pos_ihat, params
        )

    hired = np.where(hired >= 0, order[hired], -1)
    ratios = np.where(hired >= 0, v[hired] / vstar, 0.0)
    return BatchResult(hired=hired, ratios=ratios, switched=switched)
