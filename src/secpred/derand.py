"""Deterministic simulation of the randomized policy.

Under random-order arrivals the first arrival time is itself a perfect
randomness source: if t1 is the minimum of n i.i.d. uniforms, then
U = 1 - (1 - t1)^n is uniform on [0, 1] by the probability integral
transform, and its binary expansion supplies unbiased bits.  The
derandomized trial replays the policy with its one probabilistic hire
decision (the top prediction's) driven by the leading bits of U instead of
an external stream.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Instance, PolicyParams, Schedule, check_integer
from .policy import TrialOutcome, run_trial

__all__ = [
    "uniform_from_first_arrival",
    "bits_from_uniform",
    "derandomized_trial",
]

BITS_PER_DECISION = 32


def uniform_from_first_arrival(t1: float | np.ndarray, n: int) -> float | np.ndarray:
    """CDF of the minimum of n uniforms evaluated at t1: 1 - (1 - t1)^n.

    ``t1`` is a float or an array, and the result is a float or an array of
    the same shape.  Evaluated as -expm1(n log1p(-t1)), which keeps full
    relative precision for small t1 where the direct form rounds to 0; at
    t1 = 1 the log is -inf and the result is exactly 1.
    """
    n = check_integer("n", n, 1)
    t = np.asarray(t1, dtype=float)
    bad = ~((0.0 <= t) & (t <= 1.0))  # NaN included
    if bad.any():
        raise ValueError(f"t1={t[bad][0]} outside [0, 1]")
    with np.errstate(divide="ignore"):
        u = -np.expm1(n * np.log1p(-t))
    return float(u) if u.ndim == 0 else u


def bits_from_uniform(u: float, count: int) -> list[int]:
    """First ``count`` bits of the binary expansion of u in [0, 1)."""
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u={u} outside [0, 1)")
    count = check_integer("count", count, 1)
    bits = []
    x = u
    for _ in range(count):
        x *= 2.0
        bit = int(x >= 1.0)
        bits.append(bit)
        x -= bit
    return bits


class _OneDraw:
    """Stream stand-in for run_trial holding the first BITS_PER_DECISION bits
    of U.

    run_trial draws at most one uniform per trial: only the top prediction's
    hire is randomized, and it arrives once.  A double's 52 mantissa bits
    cover that one decision, so a second draw is a bug, not a refill.
    """

    def __init__(self, u: float):
        u = min(u, 1.0 - 2.0**-53)  # U = 1.0 only at the measure-zero t1 = 1
        self._value = math.floor(u * 2.0**BITS_PER_DECISION) / 2.0**BITS_PER_DECISION
        self._drawn = False

    def uniform(self) -> float:
        if self._drawn:
            raise RuntimeError("derandomized trial asked for a second uniform")
        self._drawn = True
        return self._value


def derandomized_trial(
    instance: Instance, schedule: Schedule, params: PolicyParams
) -> TrialOutcome:
    """Replay the policy with hire decisions extracted from the first arrival.

    Fully deterministic given (instance, schedule, params).
    """
    if len(schedule.arrival_times) < 1:
        raise ValueError("schedule must contain at least one arrival")
    t1 = min(schedule.arrival_times)
    u = uniform_from_first_arrival(t1, instance.n)
    return run_trial(instance, schedule, params, _OneDraw(u))
