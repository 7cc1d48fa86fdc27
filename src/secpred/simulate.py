"""Monte Carlo estimation of the achieved competitive ratio, plus generators
for the adversarial instance families used in the analysis.

Trials are independent and reproducible: trial i derives its stream from a
64-bit mix of (seed, i), and aggregation sums fixed-size chunks in index
order.  The batch engine works through each chunk in row blocks of about
2^18 draws of the arrival times a row's hire depends on, one block after
another, into two buffers that take 4 MiB below n = 2^18, whatever the
trial count is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BLOCK_ELEMENTS,
    Instance,
    PolicyParams,
    build_instance,
    case_profile,
    check_integer,
    check_model,
    check_seed,
)
from .policy import run_trials_batch

__all__ = [
    "SimResult",
    "estimate_ratio",
    "gen_underestimated_best",
    "gen_overestimated_top",
    "gen_case_family",
    "sim_csv_header",
    "sim_csv_row",
]

# Trials per chunk.  numpy sums each chunk's ratios on their own and
# math.fsum adds the chunk sums, so the chunk size fixes how the sums are
# rounded, and with it every bit of the result.
CHUNK = 1 << 16
# More trials are refused before the chunk list is built: 10^9 trials are
# 15 259 chunks, hours of work on one core.
MAX_TRIALS = 10**9


@dataclass(frozen=True)
class SimResult:
    trials: int
    mean_ratio: float
    std_error: float
    hire_rate: float
    mode_switch_rate: float


def _chunk_sums(instance, model, params, seed, start, count):
    """Sums over trials [start, start + count) of one run."""
    res = run_trials_batch(instance, model, params, seed, start, count)
    return (
        float(np.sum(res.ratios)),
        float(np.sum(res.ratios * res.ratios)),
        int(np.count_nonzero(res.hired >= 0)),
        int(np.count_nonzero(res.switched)),
    )


def estimate_ratio(
    instance: Instance,
    model: str,
    params: PolicyParams,
    trials: int,
    seed: int,
) -> SimResult:
    """Empirical E[hired value] / v* over independent schedule+trial pairs.

    ``seed`` must lie in [0, 2**64), the seeds a stream can hold.
    """
    check_model(model)
    trials = check_integer("trials", trials, 1, MAX_TRIALS)
    seed = check_seed("seed", seed)
    parts = [
        _chunk_sums(instance, model, params, seed, s, min(CHUNK, trials - s))
        for s in range(0, trials, CHUNK)
    ]

    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    hires = sum(p[2] for p in parts)
    switches = sum(p[3] for p in parts)

    mean = total / trials
    if trials > 1:
        var = max(0.0, (total_sq - total * total / trials) / (trials - 1))
    else:
        var = 0.0
    return SimResult(
        trials=trials,
        mean_ratio=mean,
        std_error=math.sqrt(var / trials),
        hire_rate=hires / trials,
        mode_switch_rate=switches / trials,
    )


# ---------------------------------------------------------------------------
# adversarial instance families (all normalized to v* = 1)
# ---------------------------------------------------------------------------

def default_deviation(theta: float) -> float:
    return min(2.0 * theta, 0.99)


# 0.9**j underflows to zero near j = 7050, so from this index on the fillers
# fall linearly from the last geometric one instead
_FILLER_GEOMETRIC_MAX = 6000


def _fillers(count: int, below: float) -> list[float]:
    # count distinct positive values decreasing from below / 2
    last = _FILLER_GEOMETRIC_MAX
    return [
        below * 0.5 * 0.9 ** min(j, last) * (1 - max(0, j - last) / count)
        for j in range(count)
    ]


def gen_underestimated_best(n: int, deviation: float, theta: float) -> Instance:
    """Exact predictions everywhere except the true best, which is
    underestimated past the switching threshold."""
    n = check_integer("n", n, 2, BLOCK_ELEMENTS)
    if not deviation > theta:
        raise ValueError(f"deviation {deviation} must exceed theta {theta}")
    runner_up = max(0.9, 1.0 - deviation + 0.01)
    values = [runner_up] + _fillers(n - 2, runner_up) + [1.0]
    preds = list(values)
    preds[-1] = (1.0 - deviation) * 1.0
    inst = build_instance(values, preds)
    _expect(inst, theta, m=1, k=1, m2=0, ihat_in_m=False, istar_in_m=True)
    return inst


def gen_overestimated_top(n: int, deviation: float, theta: float) -> Instance:
    """Exact predictions everywhere except a runner-up overestimated into the
    top predicted slot."""
    n = check_integer("n", n, 2, BLOCK_ELEMENTS)
    if not deviation > theta:
        raise ValueError(f"deviation {deviation} must exceed theta {theta}")
    v_hat = min(0.98, max(0.9, 1.001 / (1.0 + deviation)))
    values = [v_hat, 1.0] + _fillers(n - 2, v_hat)
    preds = list(values)
    preds[0] = (1.0 + deviation) * v_hat
    inst = build_instance(values, preds)
    _expect(inst, theta, m=1, k=1, m2=0, ihat_in_m=True, istar_in_m=False)
    return inst


def _expect(inst, theta, m, k, m2, ihat_in_m, istar_in_m):
    prof = case_profile(inst, theta)
    ok = (
        (prof.m, prof.k, prof.m2) == (m, k, m2)
        and (inst.deviations[inst.top_predicted_index] > theta) == ihat_in_m
        and (inst.deviations[inst.top_true_index] > theta) == istar_in_m
    )
    if not ok:
        raise ValueError(
            f"construction mismatch: built {(prof.m, prof.k, prof.m2)}, "
            f"wanted {(m, k, m2)} with ihat_in_m={ihat_in_m} istar_in_m={istar_in_m}"
        )


def gen_case_family(
    case_id: int,
    m: int,
    k: int,
    m2: int,
    n: int,
    theta: float,
    deviation: float | None = None,
) -> Instance:
    """A concrete instance realizing the requested case and structure counts.

    The mistake deviation defaults to min(2 theta, 0.99); non-mistake
    deviations used to order predictions stay at 0.9 theta.
    """
    dev = default_deviation(theta) if deviation is None else deviation
    if not dev > theta:
        raise ValueError(f"deviation {dev} must exceed theta {theta}")
    near = 0.9 * theta
    case_id = check_integer("case_id", case_id, 1, 6)
    m = check_integer("m", m, 1)
    k = check_integer("k", k, 0)
    m2 = check_integer("m2", m2, 0)
    n = check_integer("n", n, m + k + 1, BLOCK_ELEMENTS)  # before _fillers builds a list

    feasible = {
        1: k == 0 and m2 == m - 1,
        2: k == 0 and m2 == m,
        3: m >= 2 and k >= 1 and m2 <= m - 2 and 1 <= m - 1 - m2 <= k,
        4: k >= 1 and m2 <= m - 1 and m - 1 - m2 <= k - 1,
        5: k >= 1 and m2 <= m - 1 and 1 <= m - m2 <= k,
        6: k >= 1 and m2 <= m and m - m2 <= k - 1,
    }
    if not feasible[case_id]:
        raise ValueError(f"case {case_id} cannot realize profile {(m, k, m2)}")

    under = lambda v: (1.0 - dev) * v
    below_mistakes = list(np.linspace(0.4, 0.6, m2)) if m2 else []

    if case_id in (1, 2):
        extra = m - 1 if case_id == 1 else m
        lows = list(np.linspace(0.4, 0.6, extra)) if extra else []
        values = [1.0] + lows + _fillers(n - 1 - extra, 0.35)
        preds = list(values)
        if case_id == 1:
            preds[0] = (1.0 + dev) * 1.0
        for j in range(extra):
            preds[1 + j] = under(values[1 + j])
        inst = build_instance(values, preds)
        _expect(inst, theta, m, 0, m2, ihat_in_m=(case_id == 1), istar_in_m=(case_id == 1))
        return inst

    ihat_mistake = case_id in (3, 4)
    istar_mistake = case_id in (3, 5)
    n_above_mist = (m - m2 - 1 if ihat_mistake else m - m2) - (1 if istar_mistake else 0)
    n_above_exact = k - 1 - n_above_mist

    if ihat_mistake:
        v_hat = min(0.98, max(0.95, 1.001 / (1.0 + dev)))
        p_hat = (1.0 + dev) * v_hat
    elif case_id == 5:
        v_hat = min(0.98, max(0.95, 1.0 - dev + 0.005))
        p_hat = v_hat
    else:  # case 6: mild overestimate keeps it on top of the damped ladder
        v_hat = 0.95
        p_hat = (1.0 + near) * v_hat

    ladder = list(np.linspace(v_hat + 0.005, 0.995, k - 1)) if k > 1 else []
    above_mist, above_exact = ladder[:n_above_mist], ladder[n_above_mist:]

    values = [v_hat, 1.0] + above_mist + above_exact + below_mistakes
    values += _fillers(n - len(values), 0.35)

    preds = [p_hat]
    if istar_mistake:
        preds.append(under(1.0))
    elif case_id == 6:
        preds.append((1.0 - near) * 1.0)
    else:
        preds.append(1.0)
    preds += [under(v) for v in above_mist]
    if case_id in (3, 4):
        preds += list(above_exact)  # exact: still below the inflated top prediction
    else:
        preds += [(1.0 - near) * v for v in above_exact]
    preds += [under(v) for v in below_mistakes]
    preds += values[len(preds):]

    inst = build_instance(values, preds)
    _expect(inst, theta, m, k, m2, ihat_in_m=ihat_mistake, istar_in_m=istar_mistake)
    return inst


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def sim_csv_header() -> str:
    return "model,n,m,k,m2,trials,seed,mean_ratio,std_error,hire_rate,switch_rate"


def sim_csv_row(
    model: str, instance: Instance, theta: float, result: SimResult, seed: int
) -> str:
    prof = case_profile(instance, theta)
    fields = [
        model,
        instance.n,
        prof.m,
        prof.k,
        prof.m2,
        result.trials,
        seed,
        f"{result.mean_ratio:.12g}",
        f"{result.std_error:.12g}",
        f"{result.hire_rate:.12g}",
        f"{result.mode_switch_rate:.12g}",
    ]
    return ",".join(str(f) for f in fields)
