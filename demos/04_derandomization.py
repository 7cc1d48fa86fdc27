"""Simulating the randomized policy deterministically.

Under random-order arrivals the earliest arrival time t1 has CDF
1 - (1-x)^n, so U = 1 - (1-t1)^n is uniform by the probability integral
transform and its binary expansion is a stream of unbiased bits.  The
derandomized trial feeds those bits into the policy's probabilistic hire
decisions and matches the randomized policy's outcome distribution.
"""

import numpy as np
from scipy.stats import kstest

from secpred import (
    THEOREM_ROSP_PARAMS,
    derandomized_trial,
    gen_underestimated_best,
    make_rosp_schedule,
    run_trial,
    uniform_from_first_arrival,
)
from secpred.rng import TrialStream, trial_seed

print("uniformity of U = 1 - (1 - t1)^n (KS test, 1e5 samples):")
rng = np.random.default_rng(0)
for n in (1, 5, 50):
    t1 = rng.random((100_000, n)).min(axis=1)
    stat, p = kstest(uniform_from_first_arrival(t1, n), "uniform")
    print(f"  n={n:>2}: KS statistic {stat:.5f}, p-value {p:.3f}")

print("\nspot values of the transform:", uniform_from_first_arrival(0.2, 3))

inst = gen_underestimated_best(4, 0.9, THEOREM_ROSP_PARAMS.theta)
n_sched = 50_000
hists = {"derandomized": np.zeros(inst.n + 1), "randomized": np.zeros(inst.n + 1)}
for s in range(n_sched):
    stream = TrialStream(trial_seed(1, s))
    sched = make_rosp_schedule(inst, stream)
    out_d = derandomized_trial(inst, sched, THEOREM_ROSP_PARAMS)
    out_r = run_trial(inst, sched, THEOREM_ROSP_PARAMS, stream)
    hists["derandomized"][out_d.hired_index if out_d.hired_index is not None else -1] += 1
    hists["randomized"][out_r.hired_index if out_r.hired_index is not None else -1] += 1

print(f"\nhire distribution over {n_sched} shared schedules "
      "(last column = no hire):")
for name, h in hists.items():
    print(f"  {name:>13}: " + "  ".join(f"{x / n_sched:.4f}" for x in h))
