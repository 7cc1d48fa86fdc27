"""Search the policy parameters on a grid and compare with the published ones.

The certified worst-case bound is maximized over (tau, beta, gamma, delta)
for chosen order and (tau, gamma, delta) for random order; the switching
threshold theta never needs to be searched because only the no-mistake
floor (1-theta)/(1+theta) depends on it, and the largest theta meeting the
bound is (1-B)/(1+B).
"""

from secpred import GridSpec, grid_search

print("chosen order, step-0.05 grid over [0.05, 0.95] (beta > tau):")
params, bound = grid_search("cosp", GridSpec.coarse("cosp", step=0.05))
print(f"  winner: tau={params.tau} beta={params.beta} gamma={params.gamma} "
      f"delta={params.delta} theta={params.theta:.4f}")
print(f"  certified bound: {bound:.6f}   (published: 0.262 at "
      f"tau=0.37 beta=0.64 gamma=0.27 delta=0.46 theta=0.58)")

print("\nrandom order, step-0.05 grid:")
params, bound = grid_search("rosp", GridSpec.coarse("rosp", step=0.05))
print(f"  winner: tau={params.tau} gamma={params.gamma} delta={params.delta} "
      f"theta={params.theta:.4f}")
print(f"  certified bound: {bound:.6f}   (published: 0.221 at "
      f"tau=0.33 gamma=0.34 delta=0.66 theta=0.63)")

print("\nsearching only the published cell reproduces the theorem bounds:")
from secpred import THEOREM_COSP_PARAMS, THEOREM_ROSP_PARAMS

for model, published in (("cosp", THEOREM_COSP_PARAMS), ("rosp", THEOREM_ROSP_PARAMS)):
    params, bound = grid_search(model, GridSpec.single(published), search_thresholds=(20, 20))
    print(f"  {model}: certified {bound:.6f} with analytic theta = {params.theta:.5f}")
