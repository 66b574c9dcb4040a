"""Inspect the actor-critic network on one search state.

Shows the feature rows the policy sees, the swap-pair probability matrix
with its zeroed diagonal, action sampling, and the value estimate; then
verifies a few structural properties (row sums, length flexibility,
parameter count).
"""
import numpy as np

from swapsched import policynet as pn
from swapsched.bench import GeneratorConfig, generate_instance
from swapsched.schedcore import ObjectiveConfig, edd_sort, state_features

np.set_printoptions(precision=3, suppress=True)

obj = ObjectiveConfig()
inst = generate_instance(GeneratorConfig(n_jobs=6, n_stations=3, seed=7, count=1), 0)
perm = edd_sort(inst)
fm = state_features(inst, perm, obj, t=0, T=10)
print("feature rows (N x (2W+2)):", fm.per_job.shape, " progress:", fm.general)

cfg = pn.NetConfig(d_in=fm.per_job.shape[1], d_h=32, n_heads=2, n_layers=2, d_ff=64)
params = pn.init_params(cfg, seed=0)
print("trainable parameters:", pn.flat_buffer(params).size)

out = pn.forward(params, cfg, fm.per_job, fm.general)
print("\npair probability matrix P (diagonal is exactly zero):")
print(out.prob_matrix)
print("sum(P) =", out.prob_matrix.sum(), "  value estimate v =", round(out.value, 4))

rng = np.random.default_rng(0)
for _ in range(3):
    action, logp = pn.sample_action(out, rng)
    print(f"sampled swap {action}  log-prob {logp:.3f}")
action, _ = pn.sample_action(out, rng, greedy=True)
print("greedy swap:", action)

# the same parameters evaluate on any permutation length
for n in (2, 10, 40):
    x = np.random.default_rng(1).random((n, cfg.d_in)).astype(np.float32)
    o = pn.forward(params, cfg, x, 0.5)
    print(f"N={n:3d}: P shape {o.prob_matrix.shape}, sum {o.prob_matrix.sum():.6f}")

# reference-scale parameter count (W=12 -> 26 input features)
big = pn.NetConfig(d_in=26)
print("\nreference config parameter count:", pn.flat_buffer(pn.init_params(big, seed=0)).size)
