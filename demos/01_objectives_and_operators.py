"""Walk through the scheduling objectives and the local-search operators.

Builds a tiny paced-line instance by hand, evaluates tardiness and
alternation objectives, and shows how swap/shift/insert move a permutation
and how the incremental deltas match full recomputation.
"""
import numpy as np

from swapsched import operators
from swapsched.schedcore import (Instance, Job, ObjectiveConfig,
                                 combined_objective, completion_times,
                                 edd_sort, objective_f1, objective_f2)

np.set_printoptions(precision=3, suppress=True)

# Five jobs, two stations, 100-second windows. Processing times vary per
# station; due dates are offsets from the schedule start.
jobs = [
    Job((90.0, 30.0), due_date=260.0),
    Job((35.0, 95.0), due_date=300.0),
    Job((80.0, 75.0), due_date=410.0),
    Job((35.0, 20.0), due_date=520.0),
    Job((95.0, 60.0), due_date=600.0),
]
inst = Instance(jobs, station_time=100.0, id="demo-5x2")
cfg = ObjectiveConfig(alpha1=1.0, alpha2=0.01, tardiness_scale=3600.0)

print(inst)
print("completion times by position:", completion_times(inst))

sigma0 = edd_sort(inst)
print("\ndue-date sort (job indices):", sigma0)
print("f1 (weighted tardiness, minimize):", round(objective_f1(inst, sigma0, cfg), 4))
print("f2 (alternation, maximize):      ", round(objective_f2(inst, sigma0), 1))

# One swap: the combined objective scores the move against sigma0.
swapped = operators.swap(sigma0, (1, 3))
report = combined_objective(inst, swapped, sigma0, cfg)
print("\nafter swap(1, 3):", swapped)
print(f"  delta_f1={report.delta_f1:+.4f}  delta_f2={report.delta_f2:+.1f}  fc={report.fc:+.4f}")

# The O(1) table-lookup deltas agree with recomputing the objectives.
action = (0, 4)
fast = operators.f2_swap_delta(inst, sigma0, action)
full = objective_f2(inst, operators.swap(sigma0, action)) - objective_f2(inst, sigma0)
print(f"\nincremental f2 delta for swap{action}: {fast:+.1f} (full recompute {full:+.1f})")

print("\nshift and insert:")
print("  shift pos 2 forward :", operators.shift(sigma0, 2, "forward"))
print("  insert 0 -> 3       :", operators.insert(sigma0, 0, 3))

# Enumerate every pairwise swap from sigma0 and show the trade-off frontier.
print("\nall single swaps from sigma0 (fc > 0 improves on the due-date sort):")
n = inst.n_jobs
for i in range(n):
    for k in range(i + 1, n):
        rep = combined_objective(inst, operators.swap(sigma0, (i, k)), sigma0, cfg)
        marker = " <-- improvement" if rep.fc > 0 else ""
        print(f"  swap({i},{k}): fc={rep.fc:+.4f}{marker}")
