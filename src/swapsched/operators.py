"""The validated swap action on permutations and its validated fc delta.

``swap`` is pure: it returns a fresh array and leaves the input alone.
Positions are 0-based; an action is an ``(i, k)`` pair of positions.

``fc_swap_delta`` checks its input and builds the full
:class:`swapsched.schedcore.ObjectiveTables` on every call, which costs
O(N^2 * W); loops (simulated annealing) build the tables once and call
their O(1) ``swap_deltas`` kernel directly.
"""

from __future__ import annotations

import numpy as np

from .schedcore import Instance, ObjectiveConfig, ObjectiveTables, check_pair, check_permutation


def swap(perm, action) -> np.ndarray:
    i, k = action
    out = check_permutation(perm, len(perm)).copy()
    check_pair(len(out), i, k)
    out[i], out[k] = out[k], out[i]
    return out


def fc_swap_delta(inst: Instance, perm, action, cfg: ObjectiveConfig) -> float:
    """Change of the combined objective caused by a swap (reference cancels)."""
    i, k = action
    perm = check_permutation(perm, inst.n_jobs)
    check_pair(inst.n_jobs, i, k)
    return ObjectiveTables(inst, cfg).swap_delta(perm.tolist(), i, k)


__all__ = ["check_pair", "swap", "fc_swap_delta"]
