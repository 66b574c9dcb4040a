"""The swap action on permutations and validated swap deltas.

``swap`` is pure: it returns a fresh array and leaves the input alone.
Positions are 0-based.

``f1_swap_delta`` / ``f2_swap_delta`` / ``fc_swap_delta`` evaluate the
objective change of a swap without recomputing the whole objective: a swap
touches two positions of f1 and at most four adjacencies of f2, so with the
lookup tables of :class:`swapsched.schedcore.ObjectiveTables` a delta is
O(1). These functions validate their input and build the full tables on
every call, which costs O(N^2 * W); loops (simulated annealing) build the
tables once and call ``ObjectiveTables.swap_delta`` directly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .schedcore import Instance, ObjectiveConfig, ObjectiveTables, check_permutation


class PairAction(NamedTuple):
    """A swap action: exchange the jobs at positions i and k (0-based)."""

    i: int
    k: int


def check_pair(n: int, i: int, k: int) -> None:
    """Raise ValueError unless (i, k) are two distinct positions among ``n``."""
    if not (0 <= i < n and 0 <= k < n):
        raise ValueError(f"positions ({i}, {k}) out of range for {n} jobs")
    if i == k:
        raise ValueError(f"swap positions must differ, got ({i}, {k})")


def swap(perm, action) -> np.ndarray:
    i, k = action
    out = check_permutation(perm, len(perm)).copy()
    check_pair(len(out), i, k)
    out[i], out[k] = out[k], out[i]
    return out


def _checked_tables(inst: Instance, perm, action, cfg: ObjectiveConfig):
    i, k = action
    perm = check_permutation(perm, inst.n_jobs)
    check_pair(inst.n_jobs, i, k)
    return ObjectiveTables(inst, cfg), perm.tolist(), i, k


def f1_swap_delta(inst: Instance, perm, action, cfg: ObjectiveConfig) -> float:
    """f1(swap(perm, action)) - f1(perm), touching only the two positions."""
    tables, perm, i, k = _checked_tables(inst, perm, action, cfg)
    return tables.f1_swap_delta(perm, i, k)


def f2_swap_delta(inst: Instance, perm, action) -> float:
    """f2(swap(perm, action)) - f2(perm), touching only affected adjacencies."""
    tables, perm, i, k = _checked_tables(inst, perm, action, ObjectiveConfig())
    return tables.f2_swap_delta(perm, i, k)


def fc_swap_delta(inst: Instance, perm, action, cfg: ObjectiveConfig) -> float:
    """Change of the combined objective caused by a swap (reference cancels)."""
    tables, perm, i, k = _checked_tables(inst, perm, action, cfg)
    return tables.swap_delta(perm, i, k)


__all__ = ["PairAction", "check_pair", "swap", "f1_swap_delta", "f2_swap_delta",
           "fc_swap_delta"]
