"""Pairwise local-search operators on permutations.

All operators are pure: they return a fresh array and leave the input alone.
``swap_inplace`` exists for hot loops (simulated annealing) and mutates its
argument. Positions are 0-based.

``f1_swap_delta`` / ``f2_swap_delta`` / ``fc_swap_delta`` evaluate the
objective change of a swap without recomputing the whole objective: a swap
touches two positions of f1 and at most four adjacencies of f2, so with the
lookup tables of :class:`swapsched.schedcore.ObjectiveTables` a delta is
O(1). These functions validate their input and build the tables per call;
loops (simulated annealing) build the tables once and call
``ObjectiveTables.swap_delta`` directly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .schedcore import Instance, ObjectiveConfig, ObjectiveTables, check_permutation


class PairAction(NamedTuple):
    """A swap action: exchange the jobs at positions i and k (0-based)."""

    i: int
    k: int


def _check_pair(n: int, i: int, k: int) -> None:
    if not (0 <= i < n and 0 <= k < n):
        raise ValueError(f"positions ({i}, {k}) out of range for {n} jobs")
    if i == k:
        raise ValueError(f"swap positions must differ, got ({i}, {k})")


def swap(perm, action) -> np.ndarray:
    i, k = action
    out = check_permutation(perm, len(perm)).copy()
    _check_pair(len(out), i, k)
    out[i], out[k] = out[k], out[i]
    return out


def swap_inplace(perm: np.ndarray, i: int, k: int) -> None:
    perm[i], perm[k] = perm[k], perm[i]


def shift(perm, pos: int, direction: str) -> np.ndarray:
    """Move the job at ``pos`` one position forward or backward."""
    n = len(perm)
    if direction == "forward":
        if pos >= n - 1:
            raise ValueError(f"cannot shift position {pos} forward in {n} jobs")
        return swap(perm, (pos, pos + 1))
    if direction == "backward":
        if pos <= 0:
            raise ValueError("cannot shift position 0 backward")
        return swap(perm, (pos, pos - 1))
    raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")


def insert(perm, src: int, dst: int) -> np.ndarray:
    """Remove the job at ``src`` and reinsert it at ``dst``."""
    out = check_permutation(perm, len(perm))
    n = len(out)
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError(f"positions ({src}, {dst}) out of range for {n} jobs")
    if src == dst:
        raise ValueError("insert needs two distinct positions")
    job = out[src]
    rest = np.delete(out, src)
    return np.insert(rest, dst, job)


def _checked_tables(inst: Instance, perm, action, cfg: ObjectiveConfig):
    i, k = action
    perm = check_permutation(perm, inst.n_jobs)
    _check_pair(inst.n_jobs, i, k)
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


__all__ = ["PairAction", "swap", "swap_inplace", "shift", "insert",
           "f1_swap_delta", "f2_swap_delta", "fc_swap_delta"]
