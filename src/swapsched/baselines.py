"""Classical baselines: due-date sorting, a lookahead heuristic, and SA.

The lookahead heuristic (``sh_schedule``) greedily builds a permutation from
the due-date order, repeatedly picking from a small window of not-yet-scheduled
jobs the one most dissimilar to the last scheduled job. A per-job skip counter
bounds how long a job can be passed over, which bounds its tardiness.

Simulated annealing (``sa_optimize``) maximizes the combined objective via
random swaps under an exponentially cooling temperature, the plain variant
used for step-budget-matched comparisons against the learned policy. Its
random draws are those of ``np.random.default_rng(seed)``, bit for bit, but
computed in Python from raw PCG64 words drawn in bulk (``_RawDraws``), which
skips numpy's per-call overhead. ``sa_accept`` takes any object with a
``.random()`` method, a ``Generator`` included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedcore import (Instance, ObjectiveConfig, ObjectiveReport, ObjectiveTables,
                        check_permutation, combined_objective, edd_sort)

__all__ = ["edd_sort", "SHConfig", "sh_schedule", "SAConfig", "SAResult",
           "sa_accept", "sa_temperature", "sa_optimize"]


@dataclass(frozen=True)
class SHConfig:
    """Lookahead window size and skip tolerance for ``sh_schedule``."""

    window: int = 4
    max_skip: int = 4

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.max_skip < 0:
            raise ValueError("max_skip must be >= 0")


def sh_schedule(inst: Instance, cfg: SHConfig) -> np.ndarray:
    """Deterministic greedy construction with lookahead and skip bound.

    Starting from the due-date order, the first job is fixed. Each step looks
    at the next ``window`` unscheduled jobs in due-date order:

    * if any of them has been passed over more than ``max_skip`` times, the
      earliest such job is scheduled (tardiness guard),
    * otherwise the job maximizing the absolute processing-time distance to
      the last scheduled job is taken, earliest due-date position on ties.

    Every other job in the window gets its skip counter incremented.
    """
    order = edd_sort(inst)
    remaining = list(order)
    skips = {int(j): 0 for j in remaining}
    result = [remaining.pop(0)]
    while remaining:
        window = remaining[: cfg.window]
        forced = [j for j in window if skips[int(j)] > cfg.max_skip]
        if forced:
            pick = forced[0]  # earliest due-date position wins
        else:
            last = inst.proc[result[-1]]
            pick = window[0]
            best = -1.0
            for j in window:
                dist = float(np.sum(np.abs(last - inst.proc[j])))
                if dist > best:  # strict: ties keep the earliest position
                    best = dist
                    pick = j
        for j in window:
            if int(j) != int(pick):
                skips[int(j)] += 1
        remaining.remove(pick)
        result.append(pick)
    return np.array(result, dtype=np.int64)


@dataclass(frozen=True)
class SAConfig:
    """Start/end temperatures, proposal budget and seed for ``sa_optimize``.

    The default temperatures are the fitted values reported for the reference
    comparison setup; runs at other scales should state their own.
    """

    t_max: float = 72.0
    t_min: float = 2.2e-61
    steps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.t_min <= self.t_max):
            raise ValueError("need 0 < t_min <= t_max")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


@dataclass(frozen=True)
class SAResult:
    best_perm: np.ndarray
    best_report: ObjectiveReport
    trace: list  # (step, fc, accepted) tuples at the requested stride
    accepted: int
    steps: int


def sa_temperature(step: int, cfg: SAConfig) -> float:
    """Exponential interpolation from t_max to t_min over the step budget."""
    return cfg.t_max * (cfg.t_min / cfg.t_max) ** (step / cfg.steps)


def sa_accept(delta_e: float, temp: float, rng) -> bool:
    """Metropolis rule: always take improvements, worse moves with e^(-dE/T).

    ``rng`` is any object whose ``.random()`` returns a float uniform in
    [0, 1): a ``np.random.Generator`` or ``sa_optimize``'s ``_RawDraws``.
    """
    if delta_e <= 0:
        return True
    arg = -delta_e / temp
    if arg < -700.0:  # exp underflow: acceptance probability is zero
        return False
    return rng.random() < math.exp(arg)


_CHUNK = 512  # raw words per refill: a few kB, never a batch-wide buffer
_TWO_32 = 1 << 32


class _RawDraws:
    """``integers(r)`` and ``random()`` of ``np.random.default_rng(seed)``, bit
    for bit, computed in Python from raw PCG64 words drawn ``_CHUNK`` at a time.

    They follow numpy's algorithms. A bounded integer below 2**32 takes one
    32-bit half of a word: the low half first, the high half kept for the
    next such draw (``random()`` in between leaves it kept). Lemire's rule
    maps the half ``x`` to ``(x * r) >> 32``, drawing again while
    ``(x * r) mod 2**32 < 2**32 mod r``; a one-value range draws nothing.
    ``random()`` is the top 53 bits of a whole word times 2**-53.
    ``test_raw_draws_match_generator`` pins this to ``Generator``.
    """

    __slots__ = ("_next_word", "_half")

    def __init__(self, seed):
        bit_generator = np.random.default_rng(seed).bit_generator

        def words():
            while True:
                yield from bit_generator.random_raw(_CHUNK).tolist()

        self._next_word = words().__next__
        self._half = None  # the kept high half, if any

    def integers(self, r: int) -> int:
        """An integer uniform on ``[0, r)``, as ``Generator.integers(r)``."""
        if r == 1:
            return 0
        if not 1 <= r <= _TWO_32:
            raise ValueError("high <= 0" if r < 1 else f"range {r} exceeds 2**32")
        while True:
            x = self._half
            if x is None:
                word = self._next_word()
                x = word & 0xFFFFFFFF
                self._half = word >> 32
            else:
                self._half = None
            m = x * r
            low = m & 0xFFFFFFFF
            # 2**32 mod r < r, so the modulo is only needed when low < r
            if low >= r or low >= _TWO_32 % r:
                return m >> 32

    def random(self) -> float:
        """A float uniform on [0, 1), as ``Generator.random()``."""
        return (self._next_word() >> 11) * 2.0 ** -53


def sa_optimize(inst: Instance, start, cfg: SAConfig, obj_cfg: ObjectiveConfig,
                trace_stride: int = 0) -> SAResult:
    """Swap-based simulated annealing maximizing the combined objective.

    Energy is the negated combined objective relative to ``start``, so the
    Metropolis rule minimizes energy and thereby maximizes fc. Proposals are
    uniform over all unordered position pairs; ``steps`` counts proposals,
    matching the step budgets used when comparing against policy rollouts.
    The best permutation ever visited (including ``start``) is returned. With
    ``trace_stride > 0``, every stride-th step is recorded as
    ``(step, fc, accepted)``.
    """
    start = check_permutation(start, inst.n_jobs)
    rng = _RawDraws(cfg.seed)
    n = inst.n_jobs
    tables = ObjectiveTables(inst, obj_cfg, start)
    swap_delta = tables.swap_delta

    current = start.tolist()  # validated once; list indexing keeps the loop cheap
    current_fc = tables.fc(start)
    best = start.copy()
    best_fc = current_fc
    trace = []
    accepted_count = 0

    for step in range(cfg.steps):
        i = rng.integers(n)
        k = rng.integers(n - 1)
        if k >= i:
            k += 1
        delta_fc = swap_delta(current, i, k)
        accepted = sa_accept(-delta_fc, sa_temperature(step, cfg), rng)
        if accepted:
            current[i], current[k] = current[k], current[i]
            current_fc += delta_fc
            accepted_count += 1
            if current_fc > best_fc:
                # re-evaluate exactly so accumulated float drift cannot leak
                # into the reported optimum
                exact = tables.fc(current)
                if exact > best_fc:
                    best = np.array(current, dtype=np.int64)
                    best_fc = exact
                current_fc = exact
        if trace_stride > 0 and step % trace_stride == 0:
            trace.append((step, current_fc, accepted))

    return SAResult(best_perm=best,
                    best_report=combined_objective(inst, best, start, obj_cfg),
                    trace=trace, accepted=accepted_count, steps=cfg.steps)
