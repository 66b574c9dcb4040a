"""Classical baselines: due-date sorting, a lookahead heuristic, and SA.

The lookahead heuristic (``sh_schedule``) greedily builds a permutation from
the due-date order, repeatedly picking from a small window of not-yet-scheduled
jobs the one most dissimilar to the last scheduled job. A per-job skip counter
bounds how long a job can be passed over, which bounds its tardiness.

Simulated annealing (``sa_optimize``) maximizes the combined objective via
random swaps under an exponentially cooling temperature, the plain variant
used for step-budget-matched comparisons against the learned policy. Its
random draws are those of ``np.random.default_rng(seed)``, bit for bit, but
computed from raw PCG64 words drawn in bulk (``_RawDraws``), which skips
numpy's per-call overhead: numpy decodes each chunk of words into the swap
pairs drawn from them at once, and Python's integers take over for the rare
word that Lemire's rule rejects. A proposal costs one ``swap_pair`` call and
one ``ObjectiveTables.swap_deltas`` call, and the temperature is computed
only for moves that lower fc. ``sa_accept`` takes any object with a
``.random()`` method, a ``Generator`` included.

Most proposals of a cooled schedule are turned down by ``sa_accept``'s
``-700`` cut, which draws nothing and changes nothing. So between scalar
steps, while no half-word is kept, ``sa_optimize`` screens the undrawn rest
of the current chunk (``_rejected_run``) and commits the leading run of
certain rejections at once: the step, the stream (``_RawDraws.skip``) and
the trace advance together, and the first other proposal takes the scalar
step as before. A screen that commits nothing doubles the scalar steps
before the next one, so hot schedules, where most steps draw, skip it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .schedcore import (Instance, ObjectiveConfig, ObjectiveReport, ObjectiveTables,
                        check_fields, check_permutation, edd_sort)

__all__ = ["edd_sort", "SHConfig", "sh_schedule", "SAConfig", "SAResult",
           "sa_accept", "sa_temperature", "sa_optimize"]


@dataclass(frozen=True)
class SHConfig:
    """Lookahead window size and skip tolerance for ``sh_schedule``."""

    window: int = 4
    max_skip: int = 4

    def __post_init__(self):
        check_fields(self, window=1, max_skip=0)


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
        check_fields(self, steps=0, seed=0)
        if not 0 < self.t_min <= self.t_max:
            raise ValueError(f"need 0 < t_min <= t_max, got t_min={self.t_min!r}, "
                             f"t_max={self.t_max!r}")
        if self.t_min / self.t_max == 0:  # the schedule would divide by zero
            raise ValueError(f"t_min / t_max underflows to 0: t_min={self.t_min!r}, "
                             f"t_max={self.t_max!r}")


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
_LOW_32 = 0xFFFFFFFF


def _pair_decoder(n: int):
    """Decode a chunk of raw words into the swap pairs ``sa_optimize`` draws
    from them, with numpy in one pass.

    For each word: ``i = integers(n)`` from the low half, ``k = integers(n - 1)``
    from the high half, moved past ``i``, and whether Lemire's rule accepts
    both halves. Below three jobs no pair is taken from one word
    (``integers(1)`` draws nothing), so every flag is False.
    """
    if n < 3:
        zeros = np.zeros(_CHUNK, dtype=np.intp)
        no_pairs = (zeros, zeros, zeros.astype(bool))
        return lambda words: no_pairs
    low = np.uint64(_LOW_32)
    r_i, r_k = np.uint64(n), np.uint64(n - 1)
    floor_i, floor_k = np.uint64(_TWO_32 % n), np.uint64(_TWO_32 % (n - 1))

    def decode(words):
        m_i = (words & low) * r_i
        m_k = (words >> np.uint64(32)) * r_k
        i = m_i >> np.uint64(32)
        k = m_k >> np.uint64(32)
        k += k >= i
        ok = ((m_i & low) >= floor_i) & ((m_k & low) >= floor_k)
        return i.astype(np.intp), k.astype(np.intp), ok

    return decode


class _RawDraws:
    """``integers(r)`` and ``random()`` of ``np.random.default_rng(seed)``, bit
    for bit, computed in Python from raw PCG64 words drawn ``_CHUNK`` at a time,
    plus ``sa_optimize``'s swap pairs on ``n`` positions decoded from them in
    bulk.

    They follow numpy's algorithms. A bounded integer below 2**32 takes one
    32-bit half of a word: the low half first, the high half kept for the
    next such draw (``random()`` in between leaves it kept). Lemire's rule
    maps the half ``x`` to ``(x * r) >> 32``, drawing again while
    ``(x * r) mod 2**32 < 2**32 mod r``; a one-value range draws nothing.
    ``random()`` is the top 53 bits of a whole word times 2**-53.

    The stream is one of entries ``(word, i, k, ok)``: each raw word with the
    swap pair :func:`_pair_decoder` makes of it. ``swap_pair`` takes the
    decoded ``(i, k)`` while no half is kept and ``ok`` holds, and draws the
    two scalar ``integers`` from the same word otherwise.
    ``test_raw_draws_match_generator`` and ``test_swap_pairs_match_generator``
    pin all of this to ``Generator``.

    A run of proposals that each take their decoded pair and draw no
    ``random()`` consumes one entry each, so ``sa_optimize`` can commit such
    a run from :meth:`pending` (the undrawn rest of the chunk, as the list
    iterator's length hint counts it) and drop its entries with :meth:`skip`
    (``itertools.islice`` on the chunk's ``zip``), leaving the per-entry path
    a generator's ``__next__`` as before.
    """

    __slots__ = ("_next_entry", "_half", "_n", "_chunk")

    def __init__(self, seed, n: int = 0):
        bit_generator = np.random.default_rng(seed).bit_generator
        decode = _pair_decoder(n)
        chunk = [None]  # the current chunk's entry iterators and decoded arrays

        def entries():
            while True:
                words = bit_generator.random_raw(_CHUNK)
                arrays = decode(words)
                lists = [a.tolist() for a in arrays]
                rest = iter(words.tolist())  # its length hint: the undrawn entries
                chunk[0] = (rest, zip(rest, *lists), arrays, lists)
                yield from chunk[0][1]

        self._next_entry = entries().__next__
        self._half = None  # the kept high half, if any
        self._n = n
        self._chunk = chunk

    def pending(self):
        """``(start, arrays, lists)`` after the first draw: the decoded
        ``(i, k, ok)`` of the current chunk as numpy arrays and as lists, and
        the index of its first undrawn entry (``_CHUNK`` once all are drawn).
        None while a half is kept: the next swap pair draws from it."""
        if self._half is not None:
            return None
        rest, _, arrays, lists = self._chunk[0]
        return _CHUNK - rest.__length_hint__(), arrays, lists

    def skip(self, count: int) -> None:
        """Draw the next ``count`` entries of the current chunk unread: the
        draws of ``count`` proposals that each took their decoded pair.
        ``count`` is at most the number of undrawn entries :meth:`pending` shows."""
        next(itertools.islice(self._chunk[0][1], count, count), None)

    def _next_half(self) -> int:
        x = self._half
        if x is None:
            word = self._next_entry()[0]
            self._half = word >> 32
            return word & _LOW_32
        self._half = None
        return x

    def _bounded(self, x: int, r: int) -> int:
        # Lemire's rule from the half x, drawing further halves on rejection
        while True:
            m = x * r
            low = m & _LOW_32
            # 2**32 mod r < r, so the modulo is only needed when low < r
            if low >= r or low >= _TWO_32 % r:
                return m >> 32
            x = self._next_half()

    def integers(self, r: int) -> int:
        """An integer uniform on ``[0, r)``, as ``Generator.integers(r)``."""
        if r == 1:
            return 0
        if not 1 <= r <= _TWO_32:
            raise ValueError("high <= 0" if r < 1 else f"range {r} exceeds 2**32")
        return self._bounded(self._next_half(), r)

    def swap_pair(self) -> tuple[int, int]:
        """``i = integers(n)`` and then ``k = integers(n - 1)``, moved past
        ``i``: two distinct positions among the ``n`` of the constructor."""
        if self._half is None:
            word, i, k, ok = self._next_entry()
            if ok:
                return i, k
            # the scalar draws, from the low half of this word on
            self._half = word >> 32
            i = self._bounded(word & _LOW_32, self._n)
        else:
            i = self.integers(self._n)
        k = self.integers(self._n - 1)
        return i, k + (k >= i)

    def random(self) -> float:
        """A float uniform on [0, 1), as ``Generator.random()``."""
        return (self._next_entry()[0] >> 11) * 2.0 ** -53


# sa_accept's cut, with a margin for the rounding of pow and of the division
_CERTAIN_CUT = -700.0 * (1 + 1e-9)
_SCAN = 128  # proposals screened one by one before a block screen is likely to pay
_SCREEN_WAIT_MAX = 1024  # scalar steps between screens at most


def _rejected_run(tables: ObjectiveTables, current: list, draws, step: int,
                  cfg: SAConfig, scan: bool) -> int:
    """The number of leading undrawn proposals of ``draws`` (see
    :meth:`_RawDraws.pending`), made from ``current`` at steps ``step``,
    ``step + 1``, ..., that :func:`sa_accept` certainly turns down without a
    draw: the pair came decoded (``ok``) and lowers fc by more than 700 times
    the temperature at ``step``, which is at least the later steps'.

    With ``scan``, the first ``_SCAN`` take the scalar kernel one by one, so
    that a short run costs less than its steps; the rest of the chunk takes
    :meth:`ObjectiveTables.swap_deltas_block` at once.
    """
    start, arrays, (i, k, ok) = draws
    end = min(_CHUNK, start + cfg.steps - step)
    neg_alpha1, alpha2 = -tables.alpha1, tables.alpha2
    limit = _CERTAIN_CUT * sa_temperature(step, cfg)
    swap_deltas = tables.swap_deltas
    scanned = min(end, start + _SCAN) if scan else start
    for at in range(start, scanned):
        if not ok[at]:
            return at - start
        d1, d2 = swap_deltas(current, i[at], k[at])
        if not neg_alpha1 * d1 + alpha2 * d2 < limit:
            return at - start
    if scanned == end:
        return end - start
    i, k, ok = (a[scanned:end] for a in arrays)
    d1, d2 = tables.swap_deltas_block(np.array(current), i, k)
    certain = ok & (neg_alpha1 * d1 + alpha2 * d2 < limit)
    return scanned - start + (ok.size if certain.all() else int(certain.argmin()))


def sa_optimize(inst: Instance, start, cfg: SAConfig, obj_cfg: ObjectiveConfig,
                trace_stride: int = 0) -> SAResult:
    """Swap-based simulated annealing maximizing the combined objective.

    Energy is the negated combined objective relative to ``start``, so the
    Metropolis rule minimizes energy and thereby maximizes fc. Proposals are
    uniform over all unordered position pairs; ``steps`` counts proposals,
    matching the step budgets used when comparing against policy rollouts.
    The best permutation ever visited (including ``start``) is returned, with
    its report from the same tables (bitwise ``combined_objective`` against
    ``start``). With
    ``trace_stride > 0``, every stride-th step is recorded as
    ``(step, fc, accepted)``.
    """
    start = check_permutation(start, inst.n_jobs)
    rng = _RawDraws(cfg.seed, inst.n_jobs)
    swap_pair = rng.swap_pair
    tables = ObjectiveTables(inst, obj_cfg, start)
    swap_deltas = tables.swap_deltas
    # swap_delta's weighing and sa_temperature's schedule, with the
    # constants hoisted: the same bits
    neg_alpha1, alpha2 = -tables.alpha1, tables.alpha2
    steps, t_max = cfg.steps, cfg.t_max
    ratio = cfg.t_min / cfg.t_max

    current = start.tolist()  # validated once; list indexing keeps the loop cheap
    current_fc = tables.fc(start)
    best = start.copy()
    best_fc = current_fc
    trace = []
    accepted_count = 0

    # _CERTAIN_CUT's margin covers pow's rounding where its results and the
    # temperatures are normal numbers
    screen = inst.n_jobs >= 3 and min(ratio, cfg.t_min) >= 2 * sys.float_info.min
    step = run = 0
    wait = 1 if screen else steps  # scalar steps before the next screen
    while step < steps:
        stop = min(step + wait, steps)
        for step in range(step, stop):
            i, k = swap_pair()
            d1, d2 = swap_deltas(current, i, k)
            delta_fc = neg_alpha1 * d1 + alpha2 * d2
            # sa_accept takes every move that does not lower fc; the
            # temperature is computed only for the others
            accepted = delta_fc >= 0 or sa_accept(-delta_fc, t_max * ratio ** (step / steps), rng)
            if accepted:
                current[i], current[k] = current[k], current[i]
                current_fc += delta_fc
                accepted_count += 1
                if current_fc > best_fc:
                    # re-evaluate exactly so accumulated float drift cannot
                    # leak into the reported optimum
                    exact = tables.fc(current)
                    if exact > best_fc:
                        best = np.array(current, dtype=np.int64)
                        best_fc = exact
                    current_fc = exact
            if trace_stride > 0 and step % trace_stride == 0:
                trace.append((step, current_fc, accepted))
        step = stop
        draws = rng.pending() if screen else None
        if draws is None:
            continue
        # a screen after one that committed a long run goes straight to the block
        run = _rejected_run(tables, current, draws, step, cfg, run < _SCAN)
        if run:
            # those steps leave everything but the draws and the trace as is
            rng.skip(run)
            if trace_stride > 0:
                trace.extend((s, current_fc, False)
                             for s in range(step + -step % trace_stride, step + run, trace_stride))
            step += run
        wait = 1 if run else min(2 * wait, _SCREEN_WAIT_MAX)

    return SAResult(best_perm=best,
                    best_report=tables.reports(best[None])[0],
                    trace=trace, accepted=accepted_count, steps=cfg.steps)
