"""Domain types, objectives and features for the permutation flow shop.

A schedule is a permutation of N jobs on a paced line with W workstations.
Every station offers the same fixed time window ``station_time`` (seconds), so
the completion time of the job at position i depends only on the position:
``C_i = station_time * (W + i)`` with 0-based ``i``.

Two objectives are evaluated relative to a reference permutation (normally the
due-date sort):

* ``f1`` -- sum of exponentially weighted tardiness, to be minimized,
* ``f2`` -- sum over stations of absolute processing-time differences between
  consecutive jobs ("alternation" of long and short operations), maximized.

The combined score is ``fc = alpha1 * (f1(ref) - f1(perm))
+ alpha2 * (f2(perm) - f2(ref))``, which is 0 for the reference itself.
The reference functions take one checked permutation; :class:`ObjectiveTables`
scores and featurizes blocks of them, bitwise equal row by row.

Conventions: positions and job indices are 0-based everywhere in this package;
JSON file formats and log records use 1-based indices and say so.
"""

from __future__ import annotations

import copy
import json
import logging
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

# Arguments of exp() are clamped here to avoid overflow on pathological data.
EXP_CLAMP = 500.0


@dataclass(frozen=True)
class Job:
    """One job: per-workstation processing times (seconds) and a due date."""

    processing_times: tuple[float, ...]
    due_date: float


class Instance:
    """A set of jobs sharing one station time window.

    Processing times are cached as an ``(N, W)`` float64 array ``proc`` and the
    due dates as ``due`` with shape ``(N,)``.
    """

    def __init__(self, jobs, station_time: float, id: str = ""):
        self.jobs = [Job(tuple(float(p) for p in j.processing_times), float(j.due_date))
                     if isinstance(j, Job) else Job(tuple(float(p) for p in j[0]), float(j[1]))
                     for j in jobs]
        self.station_time = float(station_time)
        self.id = str(id)
        widths = {len(j.processing_times) for j in self.jobs}
        if len(widths) == 1:
            self.proc = np.array([j.processing_times for j in self.jobs], dtype=np.float64)
        else:
            # ragged arities are a data error reported by validate_instance;
            # objective evaluation requires a validated instance
            self.proc = None
        self.due = np.array([j.due_date for j in self.jobs], dtype=np.float64)

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def n_stations(self) -> int:
        if self.proc is not None:
            return self.proc.shape[1]
        return len(self.jobs[0].processing_times) if self.jobs else 0

    def __repr__(self):
        return (f"Instance(id={self.id!r}, n_jobs={self.n_jobs}, "
                f"n_stations={self.n_stations}, station_time={self.station_time})")


@dataclass(frozen=True)
class ObjectiveConfig:
    """Weights for the combined objective and the tardiness exponent scale.

    ``tardiness_scale`` (seconds) divides raw tardiness before exponentiation;
    the default of one hour keeps the exponential in a workable range for
    due dates quoted in seconds.
    """

    alpha1: float = 1.0
    alpha2: float = 0.01
    tardiness_scale: float = 3600.0

    def __post_init__(self):
        check_fields(self)
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("objective weights must be non-negative")
        if self.alpha1 == 0 and self.alpha2 == 0:
            raise ValueError("at least one objective weight must be positive")
        if self.tardiness_scale <= 0:
            raise ValueError("tardiness_scale must be positive")


@dataclass(frozen=True)
class ObjectiveReport:
    """Evaluated objectives of a permutation relative to a reference."""

    f1: float
    f2: float
    delta_f1: float
    delta_f2: float
    fc: float


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-job feature rows plus the scalar progress feature ``t / T``."""

    per_job: np.ndarray  # (N, 2W + 2); (B, N, 2W + 2) from ObjectiveTables.state_features
    general: float  # (B,) from a block with one step per row


@dataclass(frozen=True)
class Violation:
    """One instance-invariant violation. Indices are 1-based for reporting."""

    job: int | None
    workstation: int | None
    reason: str


# ---------------------------------------------------------------------------
# validation


def validate_instance(inst: Instance) -> list[Violation]:
    """Check all instance invariants; an empty list means the instance is ok.

    Violations are data, not faults: malformed instances are expected input
    for the loader and the `validate` CLI subcommand.
    """
    out = []
    if inst.n_jobs < 2:
        out.append(Violation(None, None, f"need at least 2 jobs, got {inst.n_jobs}"))
    if inst.n_stations < 1:
        out.append(Violation(None, None, "need at least 1 workstation"))
    if not inst.station_time > 0:
        out.append(Violation(None, None, f"station_time must be positive, got {inst.station_time}"))
    w_ref = inst.n_stations
    for idx, job in enumerate(inst.jobs):
        if len(job.processing_times) != w_ref:
            out.append(Violation(idx + 1, None,
                                 f"wrong arity: {len(job.processing_times)} processing times, expected {w_ref}"))
            continue
        for w, p in enumerate(job.processing_times):
            if not (0 <= p <= inst.station_time):
                out.append(Violation(idx + 1, w + 1,
                                     f"processing time {p} outside [0, {inst.station_time}]"))
        if not job.due_date > 0:
            out.append(Violation(idx + 1, None, f"due date must be positive, got {job.due_date}"))
    return out


def is_permutation(order: np.ndarray, n: int) -> bool:
    order = np.asarray(order)
    return order.shape == (n,) and np.array_equal(np.sort(order), np.arange(n))


class FieldError(TypeError, ValueError):
    """A named value of the wrong type or below its minimum, ``field`` its name;
    a TypeError and a ValueError, as the checks it replaced raised either."""

    def __init__(self, field: str, value, must_be: str):
        super().__init__(f"{field} must be {must_be}, got {value!r}")
        self.field = field


def check_count(name: str, value, minimum: int | None = None) -> None:
    """Raise FieldError naming ``name`` unless ``value`` is an integer (bool,
    float and str are not) of at least ``minimum``, if one is given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        raise FieldError(name, value, "an integer" + ("" if minimum is None else f" >= {minimum}"))


def check_fields(cfg, /, **minimum) -> None:
    """Raise FieldError naming the first field of the dataclass ``cfg`` that its
    annotation does not admit: ``int`` an integer (of at least ``minimum[name]``
    if given), ``float`` a finite real number (an int too, not converted),
    ``bool`` and ``str`` their type; ``X | None`` also None."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        kind, _, optional = f.type.partition(" | ")  # from __future__ import annotations
        if value is None and optional:
            continue
        if kind == "int":
            check_count(f.name, value, minimum.get(f.name))
        elif kind == "bool" and not isinstance(value, bool):
            raise FieldError(f.name, value, "true or false")
        elif kind == "str" and not isinstance(value, str):
            raise FieldError(f.name, value, "a string")
        elif kind == "float" and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise FieldError(f.name, value, "a real number")
        elif kind == "float" and not math.isfinite(value):
            raise FieldError(f.name, value, "finite")


def check_pair(n: int, i, k) -> None:
    """Raise ValueError unless (i, k) are two distinct positions among ``n``;
    for arrays ``i`` and ``k``, unless each ``(i[j], k[j])`` is."""
    if not np.all((0 <= i) & (i < n) & (0 <= k) & (k < n)):
        raise ValueError(f"positions ({i}, {k}) out of range for {n} jobs")
    if np.any(i == k):
        raise ValueError(f"swap positions must differ, got ({i}, {k})")


def check_permutation(perm, n: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    if not is_permutation(perm, n):
        raise ValueError(f"not a valid permutation of {n} jobs: {perm!r}")
    return perm


# ---------------------------------------------------------------------------
# objectives


def completion_times(inst: Instance) -> np.ndarray:
    """All N completion times as a float64 vector.

    Positional only: on a paced line every job spends exactly one window per
    station, so which job occupies a position does not matter.
    """
    return inst.station_time * (inst.n_stations + np.arange(inst.n_jobs, dtype=np.float64))


def _weighted_tardiness_from_raw(raw: np.ndarray, cfg: ObjectiveConfig) -> np.ndarray:
    arg = raw / cfg.tardiness_scale
    clipped = np.clip(arg, -EXP_CLAMP, EXP_CLAMP)
    if np.any(clipped != arg):
        log.warning("tardiness exponent clamped to +/-%g for %d job(s)",
                    EXP_CLAMP, int(np.sum(clipped != arg)))
    return np.exp(clipped)


def weighted_tardiness_values(inst: Instance, perm, cfg: ObjectiveConfig) -> np.ndarray:
    """exp(T_T / scale) for every position of ``perm``, shape ``(N,)``."""
    perm = check_permutation(perm, inst.n_jobs)
    raw = completion_times(inst) - inst.due[perm]
    return _weighted_tardiness_from_raw(raw, cfg)


def _per_perm(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def objective_f1(inst: Instance, perm, cfg: ObjectiveConfig) -> float:
    """Sum of exponentially weighted tardiness over all positions (minimize)."""
    return float(weighted_tardiness_values(inst, perm, cfg).sum())


def objective_f2(inst: Instance, perm) -> float:
    """Sum over stations of |p difference| between consecutive jobs (maximize)."""
    return sequence_f2(inst.proc[check_permutation(perm, inst.n_jobs)])


def sequence_f2(seq):
    """f2 of processing-time rows already in sequence order, ``(..., N, W)``.

    :func:`objective_f2` is this after checking the permutation; each
    ``(N, W)`` block of a stack gets the same bits as it would alone.
    """
    return _per_perm(np.abs(np.diff(seq, axis=-2)).sum(axis=(-2, -1)))


def combined_objective(inst: Instance, perm, ref_perm, cfg: ObjectiveConfig) -> ObjectiveReport:
    """Evaluate f1/f2 of ``perm`` and the weighted improvement over ``ref_perm``."""
    f1 = objective_f1(inst, perm, cfg)
    f2 = objective_f2(inst, perm)
    d1 = objective_f1(inst, ref_perm, cfg) - f1
    d2 = f2 - objective_f2(inst, ref_perm)
    return ObjectiveReport(f1=f1, f2=f2, delta_f1=d1, delta_f2=d2,
                           fc=cfg.alpha1 * d1 + cfg.alpha2 * d2)


class ObjectiveTables:
    """Lookup tables of the objectives for one (instance, config, reference).

    Position alone fixes completion time, so the weighted tardiness of every
    (position, job) pair and the processing-time distance of every job pair
    can be computed once:

    * ``gt[pos, job]`` -- exp(tardiness / scale) of ``job`` at ``pos``,
    * ``dist[a, b]`` -- sum over stations of |p_a - p_b| (symmetric),
    * ``ref`` -- the reference permutation (the due-date sort unless
      ``ref_perm`` is given), with ``f1_ref`` / ``f2_ref`` its objectives.

    A swap delta is then a handful of scalar lookups and a full evaluation is
    fancy indexing. The kernels do not validate their inputs; callers check
    permutations and positions once, outside their loops.

    :meth:`scores` is the one block scorer: it sums in
    ``objective_f1``/``objective_f2`` order, so each row is bitwise
    :func:`combined_objective`'s report. :meth:`fc` (swap-search states: env
    steps, inference lanes, SA) and :meth:`reports` (the inference lanes'
    results) read it, and so do the oracles in :mod:`swapsched.bench`.
    ``combined_objective`` stays the reference: a test oracle no other module calls.
    :meth:`state_features` builds the network input of search states from
    the same ``gt`` table. :meth:`stack` joins several instances' tables, so
    one call scores or featurizes a block whose rows are of different instances.
    """

    def __init__(self, inst: Instance, cfg: ObjectiveConfig, ref_perm=None):
        ref = check_permutation(edd_sort(inst) if ref_perm is None else ref_perm, inst.n_jobs)
        self.alpha1, self.alpha2 = cfg.alpha1, cfg.alpha2
        self.ref = ref.copy()
        self.ref.flags.writeable = False  # the reference values below rest on it
        done = completion_times(inst)
        self.gt = _weighted_tardiness_from_raw(done[:, None] - inst.due[None, :], cfg)
        self.dist = np.abs(inst.proc[:, None, :] - inst.proc[None, :, :]).sum(axis=2)
        self._pos = np.arange(inst.n_jobs)
        self.f1_ref = float(self.gt[self._pos, ref].sum())
        self.f2_ref = sequence_f2(inst.proc[ref])  # objective_f2's bits
        # what the block kernels read, one per table in a stack (see stack)
        self._proc, self._due = inst.proc, inst.due
        self._st, self._c_last = inst.station_time, done[-1]
        self._offset = 0
        self._gt_rows = self._dist_rows = None  # see _rows
        self._dist_pad = None  # see swap_deltas_block

    @classmethod
    def stack(cls, tables: list[ObjectiveTables]) -> ObjectiveTables:
        """Same-N tables under one objective config as one, whose :meth:`scores`,
        :meth:`fc` and :meth:`state_features` treat row r of a ``(len(tables), N)``
        block bit for bit as ``tables[r]`` alone would: table r's jobs are jobs
        ``r*N`` to ``r*N + N - 1`` of the joined tables (``_offset``)."""
        out, n = copy.copy(tables[0]), len(tables[0].ref)
        if any((t.alpha1, t.alpha2, len(t.ref)) != (out.alpha1, out.alpha2, n) for t in tables):
            raise ValueError("stacked tables need one objective config and one job count")
        out._offset = n * np.arange(len(tables))[:, None]
        out.gt = np.concatenate([t.gt for t in tables], axis=1)
        out._proc, out._due = (np.concatenate([getattr(t, a) for t in tables])
                               for a in ("_proc", "_due"))
        out.f1_ref, out.f2_ref, st, c_last = (np.array([getattr(t, a) for t in tables])
                                              for a in ("f1_ref", "f2_ref", "_st", "_c_last"))
        out._st, out._c_last = st[:, None, None], c_last[:, None]
        return out

    def _rows(self) -> tuple[list, list]:
        # nested lists for the swap deltas (scalar indexing is several times
        # cheaper than numpy's), built on first use: the scorers never need
        # them. Plain attributes keep the loads faster than a cached property.
        self._gt_rows, self._dist_rows = self.gt.tolist(), self.dist.tolist()
        return self._gt_rows, self._dist_rows

    def swap_deltas(self, perm, i: int, k: int) -> tuple[float, float]:
        """``(f1 delta, f2 delta)`` of swapping positions i and k: each part
        after the swap minus before. The one kernel of the swap deltas.

        f1 changes at the two positions only; its sum is symmetric in i and
        k. For f2 only the adjacencies of the outer neighbours change; the
        adjacency between two neighbouring swapped jobs keeps its
        (symmetric) distance.
        """
        if i > k:
            i, k = k, i
        a, b = perm[i], perm[k]
        gt_rows, dist_rows = self._gt_rows, self._dist_rows
        if gt_rows is None:
            gt_rows, dist_rows = self._rows()
        gi, gk = gt_rows[i], gt_rows[k]
        before = after = 0.0
        if i > 0:
            row = dist_rows[perm[i - 1]]
            before += row[a]
            after += row[b]
        if k < len(perm) - 1:
            row = dist_rows[perm[k + 1]]
            before += row[b]
            after += row[a]
        if k - i > 1:
            row = dist_rows[perm[i + 1]]
            before += row[a]
            after += row[b]
            row = dist_rows[perm[k - 1]]
            before += row[b]
            after += row[a]
        return (gi[b] + gk[a]) - (gi[a] + gk[b]), after - before

    def swap_deltas_block(self, perm: np.ndarray, i: np.ndarray, k: np.ndarray):
        """:meth:`swap_deltas` of each pair ``(i[j], k[j])`` of two ``(B,)``
        position arrays on one ``(N,)`` permutation array, as two ``(B,)``
        vectors: the same expression in the same order, so bit for bit.

        A term the scalar kernel skips (no outer neighbour, or no inner one
        when the positions are adjacent) reads the zero distance of the
        padding job N here, and adding a zero to a sum of distances (>= 0)
        leaves its bits unchanged.
        """
        n = len(perm)
        if self._dist_pad is None:  # dist, flat, and a padding job N at distance 0
            self._dist_pad = np.zeros((n + 1, n + 1))
            self._dist_pad[:n, :n] = self.dist
            self._dist_pad = self._dist_pad.ravel()
        lo, hi = np.minimum(i, k), np.maximum(i, k)
        a, b = perm[lo], perm[hi]
        gt = self.gt.ravel()
        lo_row, hi_row = lo * n, hi * n
        d1 = (gt[lo_row + b] + gt[hi_row + a]) - (gt[lo_row + a] + gt[hi_row + b])
        padded = np.concatenate(([n], perm, [n]))  # perm[p] at p + 1, job N past either end
        m = n + 1  # the padded row length
        inner = hi - lo > 1
        left, right = padded[lo] * m, padded[hi + 2] * m
        left_in = np.where(inner, padded[lo + 2], n) * m
        right_in = np.where(inner, padded[hi], n) * m
        dist = self._dist_pad
        before = ((dist[left + a] + dist[right + b]) + dist[left_in + a]) + dist[right_in + b]
        after = ((dist[left + b] + dist[right + a]) + dist[left_in + b]) + dist[right_in + a]
        return d1, after - before

    def swap_delta(self, perm, i: int, k: int) -> float:
        """fc after swapping positions i and k minus fc before (reference
        cancels); ``sa_optimize`` weighs :meth:`swap_deltas` the same way."""
        d1, d2 = self.swap_deltas(perm, i, k)
        return -self.alpha1 * d1 + self.alpha2 * d2

    def scores(self, perms):
        """``(f1, f2, delta_f1, delta_f2, fc)`` of an ``(N,)`` permutation
        (scalars) or a ``(B, N)`` block (``(B,)`` vectors), the fields of
        :class:`ObjectiveReport` in order: summed in ``objective_f1`` /
        ``objective_f2`` order and combined as :func:`combined_objective`
        combines them, so each row is its report bit for bit."""
        perms = perms + self._offset
        f1 = self.gt[self._pos, perms].sum(axis=-1)
        f2 = sequence_f2(self._proc[perms])
        d1 = self.f1_ref - f1
        d2 = f2 - self.f2_ref
        return f1, f2, d1, d2, self.alpha1 * d1 + self.alpha2 * d2

    def fc(self, perms):
        """fc of an ``(N,)`` permutation (a float) or a ``(B, N)`` block
        (a ``(B,)`` vector), bitwise ``combined_objective(...).fc`` row by row."""
        return _per_perm(self.scores(np.asarray(perms))[4])

    def reports(self, perms) -> list[ObjectiveReport]:
        """``combined_objective(inst, p, ref, cfg)`` of every row ``p`` of a
        ``(B, N)`` block, equal field for field, from one block evaluation."""
        columns = (values.tolist() for values in self.scores(np.asarray(perms)))
        return [ObjectiveReport(*row) for row in zip(*columns)]

    def state_features(self, perms, t, T: int) -> FeatureMatrix:
        """:func:`state_features` of an ``(N,)`` permutation or, row by row, a
        ``(B, N)`` block, bitwise, with the tardiness column gathered from ``gt``.
        ``t`` is one step for every row or a ``(B,)`` array, one per row.

        The permutations are not validated: callers check them once (a
        search starts from the checked reference and swaps checked pairs).
        """
        perms = perms + self._offset
        return FeatureMatrix(per_job=_feature_rows(self._proc[perms], self._due[perms],
                                                   self.gt[self._pos, perms], self._st,
                                                   self._c_last),
                             general=general_feature(t, T))


# ---------------------------------------------------------------------------
# features


def job_features(inst: Instance, perm, cfg: ObjectiveConfig) -> np.ndarray:
    """Per-job feature rows ``(N, 2W + 2)`` in permutation order.

    Row i holds the W processing times of the job at position i, the W signed
    differences to the next job's processing times (zeros for the last row),
    the due date and the weighted tardiness. Processing times and differences
    are divided by the station time, and due dates by the last completion
    time; the weighted tardiness is already O(1) and passes through unchanged.
    """
    perm = check_permutation(perm, inst.n_jobs)
    done = completion_times(inst)
    gt = _weighted_tardiness_from_raw(done - inst.due[perm], cfg)
    return _feature_rows(inst.proc[perm], inst.due[perm], gt, inst.station_time, done[-1])


def _feature_rows(seq, due, gt, station_time, c_last) -> np.ndarray:
    """:func:`job_features` from the jobs' processing-time rows ``(..., N, W)``,
    due dates and weighted tardiness in sequence order, the station time and
    the last completion; the one place rows are assembled."""
    diffs = np.zeros_like(seq)
    diffs[..., :-1, :] = seq[..., :-1, :] - seq[..., 1:, :]
    seq = seq / station_time
    diffs = diffs / station_time
    return np.concatenate([seq, diffs, (due / c_last)[..., None], gt[..., None]], axis=-1)


def general_feature(t, T: int):
    """Episode progress t / T in [0, 1], of each step of an array ``t`` too."""
    if T < 1 or not np.all((0 <= t) & (t <= T)):
        raise ValueError(f"need 0 <= t <= T and T >= 1, got t={t}, T={T}")
    return t / T


def state_features(inst: Instance, perm, cfg: ObjectiveConfig, t: int, T: int) -> FeatureMatrix:
    """Network input for one search state: normalized rows plus progress."""
    return FeatureMatrix(per_job=job_features(inst, perm, cfg),
                         general=general_feature(t, T))


# ---------------------------------------------------------------------------
# instance files
#
# JSON schema (all indices and units documented in README):
#   {"id": str, "station_time_s": number,
#    "jobs": [{"p_s": [number x W], "due_s": number}, ...]}


def instance_to_dict(inst: Instance) -> dict:
    return {
        "id": inst.id,
        "station_time_s": inst.station_time,
        "jobs": [{"p_s": list(j.processing_times), "due_s": j.due_date} for j in inst.jobs],
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        jobs = [Job(tuple(j["p_s"]), j["due_s"]) for j in data["jobs"]]
        return Instance(jobs, data["station_time_s"], id=data.get("id", ""))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance record: {exc}") from exc


def save_instance(inst: Instance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), sort_keys=True, indent=2) + "\n")


def load_instance(path) -> Instance:
    """Load and validate one instance file; invalid data raises ValueError."""
    data = json.loads(Path(path).read_text())
    inst = instance_from_dict(data)
    violations = validate_instance(inst)
    if violations:
        lines = "; ".join(f"job={v.job} w={v.workstation}: {v.reason}" for v in violations)
        raise ValueError(f"{path}: invalid instance: {lines}")
    return inst


def edd_sort(inst: Instance) -> np.ndarray:
    """Due-date-sorted start permutation; ties keep the original job order.

    This is the reference permutation for the combined objective, and it
    minimizes f1 because completion times depend only on the position.
    """
    return np.argsort(inst.due, kind="stable").astype(np.int64)


__all__ = [
    "EXP_CLAMP", "Job", "Instance", "ObjectiveConfig", "ObjectiveReport",
    "FeatureMatrix", "Violation", "validate_instance", "is_permutation",
    "FieldError", "check_count", "check_fields", "check_pair", "check_permutation",
    "completion_times", "weighted_tardiness_values",
    "objective_f1", "objective_f2", "sequence_f2", "combined_objective", "job_features", "general_feature",
    "state_features", "instance_to_dict", "instance_from_dict",
    "save_instance", "load_instance", "edd_sort", "ObjectiveTables",
]
