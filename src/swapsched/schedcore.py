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

import json
import logging
import math
from dataclasses import dataclass
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

    def to_dict(self) -> dict:
        return {"f1": self.f1, "f2": self.f2, "delta_f1": self.delta_f1,
                "delta_f2": self.delta_f2, "fc": self.fc}


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-job feature rows plus the scalar progress feature ``t / T``."""

    per_job: np.ndarray  # (N, 2W + 2); (B, N, 2W + 2) from ObjectiveTables.state_features
    general: float


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


def check_permutation(perm, n: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    if not is_permutation(perm, n):
        raise ValueError(f"not a valid permutation of {n} jobs: {perm!r}")
    return perm


# ---------------------------------------------------------------------------
# objectives


def completion_time(inst: Instance, pos: int) -> float:
    """Completion time of the job at 0-based position ``pos``.

    Positional only: on a paced line every job spends exactly one window per
    station, so which job occupies the position does not matter.
    """
    if not 0 <= pos < inst.n_jobs:
        raise ValueError(f"position {pos} out of range [0, {inst.n_jobs})")
    return inst.station_time * (inst.n_stations + pos)


def completion_times(inst: Instance) -> np.ndarray:
    """All N completion times as a float64 vector."""
    return inst.station_time * (inst.n_stations + np.arange(inst.n_jobs, dtype=np.float64))


def tardiness(inst: Instance, perm, pos: int) -> float:
    """Signed tardiness of the job at position ``pos``; negative means early."""
    perm = check_permutation(perm, inst.n_jobs)
    return completion_time(inst, pos) - inst.due[perm[pos]]


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


def weighted_tardiness(inst: Instance, perm, pos: int, cfg: ObjectiveConfig) -> float:
    return float(weighted_tardiness_values(inst, perm, cfg)[pos])


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

    :meth:`fc` is the one scorer of swap-search states (env steps, inference
    lanes, SA): it sums in ``objective_f1``/``objective_f2`` order, so each row
    is bitwise :func:`combined_objective`'s fc. :meth:`evaluate`, the oracle's
    block kernel, sums f2 over ``dist`` gathers instead: several times faster
    on large blocks and exactly 0 for the reference, but ulps off
    ``objective_f2``. ``combined_objective`` stays the independent
    reference implementation. :meth:`state_features` builds the network input
    of search states from the same ``gt`` table.
    """

    def __init__(self, inst: Instance, cfg: ObjectiveConfig, ref_perm=None):
        ref = check_permutation(edd_sort(inst) if ref_perm is None else ref_perm, inst.n_jobs)
        self.alpha1, self.alpha2 = cfg.alpha1, cfg.alpha2
        self.ref = ref.copy()
        self.ref.flags.writeable = False  # the reference values below rest on it
        self._inst = inst
        self.gt = _weighted_tardiness_from_raw(
            completion_times(inst)[:, None] - inst.due[None, :], cfg)
        self.dist = np.abs(inst.proc[:, None, :] - inst.proc[None, :, :]).sum(axis=2)
        self._pos = np.arange(inst.n_jobs)
        self.f1_ref = float(self.gt[self._pos, ref].sum())
        self.f2_ref = float(self.dist[ref[:-1], ref[1:]].sum())
        self._f2_ref_seq = sequence_f2(inst.proc[ref])  # objective_f2's bits
        self._gt_rows = self._dist_rows = None  # see _rows

    def _rows(self) -> tuple[list, list]:
        # nested lists for the swap deltas (scalar indexing is several times
        # cheaper than numpy's), built on first use: the scorers never need
        # them. Plain attributes keep the loads faster than a cached property.
        self._gt_rows, self._dist_rows = self.gt.tolist(), self.dist.tolist()
        return self._gt_rows, self._dist_rows

    def f1_swap_delta(self, perm, i: int, k: int) -> float:
        """f1 after swapping positions i and k minus f1 before."""
        a, b = perm[i], perm[k]
        gt_rows = self._gt_rows or self._rows()[0]
        gi, gk = gt_rows[i], gt_rows[k]
        return (gi[b] + gk[a]) - (gi[a] + gk[b])

    def f2_swap_delta(self, perm, i: int, k: int) -> float:
        """f2 after swapping positions i and k minus f2 before.

        Only the adjacencies of the outer neighbours change; the adjacency
        between two neighbouring swapped jobs keeps its (symmetric) distance.
        """
        if i > k:
            i, k = k, i
        a, b = perm[i], perm[k]
        dist_rows = self._dist_rows or self._rows()[1]
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
        return after - before

    def swap_delta(self, perm, i: int, k: int) -> float:
        """fc after swapping positions i and k minus fc before (reference cancels)."""
        return (-self.alpha1 * self.f1_swap_delta(perm, i, k)
                + self.alpha2 * self.f2_swap_delta(perm, i, k))

    def fc(self, perms):
        """fc of an ``(N,)`` permutation (a float) or a ``(B, N)`` block
        (a ``(B,)`` vector), bitwise ``combined_objective(...).fc`` row by row."""
        perms = np.asarray(perms)
        f1 = self.gt[self._pos, perms].sum(axis=-1)
        f2 = sequence_f2(self._inst.proc[perms])
        return _per_perm(self.alpha1 * (self.f1_ref - f1)
                         + self.alpha2 * (f2 - self._f2_ref_seq))

    def state_features(self, perms, t: int, T: int) -> FeatureMatrix:
        """:func:`state_features` of an ``(N,)`` permutation or, row by row, a
        ``(B, N)`` block, bitwise, with the tardiness column gathered from ``gt``.

        The permutations are not validated: callers check them once (a
        search starts from the checked reference and swaps checked pairs).
        """
        return FeatureMatrix(per_job=_feature_rows(self._inst, perms, self.gt[self._pos, perms]),
                             general=general_feature(t, T))

    def evaluate(self, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(fc, f1, f2)`` vectors for a ``(B, N)`` block of permutations."""
        f1 = self.gt[self._pos, perms].sum(axis=1)
        f2 = self.dist[perms[:, :-1], perms[:, 1:]].sum(axis=1)
        fc = self.alpha1 * (self.f1_ref - f1) + self.alpha2 * (f2 - self.f2_ref)
        return fc, f1, f2


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
    gt = _weighted_tardiness_from_raw(completion_times(inst) - inst.due[perm], cfg)
    return _feature_rows(inst, perm, gt)


def _feature_rows(inst: Instance, perm: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """:func:`job_features` of a valid permutation or ``(B, N)`` block whose
    weighted tardiness column ``gt`` is known; the one place rows are assembled."""
    seq = inst.proc[perm]  # (..., N, W)
    diffs = np.zeros_like(seq)
    diffs[..., :-1, :] = seq[..., :-1, :] - seq[..., 1:, :]
    c_last = completion_time(inst, inst.n_jobs - 1)
    seq = seq / inst.station_time
    diffs = diffs / inst.station_time
    due = inst.due[perm] / c_last
    return np.concatenate([seq, diffs, due[..., None], gt[..., None]], axis=-1)


def general_feature(t: int, T: int) -> float:
    """Episode progress t / T in [0, 1]."""
    if T < 1 or not 0 <= t <= T:
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
    "check_permutation", "completion_time",
    "completion_times", "tardiness", "weighted_tardiness",
    "weighted_tardiness_values", "objective_f1",
    "objective_f2", "sequence_f2", "combined_objective", "job_features", "general_feature",
    "state_features", "instance_to_dict", "instance_from_dict",
    "save_instance", "load_instance", "edd_sort", "ObjectiveTables",
]
