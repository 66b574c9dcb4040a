"""Synthetic instances, exact oracle, benchmark harness, heatmap export.

The generator replaces a proprietary dataset: processing times are uniform
with a configurable floor fraction of the station time, and due dates are
anchored to the completion times of a hidden random permutation plus slack and
noise, guaranteeing a mix of tight and slack due dates. Every generated file
passes validation and is byte-identical for a fixed seed.

The exact oracle solves a subset dynamic program (Bellman 1962; Held & Karp
1962) over the lookup tables of :class:`swapsched.schedcore.ObjectiveTables`:
position alone fixes completion time, so an objective is a Hamiltonian path
with position-dependent node costs, solved in O(2^N * N^2) for N <= 20. The
brute-force enumeration of all N! permutations stays as its test reference.

The harness runs configured methods over instance splits and aggregates the
evaluation protocol: mean combined objective, mean raw objectives, and the
count of instances where nothing beat the due-date sort. Result files are
deterministic; wall-clock timings go to a separate sidecar because they never
can be.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import inference
from .baselines import SAConfig, SHConfig, sa_optimize, sh_schedule
from .schedcore import (Instance, Job, ObjectiveConfig, ObjectiveTables, check_count,
                        check_permutation, edd_sort, load_instance, save_instance)


@dataclass(frozen=True)
class GeneratorConfig:
    n_jobs: int = 20
    n_stations: int = 12
    station_time_s: float = 208.0
    p_min_frac: float = 0.3
    due_slack_s: float = 1800.0
    due_noise_s: float = 1800.0
    seed: int = 0
    count: int = 1

    def __post_init__(self):
        check_count("n_jobs", self.n_jobs, 2)
        check_count("n_stations", self.n_stations, 1)
        if not 0 <= self.p_min_frac <= 1:
            raise ValueError("p_min_frac must lie in [0, 1]")
        if self.station_time_s <= 0:
            raise ValueError("station_time_s must be positive")
        if self.due_noise_s < 0:
            raise ValueError("due_noise_s must be non-negative")
        check_count("count", self.count, 1)
        check_count("seed", self.seed, 0)


def _config_digest(cfg: GeneratorConfig) -> str:
    return hashlib.sha256(json.dumps(asdict(cfg), sort_keys=True).encode()).hexdigest()


def generate_instance(cfg: GeneratorConfig, index: int) -> Instance:
    """One synthetic instance; deterministic in (seed, index)."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index]))
    n, w, tw = cfg.n_jobs, cfg.n_stations, cfg.station_time_s
    proc = rng.uniform(cfg.p_min_frac * tw, tw, size=(n, w))
    anchor = rng.permutation(n)  # job at position i of the hidden permutation
    completions = tw * (w + np.arange(n, dtype=np.float64))
    due = np.empty(n, dtype=np.float64)
    due[anchor] = completions + cfg.due_slack_s + rng.uniform(-cfg.due_noise_s, cfg.due_noise_s, size=n)
    due = np.maximum(due, 1.0)
    jobs = [Job(tuple(proc[j]), float(due[j])) for j in range(n)]
    return Instance(jobs, tw, id=f"syn-{cfg.seed}-{index:04d}")


def generate_instances(cfg: GeneratorConfig, out_dir) -> dict:
    """Write ``count`` instance files and a manifest; returns the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i in range(cfg.count):
        inst = generate_instance(cfg, i)
        name = f"{inst.id}.json"
        save_instance(inst, out_dir / name)
        files.append(name)
    manifest = {"generator_config": asdict(cfg), "config_digest": _config_digest(cfg),
                "files": files}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def pool_files(dir_or_paths) -> list:
    """The instance files of a pool: explicit paths as given; in a directory, its
    manifest's ``files``, else its ``*.json`` files but the manifest, sorted."""
    if isinstance(dir_or_paths, (list, tuple)):
        return list(dir_or_paths)
    d = Path(dir_or_paths)
    manifest = d / "manifest.json"
    if manifest.exists():
        return [d / n for n in json.loads(manifest.read_text())["files"]]
    return sorted(p for p in d.glob("*.json") if p.name != "manifest.json")


def load_pool(dir_or_paths) -> list[Instance]:
    """Load the instances of :func:`pool_files`, in its order."""
    return [load_instance(p) for p in pool_files(dir_or_paths)]


def pool_digest(insts) -> str:
    """sha256 over the ids, processing times and due dates of loaded instances."""
    h = hashlib.sha256()
    for inst in insts:
        h.update(inst.id.encode())
        h.update(inst.proc.tobytes())
        h.update(inst.due.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# brute force

BRUTE_FORCE_MAX_JOBS = 9
# the oracles' objectives and their columns in ObjectiveTables.scores
OBJECTIVES = {"fc": 4, "f1": 0, "f2": 1}
# permutations per batched evaluation; larger blocks buy little speed and
# raise peak memory
ORACLE_CHUNK = 1024


def brute_force_best(inst: Instance, obj_cfg: ObjectiveConfig, objective: str = "fc"):
    """Exhaustive search over all N! permutations (N <= 9), the test
    reference of :func:`held_karp_best`; no CLI path calls it.

    Maximizes ``fc`` or ``f2``, minimizes ``f1``; ties keep the
    lexicographically smallest permutation. Returns ``(perm, value)`` like
    :func:`held_karp_best`. Permutations are enumerated in lexicographic
    order and scored in blocks of ``ORACLE_CHUNK`` by
    :meth:`ObjectiveTables.scores`; the first optimum of a block is taken,
    and a later block replaces the incumbent only when strictly better.
    """
    n = inst.n_jobs
    if n > BRUTE_FORCE_MAX_JOBS:
        raise ValueError(
            f"brute force refused for N={n} > {BRUTE_FORCE_MAX_JOBS}: "
            f"{n}! permutations; use a heuristic or a smaller instance")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be fc, f1 or f2, got {objective!r}")

    tables = ObjectiveTables(inst, obj_cfg)  # reference: the due-date sort
    column = OBJECTIVES[objective]
    minimize = objective == "f1"
    perms = itertools.permutations(range(n))
    best_perm, best_val = None, None
    while True:
        block = np.fromiter(itertools.chain.from_iterable(itertools.islice(perms, ORACLE_CHUNK)),
                            dtype=np.int64).reshape(-1, n)
        if not len(block):
            return best_perm, best_val
        vals = tables.scores(block)[column]
        j = int(np.argmin(vals) if minimize else np.argmax(vals))
        val = float(vals[j])
        if best_val is None or (val < best_val if minimize else val > best_val):
            best_val = val
            best_perm = block[j].copy()


# ---------------------------------------------------------------------------
# exact oracle

# the dynamic program's table holds 2^N * N float64 values: 168 MB at N=20
ORACLE_MAX_JOBS = 20
# reconstruction keeps a job while its best completion stays within this
# share of |optimum|, which absorbs the last-ulp differences between sums of
# the same value in another order (an f2 path and its reversal)
ORACLE_REL_TOL = 1e-12


def held_karp_best(inst: Instance, obj_cfg: ObjectiveConfig, objective: str = "fc"):
    """Exact optimum by a subset dynamic program (N <= ``ORACLE_MAX_JOBS``).

    Maximizes ``fc`` or ``f2``, minimizes ``f1``; returns ``(perm, value)``
    like :func:`brute_force_best`. Every objective is a sum of node terms
    ``gt[pos, job]`` and edge terms ``dist[prev, job]`` of
    :class:`ObjectiveTables`, so ``best[prev, rest]``, the best score of
    placing the set ``rest`` after job ``prev``, is filled one set size at a
    time from the end of the sequence. Reconstruction then walks forward and
    takes the smallest job whose best completion stays within
    ``ORACLE_REL_TOL`` of the optimum: the lexicographically smallest optimum
    up to rounding. ``value`` is :meth:`ObjectiveTables.scores`' for that
    permutation: bitwise ``combined_objective(...).fc``, ``objective_f1`` or
    ``objective_f2``. Runs in O(2^N * N^2) time and O(2^N * N) memory.
    """
    n = inst.n_jobs
    if n > ORACLE_MAX_JOBS:
        raise ValueError(
            f"oracle refused for N={n} > {ORACLE_MAX_JOBS}: its table needs "
            f"2^N * N float64 values; use a heuristic or a smaller instance")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be fc, f1 or f2, got {objective!r}")

    tables = ObjectiveTables(inst, obj_cfg)  # reference: the due-date sort
    # maximize node_w * f1 + edge_w * f2: fc up to a constant, -f1 or f2
    node_w, edge_w = {"fc": (-tables.alpha1, tables.alpha2),
                      "f1": (-1.0, 0.0), "f2": (0.0, 1.0)}[objective]
    node, edge = node_w * tables.gt, edge_w * tables.dist
    full = (1 << n) - 1
    bits = 1 << np.arange(n)
    sizes = np.zeros(1 << n, dtype=np.int64)  # popcount of each set
    for j in range(n):
        sizes[1 << j:2 << j] = sizes[:1 << j] + 1
    by_size = np.argsort(sizes, kind="stable")  # the sets of size k, ascending
    starts = list(itertools.accumulate((math.comb(n, k) for k in range(n + 1)), initial=0))

    # best[prev, rest] stays -inf until the layer of |rest| is written, after
    # its loop over j: a set without j reads its own -inf entry as "rest
    # minus j" and never wins the max
    best = np.full((n, 1 << n), -np.inf)
    best[:, 0] = 0.0
    for k in range(1, n):  # |rest| = k: the job placed first sits at n - k
        layer = by_size[starts[k]:starts[k + 1]]
        acc = np.full((n, len(layer)), -np.inf)
        tmp = np.empty_like(acc)
        for j in range(n):
            head = node[n - k, j] + best[j, (full ^ (1 << j)) & layer]
            np.add(edge[:, j, None], head, out=tmp)
            np.maximum(acc, tmp, out=acc)
        best[:, layer] = acc

    # the same float operations as the layers, so the best candidate of each
    # step reproduces its target exactly and loses no slack
    perm = []
    rest = full
    target = slack = None
    for pos in range(n):
        jobs = np.flatnonzero(rest & bits)
        cand = node[pos, jobs] + best[jobs, rest - bits[jobs]]
        if perm:
            cand = cand + edge[perm[-1], jobs]
        else:
            target = cand.max()
            slack = ORACLE_REL_TOL * abs(target)
        loss = target - cand
        i = int(np.argmax(loss <= slack))
        slack -= loss[i]
        perm.append(int(jobs[i]))
        rest ^= 1 << perm[-1]
        target = best[perm[-1], rest]
    perm = np.array(perm, dtype=np.int64)
    return perm, float(tables.scores(perm)[OBJECTIVES[objective]])


# ---------------------------------------------------------------------------
# benchmark harness

TABLE_COLUMNS = ["method", "split", "fc", "f1", "f2", "no_impr", "steps"]


@dataclass
class BenchmarkRow:
    method: str
    split: str
    fc: float | None
    f1: float | None
    f2: float | None
    no_impr: int | None
    steps: int | None
    skipped: bool = False


def method_name(m: dict) -> str:
    if "name" in m:
        return m["name"]
    t = m["type"]
    if t == "sa":
        return f"SA-{m['steps']}"
    if t == "sh":
        return f"SH-n{m['window']}ms{m['max_skip']}"
    if t == "rl_mr":
        return "RL-MR"
    if t == "rl_mpmr":
        return "RL-MPMR"
    if t == "random_mr":
        return "RAND-MR"
    return t.upper()


def _instance_seed(base_seed: int, split_idx: int, inst_idx: int) -> int:
    # one stream per (split, instance), shared by every method so that the
    # multipolicy-vs-multirun superset guarantee holds inside the harness too
    return int(np.random.SeedSequence([base_seed, split_idx, inst_idx]).generate_state(1)[0])


def _run_method_on_instance(method: dict, inst: Instance, obj_cfg: ObjectiveConfig,
                            seed: int, multiruns: dict, digests: dict, held: dict):
    """Returns (best_perm, report, steps) of a method resolved by
    :func:`_resolve_methods`, run with ``seed``. RL-MR and RL-MPMR run
    :func:`inference.multipolicy` over their checkpoint sets with its dicts:
    ``multiruns`` the RL multiruns on ``inst``, ``digests`` the checkpoint
    hashes already made and ``held`` the method's policy slot."""
    t = method["type"]
    sigma0 = edd_sort(inst)
    if t in ("identity", "sh"):
        perm = sigma0 if t == "identity" else sh_schedule(inst, method["_cfg"])
        return perm, ObjectiveTables(inst, obj_cfg).reports(perm[None])[0], 0
    if t == "sa":
        cfg = replace(method["_cfg"], seed=seed)
        stride = method.get("trace_stride", 0)
        res = sa_optimize(inst, sigma0, cfg, obj_cfg, trace_stride=stride)
        if stride and method.get("_trace_dir"):
            name = f"sa_trace_{method_name(method)}_{inst.id}.jsonl"
            with open(Path(method["_trace_dir"]) / name, "w") as fh:
                for step, fc, accepted in res.trace:
                    fh.write(json.dumps({"step": step, "fc": fc,
                                         "accepted": accepted}) + "\n")
        return res.best_perm, res.best_report, cfg.steps
    # rl_mr, rl_mpmr or random_mr: _resolve_methods admits no other type
    icfg = replace(method["_cfg"], seed=seed)
    name = method_name(method)
    if t in ("rl_mr", "rl_mpmr"):
        res = inference.multipolicy(inst, method["_checkpoints"], icfg, obj_cfg, strategy_name=name,
                                    multiruns=multiruns, digests=digests, held=held)
    else:  # uniform pair distribution
        res = inference.multirun(inst, None, None, icfg, obj_cfg, strategy_name=name)
    return res.best_perm, res.best_report, res.steps


# the fields a method of each type cannot run without
_METHOD_FIELDS = {"identity": (), "sh": ("window", "max_skip"), "sa": ("steps",),
                  "random_mr": (), "rl_mr": ("checkpoint",), "rl_mpmr": ()}


def _method_config(m: dict):
    """The config a method runs with, at seed 0 (each instance replaces the
    seed); None for the due-date sort, which has none."""
    t = m["type"]
    if t == "identity":
        return None
    if t == "sh":
        return SHConfig(window=m["window"], max_skip=m["max_skip"])
    if t == "sa":
        check_count("trace_stride", m.get("trace_stride", 0), 0)
        return SAConfig(t_max=m.get("t_max", 72.0), t_min=m.get("t_min", 2.2e-61),
                        steps=m["steps"])
    return inference.InferenceConfig(runs_per_policy=m.get("runs_per_policy", 30),
                                     step_budget=m.get("step_budget", 10))


def _resolve_methods(methods: list[dict]) -> list[dict]:
    """Reject malformed methods, build their configs, read the RL methods'
    checkpoint sets (RL-MR's is its one checkpoint) and flag methods missing
    their files."""
    out = []
    for number, m in enumerate(methods, 1):
        m = dict(m)
        t = m.get("type")
        if t not in _METHOD_FIELDS:
            raise ValueError(f"bench method {number}: unknown type {t!r} "
                             f"(use one of {', '.join(_METHOD_FIELDS)})")
        absent = [f for f in _METHOD_FIELDS[t] if f not in m]
        if absent:
            raise ValueError(f"bench method {number} ({t}) is missing field(s): "
                             f"{', '.join(absent)}")
        try:
            m["_cfg"] = _method_config(m)
        except (TypeError, ValueError) as exc:  # a string where a number belongs
            raise ValueError(f"bench method {number} ({t}): {exc}") from exc
        m["_skip"] = False
        if t in ("rl_mr", "rl_mpmr"):
            files = ([m["checkpoint"]] if t == "rl_mr"
                     else inference.checkpoint_files(m, f"bench method {number} ({t})"))
            m["_checkpoints"] = files
            m["_skip"] = not files or not all(Path(p).exists() for p in files)
        out.append(m)
    return out


def run_benchmark(splits: dict, methods: list[dict], obj_cfg: ObjectiveConfig,
                  seed: int, out_dir) -> list[BenchmarkRow]:
    """Run every method on every split; write table, JSONL, and timings.

    ``splits`` maps split name to a list of instances. A malformed method or
    a ``seed`` other than an integer >= 0 raises ValueError before any output
    is written; methods missing their checkpoint files are kept as warning
    rows with empty metrics. Every method gets the same seed per instance, so
    a checkpoint's multirun is the same in RL-MR and RL-MPMR: each is run
    once per instance and shared for the duration of the call, as is each
    checkpoint file's sha256. Outputs:
    ``results.jsonl`` (one record per method x instance), ``table.csv`` and
    ``table.txt`` (deterministic), ``timings.csv`` (wall-clock sidecar,
    reported but never asserted on).
    """
    check_count("seed", seed, 0)
    methods = _resolve_methods(methods)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for m in methods:
        if m["type"] == "sa" and m.get("trace_stride"):
            m["_trace_dir"] = str(out_dir)
    rows: list[BenchmarkRow] = []
    timings = []
    multiruns = {}  # (split index, instance index) -> that instance's RL multiruns
    digests = {}  # checkpoint path -> sha256 of the file
    with open(out_dir / "results.jsonl", "w") as jl:
        for m in methods:
            name = method_name(m)
            if m["_skip"]:
                print(f"warning: skipping {name}: checkpoint file(s) missing", file=sys.stderr)
                for split_idx, split in enumerate(sorted(splits)):
                    rows.append(BenchmarkRow(name, split, None, None, None, None, None, skipped=True))
                continue
            held = {}  # the policy this method read last, kept across instances
            for split_idx, split in enumerate(sorted(splits)):
                insts = splits[split]
                fcs, f1s, f2s, steps_used = [], [], [], 0
                t0 = time.perf_counter()
                for inst_idx, inst in enumerate(insts):
                    iseed = _instance_seed(seed, split_idx, inst_idx)
                    perm, report, steps_used = _run_method_on_instance(
                        m, inst, obj_cfg, iseed,
                        multiruns.setdefault((split_idx, inst_idx), {}), digests, held)
                    fcs.append(report.fc)
                    f1s.append(report.f1)
                    f2s.append(report.f2)
                    jl.write(json.dumps({
                        "method": name, "split": split, "instance_id": inst.id,
                        "fc": report.fc, "f1": report.f1, "f2": report.f2,
                        "improved": report.fc > 0, "steps": steps_used,
                        "best_permutation_1based": [int(j) + 1 for j in perm],
                    }, sort_keys=True) + "\n")
                wall_ms = (time.perf_counter() - t0) * 1000.0
                rows.append(BenchmarkRow(
                    name, split, float(np.mean(fcs)), float(np.mean(f1s)),
                    float(np.mean(f2s)), int(sum(fc <= 0 for fc in fcs)), steps_used))
                timings.append((name, split, wall_ms))

    _write_table(rows, out_dir / "table.csv", out_dir / "table.txt")
    with open(out_dir / "timings.csv", "w") as fh:
        fh.write("method,split,wall_ms\n")
        for name, split, ms in timings:
            fh.write(f"{name},{split},{ms:.3f}\n")
    return rows


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_table(rows: list[BenchmarkRow], csv_path, txt_path) -> None:
    with open(csv_path, "w") as fh:
        fh.write(",".join(TABLE_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(_cell(getattr(r, c)) for c in TABLE_COLUMNS) + "\n")

    def disp(r, c):
        v = getattr(r, c)
        if v is None:
            return "skipped" if c == "fc" else "-"
        if isinstance(v, float):
            return f"{v:.4f}" if c == "fc" else f"{v:.2f}"
        return str(v)

    widths = {c: max(len(c), *(len(disp(r, c)) for r in rows)) if rows else len(c)
              for c in TABLE_COLUMNS}
    lines = ["  ".join(c.ljust(widths[c]) for c in TABLE_COLUMNS)]
    lines += ["  ".join(disp(r, c).ljust(widths[c]) for c in TABLE_COLUMNS) for r in rows]
    Path(txt_path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# heatmap (buffer times per position and workstation)


def _scale_color(t: float) -> str:
    # red (low) -> green (high), linear in t
    lo, hi = (214, 39, 40), (44, 160, 44)
    rgb = tuple(round(a + t * (b - a)) for a, b in zip(lo, hi))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def export_heatmap(inst: Instance, perm, csv_path, svg_path) -> np.ndarray:
    """Write the buffer-time grid as full-precision CSV and self-contained SVG.

    CSV rows are positions (1-based), columns workstations; values round-trip
    exactly through ``float(repr(v))``. The SVG draws one rect per cell with a
    red-to-green linear scale (mid color when all values are equal) and axis
    labels for positions and workstations.
    """
    perm = check_permutation(perm, inst.n_jobs)  # before any file is opened
    buf = inst.proc[perm] - inst.station_time  # (N, W), in permutation order
    n, w = buf.shape

    with open(csv_path, "w") as fh:
        fh.write("position," + ",".join(f"w{j + 1}" for j in range(w)) + "\n")
        for i in range(n):
            fh.write(str(i + 1) + "," + ",".join(repr(float(v)) for v in buf[i]) + "\n")

    vmin, vmax = float(buf.min()), float(buf.max())
    cell, margin = 22, 46
    width, height = margin + n * cell + 10, margin + w * cell + 10
    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(width), height=str(height),
                     viewBox=f"0 0 {width} {height}")
    title = ET.SubElement(svg, "text", x=str(margin), y="16")
    title.text = f"buffer time p - T_W, instance {inst.id}"
    for i in range(n):
        for j in range(w):
            t = 0.5 if vmax == vmin else (float(buf[i, j]) - vmin) / (vmax - vmin)
            ET.SubElement(svg, "rect", x=str(margin + i * cell), y=str(margin + j * cell),
                          width=str(cell), height=str(cell), fill=_scale_color(t))
    for i in range(n):
        lab = ET.SubElement(svg, "text", x=str(margin + i * cell + cell // 2),
                            y=str(margin - 6), fill="black",
                            attrib={"text-anchor": "middle", "font-size": "9"})
        lab.text = str(i + 1)
    for j in range(w):
        lab = ET.SubElement(svg, "text", x=str(margin - 6),
                            y=str(margin + j * cell + cell // 2 + 3), fill="black",
                            attrib={"text-anchor": "end", "font-size": "9"})
        lab.text = f"w{j + 1}"
    ET.ElementTree(svg).write(svg_path, encoding="unicode", xml_declaration=True)
    return buf


__all__ = [
    "GeneratorConfig", "generate_instance", "generate_instances", "pool_files", "load_pool",
    "pool_digest", "BRUTE_FORCE_MAX_JOBS", "OBJECTIVES", "ORACLE_CHUNK", "brute_force_best",
    "ORACLE_MAX_JOBS", "ORACLE_REL_TOL", "held_karp_best", "BenchmarkRow",
    "TABLE_COLUMNS", "method_name", "run_benchmark", "export_heatmap",
]
