"""Synthetic instances, brute-force oracle, benchmark harness, heatmap export.

The generator replaces a proprietary dataset: processing times are uniform
with a configurable floor fraction of the station time, and due dates are
anchored to the completion times of a hidden random permutation plus slack and
noise, guaranteeing a mix of tight and slack due dates. Every generated file
passes validation and is byte-identical for a fixed seed.

The brute-force oracle enumerates permutations in lexicographic order and
scores them in blocks of ``ORACLE_CHUNK`` with the lookup tables of
:class:`swapsched.schedcore.ObjectiveTables`, one fancy-indexing pass per
block instead of a Python loop per permutation.

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
import logging
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import inference, policynet
from .baselines import SAConfig, SHConfig, sa_optimize, sh_schedule
from .schedcore import (Instance, Job, ObjectiveConfig, ObjectiveTables,
                        combined_objective, edd_sort, load_instance, save_instance)

log = logging.getLogger(__name__)


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
        if self.n_jobs < 2 or self.n_stations < 1:
            raise ValueError("need n_jobs >= 2 and n_stations >= 1")
        if not 0 <= self.p_min_frac <= 1:
            raise ValueError("p_min_frac must lie in [0, 1]")
        if self.station_time_s <= 0:
            raise ValueError("station_time_s must be positive")
        if self.due_noise_s < 0:
            raise ValueError("due_noise_s must be non-negative")
        if self.count < 1:
            raise ValueError("count must be >= 1")


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


def load_pool(dir_or_paths) -> list[Instance]:
    """Load a pool from a manifest directory, a directory, or explicit paths."""
    if isinstance(dir_or_paths, (list, tuple)):
        return [load_instance(p) for p in dir_or_paths]
    d = Path(dir_or_paths)
    manifest = d / "manifest.json"
    if manifest.exists():
        names = json.loads(manifest.read_text())["files"]
        return [load_instance(d / n) for n in names]
    return [load_instance(p) for p in sorted(d.glob("*.json")) if p.name != "manifest.json"]


def pool_digest(dir_or_paths) -> str:
    insts = load_pool(dir_or_paths)
    h = hashlib.sha256()
    for inst in insts:
        h.update(inst.id.encode())
        h.update(inst.proc.tobytes())
        h.update(inst.due.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# brute force

BRUTE_FORCE_MAX_JOBS = 9
# permutations per batched evaluation; larger blocks buy little speed and
# raise peak memory
ORACLE_CHUNK = 1024


def brute_force_best(inst: Instance, obj_cfg: ObjectiveConfig, objective: str = "fc",
                     ref_perm=None):
    """Exhaustive search over all N! permutations (N <= 9).

    Maximizes ``fc`` or ``f2``, minimizes ``f1``; ties keep the
    lexicographically smallest permutation. Returns ``(perm, value)``.
    Permutations are enumerated in lexicographic order and evaluated in
    blocks of ``ORACLE_CHUNK`` through :class:`ObjectiveTables`; the first
    optimum of a block is taken, and a later block replaces the incumbent
    only when strictly better.
    """
    n = inst.n_jobs
    if n > BRUTE_FORCE_MAX_JOBS:
        raise ValueError(
            f"brute force refused for N={n} > {BRUTE_FORCE_MAX_JOBS}: "
            f"{n}! permutations; use a heuristic or a smaller instance")
    if objective not in ("fc", "f1", "f2"):
        raise ValueError(f"objective must be fc, f1 or f2, got {objective!r}")

    tables = ObjectiveTables(inst, obj_cfg, ref_perm)
    column = ("fc", "f1", "f2").index(objective)
    minimize = objective == "f1"
    perms = itertools.permutations(range(n))
    best_perm, best_val = None, None
    while True:
        block = np.fromiter(itertools.chain.from_iterable(itertools.islice(perms, ORACLE_CHUNK)),
                            dtype=np.int64).reshape(-1, n)
        if not len(block):
            return best_perm, best_val
        vals = tables.evaluate(block)[column]
        j = int(np.argmin(vals) if minimize else np.argmax(vals))
        val = float(vals[j])
        if best_val is None or (val < best_val if minimize else val > best_val):
            best_val = val
            best_perm = block[j].copy()


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
                            seed: int):
    """Returns (best_perm, report, steps)."""
    t = method["type"]
    sigma0 = edd_sort(inst)
    if t == "identity":
        return sigma0, combined_objective(inst, sigma0, sigma0, obj_cfg), 0
    if t == "sh":
        cfg = SHConfig(window=method["window"], max_skip=method["max_skip"])
        perm = sh_schedule(inst, cfg)
        return perm, combined_objective(inst, perm, sigma0, obj_cfg), 0
    if t == "sa":
        cfg = SAConfig(t_max=method.get("t_max", 72.0), t_min=method.get("t_min", 2.2e-61),
                       steps=method["steps"], seed=seed)
        stride = method.get("trace_stride", 0)
        res = sa_optimize(inst, sigma0, cfg, obj_cfg, trace_stride=stride)
        if stride and method.get("_trace_dir"):
            name = f"sa_trace_{method_name(method)}_{inst.id}.jsonl"
            with open(Path(method["_trace_dir"]) / name, "w") as fh:
                for step, fc, accepted in res.trace:
                    fh.write(json.dumps({"step": step, "fc": fc,
                                         "accepted": accepted}) + "\n")
        return res.best_perm, res.best_report, cfg.steps
    if t in ("rl_mr", "random_mr"):
        icfg = inference.InferenceConfig(
            runs_per_policy=method.get("runs_per_policy", 30),
            step_budget=method.get("step_budget", 10), seed=seed)
        if t == "rl_mr":
            params, net_cfg, _ = policynet.load_checkpoint(method["checkpoint"])
            digest = policynet.checkpoint_digest(method["checkpoint"])
        else:
            params = net_cfg = None  # uniform pair distribution
            digest = ""
        res = inference.multirun(inst, params, net_cfg, icfg, obj_cfg,
                                 strategy_name=method_name(method), checkpoint_digest=digest)
        return res.best_perm, res.best_report, res.steps
    if t == "rl_mpmr":
        icfg = inference.InferenceConfig(
            runs_per_policy=method.get("runs_per_policy", 30),
            step_budget=method.get("step_budget", 10), seed=seed)
        res = inference.multipolicy(inst, method["checkpoints"], icfg, obj_cfg,
                                    strategy_name=method_name(method))
        return res.best_perm, res.best_report, res.steps
    raise ValueError(f"unknown benchmark method type {t!r}")


def _resolve_methods(methods: list[dict]) -> list[dict]:
    """Expand checkpoint directories and flag methods missing their files."""
    out = []
    for m in methods:
        m = dict(m)
        if m["type"] == "rl_mpmr" and "checkpoints" not in m:
            ckpt_dir = Path(m["checkpoint_dir"])
            paths = sorted(str(p) for p in ckpt_dir.glob("*.ckpt"))
            m["checkpoints"] = inference.select_checkpoints(paths, m.get("n_earlier", 5))
        missing = False
        if m["type"] == "rl_mr":
            missing = not Path(m.get("checkpoint", "")).exists()
        elif m["type"] == "rl_mpmr":
            missing = not m["checkpoints"] or not all(Path(p).exists() for p in m["checkpoints"])
        m["_skip"] = missing
        out.append(m)
    return out


def run_benchmark(splits: dict, methods: list[dict], obj_cfg: ObjectiveConfig,
                  seed: int, out_dir) -> list[BenchmarkRow]:
    """Run every method on every split; write table, JSONL, and timings.

    ``splits`` maps split name to a list of instances. Methods missing their
    checkpoints are kept as warning rows with empty metrics. Outputs:
    ``results.jsonl`` (one record per method x instance), ``table.csv`` and
    ``table.txt`` (deterministic), ``timings.csv`` (wall-clock sidecar,
    reported but never asserted on).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    methods = _resolve_methods(methods)
    for m in methods:
        if m["type"] == "sa" and m.get("trace_stride"):
            m["_trace_dir"] = str(out_dir)
    rows: list[BenchmarkRow] = []
    timings = []
    with open(out_dir / "results.jsonl", "w") as jl:
        for m in methods:
            name = method_name(m)
            if m["_skip"]:
                log.warning("skipping %s: checkpoint file(s) missing", name)
                print(f"warning: skipping {name}: checkpoint file(s) missing", file=sys.stderr)
                for split_idx, split in enumerate(sorted(splits)):
                    rows.append(BenchmarkRow(name, split, None, None, None, None, None, skipped=True))
                continue
            for split_idx, split in enumerate(sorted(splits)):
                insts = splits[split]
                fcs, f1s, f2s, steps_used = [], [], [], 0
                t0 = time.perf_counter()
                for inst_idx, inst in enumerate(insts):
                    iseed = _instance_seed(seed, split_idx, inst_idx)
                    perm, report, steps_used = _run_method_on_instance(m, inst, obj_cfg, iseed)
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


def buffer_matrix(inst: Instance, perm) -> np.ndarray:
    """(N, W) matrix of p - station_time for the jobs in permutation order."""
    perm = np.asarray(perm, dtype=np.int64)
    return inst.proc[perm] - inst.station_time


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
    buf = buffer_matrix(inst, perm)
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


def read_heatmap_csv(path) -> np.ndarray:
    """Parse a heatmap CSV back into the (N, W) buffer matrix."""
    lines = Path(path).read_text().strip().split("\n")
    return np.array([[float(x) for x in line.split(",")[1:]] for line in lines[1:]])


__all__ = [
    "GeneratorConfig", "generate_instance", "generate_instances", "load_pool",
    "pool_digest", "BRUTE_FORCE_MAX_JOBS", "ORACLE_CHUNK", "brute_force_best", "BenchmarkRow",
    "TABLE_COLUMNS", "method_name", "run_benchmark", "buffer_matrix",
    "export_heatmap", "read_heatmap_csv",
]
