"""Benchmark of the ``swapsched`` command on three fixed workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one process each

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced iterations (set-up plus one
round each) and reports per-layer call counts and self times, the counters
taken at the same boundaries, and the tracing overhead. Every run checks
the program's outputs outside the timed region. The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is non-zero when any check failed. A fuller report with
sample counts, percentiles and run metadata goes to ``perfbench/out/``.

The benchmark never sets the BLAS thread count; it records the count in
effect.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("train-desk", "infer-paper", "search-paper")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 36
SETUP_REPEATS = 5
MIN_ROUNDS = 3
MIN_TRACE_PAIRS = 2
PROBE_REPS = 9
# the speed calibrated timings are quoted at, as the time of one probe loop;
# about its median on an unloaded 2-vCPU x86-64 machine
PROBE_NOMINAL_S = 0.016

# every end-to-end metric the command prints; the JSON result line carries
# the ones BENCHMARK.json lists, which every workload measures
NAMED_UNITS = {
    "setup_s": "s", "round_s": "s", "peak_rss_mb": "MB", "setup_raw_s": "s",
    "round_raw_s": "s", "speed_factor": "ratio", "failed_frac": "ratio",
    "train_env_steps_per_s": "1/s", "mr_ms_per_instance": "ms",
    "mpmr_ms_per_instance": "ms", "sa_us_per_step": "us", "sa_fc_mean": "fc",
    "rand_mr_ms_per_instance": "ms", "oracle_s_per_instance": "s",
}
# per-layer metrics that are counts of work; they must repeat exactly
COUNT_SUFFIXES = (".calls", ".rows", ".perms", ".actor_resets", ".exp_clamp_warnings")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# metadata


def git_revision():
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Identifies the program in checkouts that are not git repositories."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "swapsched").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def blas_info() -> dict:
    """BLAS library, version and the thread count in effect for this process."""
    info = {"name": None, "version": None, "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def metadata(args) -> dict:
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# statistics


def summarize(values: list) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples above it."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n}
    for p in (99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            out[f"p{p}"] = vals[min(n - 1, round(p / 100 * (n - 1)))]
            break
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# machine-speed calibration
#
# The host of the machine this benchmark was built on is shared. The same
# loop ran 1x to 2x slower from one stretch of seconds or minutes to the
# next, and CPU time tracked wall time: execution slowed, the process was
# not descheduled. Over ten runs, the raw median round time of a workload
# spread by up to 45 % (quartile distance over median). A fixed probe loop,
# timed between every two measured intervals, slows down with the machine.
# Each interval's calibrated time is its raw time x PROBE_NOMINAL_S / (median
# probe time just before and just after it): the time at the probe's nominal
# speed. The probe uses no swapsched code, so a change to the program moves
# only the raw time. Raw times are printed and reported next to the
# calibrated ones.


def _probe_loop() -> float:
    # interpreter plus small-array numpy work, as in the objective and SA
    # loops, then paper-net-shaped matmuls, as in the forward pass
    x = np.arange(20.0)
    acc = 0.0
    for i in range(1500):
        acc += float(np.abs(x - i).sum())
    h = np.full((20, 128), 1.0, dtype=np.float32)
    w = np.full((128, 512), 1 / 128, dtype=np.float32)  # keeps h at 1.0
    v = np.full((512, 128), 1 / 512, dtype=np.float32)
    for _ in range(100):
        h = np.maximum(h @ w, 0) @ v
    return acc + float(h.sum())


def probe_times() -> list:
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        _probe_loop()
        times.append(time.perf_counter() - t0)
    return times


def speed_factor(before: list, after: list) -> float:
    """PROBE_NOMINAL_S over the median probe time around one interval."""
    return PROBE_NOMINAL_S / statistics.median(before + after)


# ---------------------------------------------------------------------------
# runs


class Run:
    """Counts operations and failures and collects samples across rounds."""

    def __init__(self, workload, work: Path):
        self.wl = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digest = None
        self.samples: dict[str, list] = {}
        self.probes: list[list] = []  # probe times, one list per gap
        self._n_setup = 0

    def probe(self) -> list:
        """Time the probe loop in the gap between two measured intervals."""
        self.probes.append(probe_times())
        return self.probes[-1]

    def fresh_setup(self) -> None:
        """Set the workload up in a new directory and drop the previous one."""
        old = self.wl.dir
        self.wl.setup(self.work / f"setup{self._n_setup}")
        self._n_setup += 1
        if old is not None:
            shutil.rmtree(old, ignore_errors=True)

    def account(self, res, label: str, keep_samples: bool = True) -> None:
        """Check a round, compare it with the first round, record its samples."""
        self.wl.check(res)
        if not res.problems:
            if self.first_digest is None:
                self.first_digest = res.digest
            elif res.digest != self.first_digest:
                res.problems.append("result files differ from the first round of this seed")
                res.failed = res.ops
        self.attempted += res.ops
        self.failed += res.failed
        self.problems += [f"{label}: {p}" for p in res.problems]
        if keep_samples:
            for k, v in res.samples.items():
                self.samples.setdefault(k, []).extend(v)


def fresh_process_setups(run: Run, args) -> tuple[list, list]:
    """Times from spawning a process to the moment its first round could start.

    Returns the raw times and their speed factors.
    """
    times, factors = [], []
    before = run.probe()
    for k in range(SETUP_REPEATS):
        d = run.work / f"child{k}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), args.workload, str(args.seed), str(d)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr[-2000:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
        shutil.rmtree(d, ignore_errors=True)
        after = run.probe()
        factors.append(speed_factor(before, after))
        before = after
    return times, factors


def run_untraced(run: Run, args) -> dict:
    setups, setup_factors = fresh_process_setups(run, args)
    run.fresh_setup()
    before = run.probe()
    rounds, round_factors = [], []
    t0 = time.perf_counter()
    # closed loop; stop before a round that would overrun the measuring time
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() - t0 + statistics.median(rounds) <= args.seconds):
        res = run.wl.run_round()
        after = run.probe()
        rounds.append(res.wall_s)
        round_factors.append(speed_factor(before, after))
        before = after
        run.account(res, f"round {len(rounds)}")
    run.samples.update({
        "setup_raw_s": setups, "round_raw_s": rounds,
        "speed_factor": setup_factors + round_factors,
        "setup_s": [t * f for t, f in zip(setups, setup_factors)],
        "round_s": [t * f for t, f in zip(rounds, round_factors)],
        "peak_rss_mb": [peak_rss_mb()]})
    return {k: statistics.median(run.samples[k]) for k in ("setup_s", "round_s", "peak_rss_mb")}


def layer_metrics(tracer, res) -> dict:
    """Per-layer metrics of one traced iteration."""
    from spans import span_names

    tot, c = tracer.totals(), tracer.counts
    m = {}
    for name in span_names():
        m[f"{name}.calls"] = tot[name][0]
        m[f"{name}.self_s"] = tot[name][1]
    steps, runs = c["baselines.sa_optimize.steps"], c["inference.runs"]
    # base of the two shares: wall time of the `swapsched train` calls
    train_wall = sum(call.wall_s for call in res.calls if call.argv[0] == "train")
    m.update({
        "schedcore.exp_clamp_warnings": c["schedcore.exp_clamp_warnings"],
        "policynet.forward.batched.rows": c["policynet.forward.batched.rows"],
        "baselines.sa_optimize.accept_ratio":
            c["baselines.sa_optimize.accepted"] / steps if steps else 0.0,
        "ppo.actor_resets": res.samples.get("ppo.actor_resets", [0])[0],
        "ppo.collect_share":
            tot["ppo.RolloutWorker.collect"][2] / train_wall if train_wall else 0.0,
        "ppo.update_share": tot["ppo.ppo_update"][2] / train_wall if train_wall else 0.0,
        "inference.improved_run_frac": c["inference.improved_runs"] / runs if runs else 0.0,
        "bench.brute_force_best.perms": c["bench.brute_force_best.perms"],
    })
    return m


def run_traced(run: Run, args) -> dict:
    from spans import Tracer

    walls = {"plain": [], "traced": []}  # calibrated by the probes around each
    per_iter, first_tracer = [], None
    run.probe()
    t0 = time.perf_counter()
    while (len(walls["traced"]) < MIN_TRACE_PAIRS
           or time.perf_counter() - t0 + walls["plain"][-1] + walls["traced"][-1] <= args.seconds):
        for mode in ("plain", "traced"):
            tracer = Tracer() if mode == "traced" else None
            t_it = time.perf_counter()
            with tracer or contextlib.nullcontext():
                run.fresh_setup()
                res = run.wl.run_round()
            wall = time.perf_counter() - t_it
            before = run.probes[-1]
            walls[mode].append(wall * speed_factor(before, run.probe()))
            run.account(res, f"{mode} iteration {len(walls[mode])}", keep_samples=not tracer)
            if tracer:
                per_iter.append(layer_metrics(tracer, res))
                if first_tracer is None:
                    first_tracer = tracer

    # self-check: every traced iteration of one seed does the same work
    counts = [k for k in per_iter[0] if k.endswith(COUNT_SUFFIXES)]
    for i, m in enumerate(per_iter[1:], start=2):
        diff = [k for k in counts if m[k] != per_iter[0][k]]
        if diff:
            run.problems.append(f"traced iteration {i}: counts differ from iteration 1: {diff}")
            run.failed += run.wl.ops_per_round()
    layer = {k: per_iter[0][k] if k in counts else statistics.median(m[k] for m in per_iter)
             for k in per_iter[0]}
    layer["tracing.overhead_frac"] = (statistics.median(walls["traced"])
                                      / statistics.median(walls["plain"]) - 1.0)
    first_tracer.write_spans(OUT / f"{run.wl.name}.spans.csv")
    run.samples["plain_iteration_s"] = walls["plain"]
    run.samples["traced_iteration_s"] = walls["traced"]
    return layer


def run_one(args, spec: dict) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    meta = metadata(args)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(WORKLOADS[args.workload](args.seed), work)
    try:
        if args.trace:
            metrics, wanted = run_traced(run, args), spec["per_layer"]
        else:
            metrics, wanted = run_untraced(run, args), spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.samples["failed_frac"] = [run.failed / run.attempted]

    units = {m["name"]: m["unit"] for m in wanted}
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    named = {k: summarize(v) for k, v in run.samples.items() if k in NAMED_UNITS}
    report_path = OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    report_path.write_text(json.dumps(
        {"meta": meta, "named": named, "samples": run.samples, "probes": run.probes,
         "problems": run.problems, "result": result}, indent=1, sort_keys=True) + "\n")

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for k in NAMED_UNITS:
        if k in named:
            s = named[k]
            tail = "".join(f", {q} {v:.6g}" for q, v in s.items() if q.startswith("p"))
            print(f"{k:<26} {s['median']:>14.6g} {NAMED_UNITS[k]:<6} "
                  f"(median of n={s['n']}{tail})")
    if args.trace:
        print("# per layer: calls per traced iteration, self seconds as the median over "
              "traced iterations. One process, synchronous calls: wait time is zero.")
        for k in units:
            print(f"{k:<48} {metrics[k]:>14.6g} {units[k]}")
    for p in run.problems:
        print(f"CHECK FAILED: {p}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"# report {report_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    code, attempted, failed, metrics = 0, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            code = code or proc.returncode
        if not lines or not lines[-1].startswith("{"):
            return code or 1
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": code == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
