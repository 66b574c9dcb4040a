"""The three benchmark workloads and their output checks.

Each workload drives the public entry point ``swapsched.cli.main`` in
process, one call at a time (closed loop, single process, one rollout
worker, no executor). Set-up writes generated instance files, configs and
checkpoints into a work directory; the program only ever receives those
files. A *round* is the fixed sequence of CLI calls of the workload; every
round of a run reads the same inputs with the same seed, so every round must
write byte-identical result files.

An *operation* is one instance solved by one method, one oracle instance, or
one PPO update. A failed call fails every operation of its round; a failed
output check fails the operations it covers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from swapsched import baselines, cli, policynet
from swapsched.bench import method_name
from swapsched.schedcore import (ObjectiveConfig, check_permutation,
                                 combined_objective, edd_sort, load_instance,
                                 state_features)

OBJ = ObjectiveConfig()  # the CLI default objective, written into every config
OBJ_DICT = asdict(OBJ)
FC_TOL = 1e-9
# methods that return the best permutation visited, the due-date start
# included, so their fc is never negative; SH constructs a new sequence and
# may score below the due-date sort (the bench table counts that as no_impr)
START_KEPT = {"identity", "sa", "random_mr", "rl_mr", "rl_mpmr"}

# train-desk: the acceptance test's desk-scale setup, shortened to one
# update per call so that a run holds many short rounds; checkpoint_every =
# total writes only the final checkpoint
DESK_GEN = dict(n_jobs=6, n_stations=3, due_slack_s=0.0, due_noise_s=700.0,
                p_min_frac=0.0, count=50)
DESK_NET = dict(d_h=32, n_heads=2, n_layers=2, d_ff=64)
DESK_BATCH = 1000
DESK_STEPS = 1000
DESK_PPO = dict(total_env_steps=DESK_STEPS, train_batch_size=DESK_BATCH,
                minibatch_size=100, epochs_per_batch=10, lr_start=5e-4, lr_end=2e-5,
                lr_warmup_env_steps=10_000, value_coeff=0.25, grad_clip_norm=1.0,
                entropy_coeff=0.1, entropy_warmup_env_steps=30_000,
                checkpoint_every=DESK_STEPS, n_rollout_workers=1)

# paper scale: N=20 jobs, W=12 stations, 208 s window (generator defaults)
PAPER_GEN = dict(n_jobs=20, n_stations=12, station_time_s=208.0)
PAPER_NET = dict(d_in=2 * 12 + 2, d_h=128, n_heads=2, n_layers=2, d_ff=512)
RUNS, STEP_BUDGET = 30, 10
INFER_INSTANCES = 3
N_POLICIES = 3

SEARCH_INSTANCES = 3
SA_STEPS = 10_000
ORACLE_GEN = dict(n_jobs=8, n_stations=12, station_time_s=208.0)
ORACLE_INSTANCES = 4
SA_CHECK_STEPS = 300


@dataclass
class Call:
    argv: list
    code: int
    wall_s: float
    out: str


@dataclass
class RoundResult:
    calls: list
    wall_s: float
    ops: int
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    samples: dict = field(default_factory=dict)  # named metric -> values


def run_cli(argv: list) -> Call:
    """One timed ``swapsched`` call; its console output is captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    return Call(argv, code, wall, buf.getvalue())


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return str(path)


def _tree_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class Workload:
    """Base: set-up, one round, output checks. Subclasses fill in the parts."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.dir: Path | None = None

    # set-up ---------------------------------------------------------------

    def setup(self, work: Path) -> None:
        """Write every input of a round into ``work``; ends with a warm-up."""
        self.dir = work
        work.mkdir(parents=True)
        self._setup_inputs(work)
        for d in self._instance_dirs():
            cfg = _write_json(work / f"validate_{d.name}.json", {"instance_dir": str(d)})
            call = run_cli(["validate", "--config", cfg])
            if call.code != 0:
                raise RuntimeError(f"generated instances failed validation:\n{call.out}")

    def _generate(self, out: Path, gen: dict) -> Path:
        cfg = _write_json(out.parent / f"gen_{out.name}.json",
                          {"generator": {**gen, "seed": self.seed}, "out_dir": str(out)})
        call = run_cli(["generate", "--config", cfg])
        if call.code != 0:
            raise RuntimeError(f"instance generation failed:\n{call.out}")
        return out

    # one round ------------------------------------------------------------

    def run_round(self) -> RoundResult:
        """The timed part: every CLI call of one round, back to back."""
        for d in self._output_dirs():
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        argvs = self._round_argv()
        t0 = time.perf_counter()
        calls = [run_cli(argv) for argv in argvs]
        wall = time.perf_counter() - t0
        return RoundResult(calls=calls, wall_s=wall, ops=self.ops_per_round())

    def check(self, res: RoundResult) -> None:
        """Untimed: check the round's outputs and digest its result files.

        A non-zero exit code fails every operation of the round.
        """
        bad_calls = [c for c in res.calls if c.code != 0]
        for c in bad_calls:
            res.problems.append(f"exit code {c.code} from {c.argv[0]}: {c.out.strip()[-500:]}")
        try:
            self._check(res)
            res.digest = _tree_digest(self._result_files())
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            res.problems.append(f"output check raised {type(exc).__name__}: {exc}")
            res.failed = res.ops
        if bad_calls:
            res.failed = res.ops
        res.failed = min(res.failed, res.ops)

    # subclass hooks -------------------------------------------------------

    def _setup_inputs(self, work: Path) -> None:
        raise NotImplementedError

    def _instance_dirs(self) -> list:
        raise NotImplementedError

    def _output_dirs(self) -> list:
        raise NotImplementedError

    def _round_argv(self) -> list:
        raise NotImplementedError

    def ops_per_round(self) -> int:
        raise NotImplementedError

    def _check(self, res: RoundResult) -> None:
        raise NotImplementedError

    def _result_files(self) -> list:
        raise NotImplementedError

    # shared checks --------------------------------------------------------

    def _check_bench(self, res: RoundResult, out_dir: Path, inst_dir: Path,
                     methods: list) -> dict:
        """Check every bench record; returns ``{(method, instance_id): fc}``."""
        insts = {p.stem: load_instance(p) for p in sorted(inst_dir.glob("syn-*.json"))}
        start_kept = {method_name(m) for m in methods if m["type"] in START_KEPT}
        seen, bad = {}, 0
        path = out_dir / "results.jsonl"
        lines = path.read_text().splitlines() if path.exists() else []
        for line in lines:
            rec = json.loads(line)
            inst = insts[rec["instance_id"]]
            key = (rec["method"], rec["instance_id"])
            try:
                perm = check_permutation([j - 1 for j in rec["best_permutation_1based"]],
                                         inst.n_jobs)
                fc = combined_objective(inst, perm, edd_sort(inst), OBJ).fc
                if abs(fc - rec["fc"]) > FC_TOL * max(1.0, abs(fc)):
                    raise ValueError(f"fc {rec['fc']!r} != recomputed {fc!r}")
                if rec["method"] in start_kept and rec["fc"] < 0:
                    raise ValueError(f"negative fc {rec['fc']!r}")
            except ValueError as exc:
                res.problems.append(f"{key}: {exc}")
                bad += 1
                continue
            seen[key] = rec["fc"]
        res.failed += bad
        missing = len(methods) * len(insts) - len(seen) - bad
        if missing > 0:
            res.problems.append(f"{missing} bench record(s) missing from {path.name}")
            res.failed += missing
        return seen

    @staticmethod
    def _bench_wall_ms(out_dir: Path) -> dict:
        rows = (out_dir / "timings.csv").read_text().splitlines()[1:]
        return {r.split(",")[0]: float(r.split(",")[2]) for r in rows}


class TrainDesk(Workload):
    name = "train-desk"
    why = (f"swapsched train: 50 N=6 W=3 instances, d_h=32 net, {DESK_STEPS} env steps per "
           f"call at batch {DESK_BATCH}; the only workload that runs backward, Adam, GAE and "
           "the env")

    def _setup_inputs(self, work):
        self.inst_dir = self._generate(work / "instances", DESK_GEN)
        self.out = work / "train_out"
        self.cfg = _write_json(work / "train.json", {
            "instance_dir": str(self.inst_dir), "objective": OBJ_DICT,
            "net": DESK_NET, "ppo": {**DESK_PPO, "seed": self.seed},
            "episode": {"step_budget": STEP_BUDGET, "gamma": 0.99},
            "out_dir": str(self.out)})

    def _instance_dirs(self):
        return [self.inst_dir]

    def _output_dirs(self):
        return [self.out]

    def _round_argv(self):
        return [["train", "--config", self.cfg]]

    def ops_per_round(self):
        return DESK_STEPS // DESK_BATCH

    def _result_files(self):
        return sorted(p for p in self.out.iterdir() if p.is_file())

    def _check(self, res):
        rows = [json.loads(l) for l in (self.out / "metrics.jsonl").read_text().splitlines()]
        bad = [r for r in rows
               if not all(math.isfinite(r[k]) for k in ("policy_loss", "value_loss", "entropy"))]
        if bad or len(rows) != self.ops_per_round():
            res.problems.append(f"metrics.jsonl: {len(rows)} rows, {len(bad)} non-finite; "
                                f"expected {self.ops_per_round()} finite rows")
            res.failed += max(1, abs(self.ops_per_round() - len(rows)) + len(bad))
        ckpts = sorted(self.out.glob("*.ckpt"))
        if len(ckpts) != 1:
            res.problems.append(f"expected only the final checkpoint, found {len(ckpts)}")
            res.failed += 1
        else:
            params, net_cfg, _ = policynet.load_checkpoint(ckpts[0])
            inst = load_instance(next(self.inst_dir.glob("syn-*.json")))
            fm = state_features(inst, edd_sort(inst), OBJ, 0, STEP_BUDGET)
            out = policynet.forward(params, net_cfg, fm.per_job, fm.general)
            if not (np.all(np.isfinite(out.prob_matrix)) and math.isfinite(out.value)):
                res.problems.append("final checkpoint forwards to non-finite values")
                res.failed += 1
        res.samples["train_env_steps_per_s"] = [DESK_STEPS / res.calls[0].wall_s]
        res.samples["ppo.actor_resets"] = [rows[-1]["actor_resets"] if rows else 0]


class InferPaper(Workload):
    name = "infer-paper"
    why = (f"swapsched bench, RL-MR (1 ckpt) and RL-MPMR ({N_POLICIES} ckpts), {RUNS}x{STEP_BUDGET} "
           f"runs on {INFER_INSTANCES} N=20 W=12 instances, d_h=128 net; deployment latency, no "
           "backward, SA or swap deltas")

    def _setup_inputs(self, work):
        self.inst_dir = self._generate(work / "instances", {**PAPER_GEN, "count": INFER_INSTANCES})
        net_cfg = policynet.NetConfig(**PAPER_NET)
        ckpts = []
        for j in range(N_POLICIES):
            path = work / f"ckpt_{j}.ckpt"
            params = policynet.init_params(net_cfg, seed=N_POLICIES * self.seed + j)
            policynet.save_checkpoint(path, params, net_cfg, training_step=j)
            ckpts.append(str(path))
        self.out = work / "bench_out"
        self.methods = [
            {"type": "rl_mr", "checkpoint": ckpts[-1], "runs_per_policy": RUNS,
             "step_budget": STEP_BUDGET},
            {"type": "rl_mpmr", "checkpoints": ckpts, "runs_per_policy": RUNS,
             "step_budget": STEP_BUDGET},
        ]
        self.cfg = _write_json(work / "bench.json", {
            "splits": {"paper": {"instance_dir": str(self.inst_dir)}},
            "methods": self.methods, "objective": OBJ_DICT, "seed": self.seed,
            "out_dir": str(self.out)})

    def _instance_dirs(self):
        return [self.inst_dir]

    def _output_dirs(self):
        return [self.out]

    def _round_argv(self):
        return [["bench", "--config", self.cfg]]

    def ops_per_round(self):
        return len(self.methods) * INFER_INSTANCES

    def _result_files(self):
        return [self.out / n for n in ("results.jsonl", "table.csv", "table.txt")]

    def _check(self, res):
        fcs = self._check_bench(res, self.out, self.inst_dir, self.methods)
        for (method, iid), fc in sorted(fcs.items()):
            if method == "RL-MPMR" and ("RL-MR", iid) in fcs and fc < fcs[("RL-MR", iid)]:
                res.problems.append(f"{iid}: RL-MPMR fc {fc!r} < RL-MR fc {fcs[('RL-MR', iid)]!r}")
                res.failed += 1
        wall = self._bench_wall_ms(self.out)
        res.samples["mr_ms_per_instance"] = [wall["RL-MR"] / INFER_INSTANCES]
        res.samples["mpmr_ms_per_instance"] = [wall["RL-MPMR"] / INFER_INSTANCES]


class SearchPaper(Workload):
    name = "search-paper"
    why = (f"swapsched bench SA-{SA_STEPS}, SH n4ms4 and RAND-MR {RUNS}x{STEP_BUDGET} on "
           f"{SEARCH_INSTANCES} N=20 W=12 instances, plus swapsched oracle on {ORACLE_INSTANCES} "
           "N=8; classical comparators, policynet barely runs")

    def _setup_inputs(self, work):
        self.inst_dir = self._generate(work / "instances", {**PAPER_GEN, "count": SEARCH_INSTANCES})
        self.oracle_dir = self._generate(work / "oracle_instances",
                                         {**ORACLE_GEN, "count": ORACLE_INSTANCES})
        self.out = work / "bench_out"
        self.oracle_out = work / "oracle_out"
        self.methods = [
            {"type": "sa", "steps": SA_STEPS},
            {"type": "sh", "window": 4, "max_skip": 4},
            {"type": "random_mr", "runs_per_policy": RUNS, "step_budget": STEP_BUDGET},
        ]
        self.cfg = _write_json(work / "bench.json", {
            "splits": {"paper": {"instance_dir": str(self.inst_dir)}},
            "methods": self.methods, "objective": OBJ_DICT, "seed": self.seed,
            "out_dir": str(self.out)})
        self.oracle_cfgs = []
        self.sa_check = {}
        for p in sorted(self.oracle_dir.glob("syn-*.json")):
            self.oracle_cfgs.append(_write_json(work / f"oracle_{p.stem}.json", {
                "instance": str(p), "objective_name": "fc", "objective": OBJ_DICT,
                "out": str(self.oracle_out / p.name)}))

    def _instance_dirs(self):
        return [self.inst_dir, self.oracle_dir]

    def _output_dirs(self):
        return [self.out, self.oracle_out]

    def _round_argv(self):
        return ([["bench", "--config", self.cfg]]
                + [["oracle", "--config", c] for c in self.oracle_cfgs])

    def ops_per_round(self):
        return len(self.methods) * SEARCH_INSTANCES + ORACLE_INSTANCES

    def _result_files(self):
        return ([self.out / n for n in ("results.jsonl", "table.csv", "table.txt")]
                + sorted(self.oracle_out.glob("*.json")))

    def _sa_reference(self, inst) -> float:
        # SA-300 from the due-date sort; computed once per instance per set-up
        if inst.id not in self.sa_check:
            cfg = baselines.SAConfig(steps=SA_CHECK_STEPS, seed=self.seed)
            self.sa_check[inst.id] = baselines.sa_optimize(inst, edd_sort(inst), cfg, OBJ).best_report.fc
        return self.sa_check[inst.id]

    def _check(self, res):
        fcs = self._check_bench(res, self.out, self.inst_dir, self.methods)
        for p in sorted(self.oracle_dir.glob("syn-*.json")):
            inst = load_instance(p)
            out = self.oracle_out / p.name
            try:
                rec = json.loads(out.read_text())
                perm = check_permutation([j - 1 for j in rec["best_permutation_1based"]],
                                         inst.n_jobs)
                fc = combined_objective(inst, perm, edd_sort(inst), OBJ).fc
                if abs(fc - rec["value"]) > FC_TOL * max(1.0, abs(fc)):
                    raise ValueError(f"value {rec['value']!r} != its permutation's fc {fc!r}")
                sa = self._sa_reference(inst)
                if rec["value"] < sa - FC_TOL * max(1.0, abs(sa)):
                    raise ValueError(f"value {rec['value']!r} < SA-{SA_CHECK_STEPS} fc {sa!r}")
            except (OSError, ValueError, KeyError) as exc:
                res.problems.append(f"oracle {p.stem}: {exc}")
                res.failed += 1
        wall = self._bench_wall_ms(self.out)
        sa_name = f"SA-{SA_STEPS}"
        res.samples["sa_us_per_step"] = [wall[sa_name] * 1e3 / (SEARCH_INSTANCES * SA_STEPS)]
        res.samples["rand_mr_ms_per_instance"] = [wall["RAND-MR"] / SEARCH_INSTANCES]
        res.samples["oracle_s_per_instance"] = [c.wall_s for c in res.calls[1:]]
        sa_fcs = [fc for (m, _), fc in fcs.items() if m == sa_name]
        res.samples["sa_fc_mean"] = [float(np.mean(sa_fcs))] if sa_fcs else []


WORKLOADS = {w.name: w for w in (TrainDesk, InferPaper, SearchPaper)}
