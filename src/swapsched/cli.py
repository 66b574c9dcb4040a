"""Command-line entry point.

Every subcommand reads a JSON config file (``--config``) and accepts a
``--seed`` override. Exit codes: 0 success, 1 usage error, 2 data error
(unreadable/invalid inputs), 3 runtime fault.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bench, inference, policynet, ppo
from .schedcore import (ObjectiveConfig, edd_sort, load_instance,
                        validate_instance)

USAGE_ERROR, DATA_ERROR, RUNTIME_ERROR = 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _dataclass_from(cls, data: dict, override_seed=None):
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"unknown {cls.__name__} field(s): {sorted(unknown)}")
    kwargs = dict(data)
    if override_seed is not None and "seed" in names:
        kwargs["seed"] = override_seed
    return cls(**kwargs)


def _load_config(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ValueError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc


def _pool_from_config(cfg: dict) -> list:
    if "instances" in cfg:
        return bench.load_pool(cfg["instances"])
    if "instance_dir" in cfg:
        return bench.load_pool(cfg["instance_dir"])
    raise ValueError("config needs instances or instance_dir")


def _objective(cfg: dict) -> ObjectiveConfig:
    return _dataclass_from(ObjectiveConfig, cfg.get("objective", {}))


def cmd_generate(cfg: dict, seed) -> int:
    gen = _dataclass_from(bench.GeneratorConfig, cfg["generator"], override_seed=seed)
    manifest = bench.generate_instances(gen, cfg["out_dir"])
    print(f"wrote {len(manifest['files'])} instance(s) to {cfg['out_dir']} "
          f"(config digest {manifest['config_digest'][:12]})")
    return 0


def cmd_validate(cfg: dict, seed) -> int:
    paths = cfg.get("instances") or sorted(
        p for p in Path(cfg["instance_dir"]).glob("*.json") if p.name != "manifest.json")
    bad = 0
    for path in paths:
        try:
            data = json.loads(Path(path).read_text())
            from .schedcore import instance_from_dict
            inst = instance_from_dict(data)
            violations = validate_instance(inst)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"INVALID {path}: {exc}")
            bad += 1
            continue
        if violations:
            bad += 1
            for v in violations:
                print(f"INVALID {path}: job={v.job} workstation={v.workstation}: {v.reason}")
        else:
            print(f"OK {path}")
    return DATA_ERROR if bad else 0


def cmd_train(cfg: dict, seed) -> int:
    pool = _pool_from_config(cfg)
    obj_cfg = _objective(cfg)
    net_raw = dict(cfg.get("net", {}))
    net_raw.setdefault("d_in", 2 * pool[0].n_stations + 2)
    net_cfg = _dataclass_from(policynet.NetConfig, net_raw)
    ppo_cfg = _dataclass_from(ppo.PPOConfig, cfg.get("ppo", {}), override_seed=seed)
    ep_cfg = _dataclass_from(ppo.EpisodeConfig, cfg.get("episode", {}))
    digest = bench.pool_digest(cfg.get("instances") or cfg.get("instance_dir"))
    result = ppo.train(pool, net_cfg, ppo_cfg, ep_cfg, obj_cfg, cfg["out_dir"],
                       pool_digest=digest, resume_from=cfg.get("resume_from"))
    print(f"trained {result.env_steps} env steps; final checkpoint {result.final_checkpoint}")
    return 0


def cmd_infer(cfg: dict, seed) -> int:
    pool = _pool_from_config(cfg)
    obj_cfg = _objective(cfg)
    icfg_raw = dict(cfg.get("inference", {}))
    icfg = _dataclass_from(inference.InferenceConfig, icfg_raw, override_seed=seed)
    strategy = cfg.get("strategy", "mr")
    out_path = cfg.get("out", "results.jsonl")
    records = []
    if strategy == "mr":
        ckpt = cfg["checkpoint"]
        params, net_cfg, _ = policynet.load_checkpoint(ckpt)
        digest = policynet.checkpoint_digest(ckpt)
        for inst in pool:
            records.append(inference.multirun(inst, params, net_cfg, icfg, obj_cfg,
                                              checkpoint_digest=digest).to_record())
    elif strategy == "mpmr":
        paths = cfg.get("checkpoints")
        if not paths:
            all_ckpts = sorted(str(p) for p in Path(cfg["checkpoint_dir"]).glob("*.ckpt"))
            paths = inference.select_checkpoints(all_ckpts, cfg.get("n_earlier", 5))
        if not paths:
            raise ValueError("no checkpoints found for mpmr strategy")
        for inst in pool:
            records.append(inference.multipolicy(inst, paths, icfg, obj_cfg).to_record())
    else:
        raise ValueError(f"unknown strategy {strategy!r} (use 'mr' or 'mpmr')")
    with open(out_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"wrote {len(records)} result record(s) to {out_path}")
    return 0


def cmd_bench(cfg: dict, seed) -> int:
    obj_cfg = _objective(cfg)
    splits = {name: bench.load_pool(spec.get("instances") or spec["instance_dir"])
              for name, spec in cfg["splits"].items()}
    rows = bench.run_benchmark(splits, cfg["methods"], obj_cfg,
                               seed if seed is not None else cfg.get("seed", 0),
                               cfg["out_dir"])
    print(Path(cfg["out_dir"], "table.txt").read_text(), end="")
    return 0


def cmd_heatmap(cfg: dict, seed) -> int:
    inst = load_instance(cfg["instance"])
    perm_spec = cfg.get("permutation", "edd")
    if perm_spec == "edd":
        perm = edd_sort(inst)
    elif (isinstance(perm_spec, list) and all(type(j) is int for j in perm_spec)
          and sorted(perm_spec) == list(range(1, inst.n_jobs + 1))):
        perm = np.array(perm_spec, dtype=np.int64) - 1
    else:  # a digit string, floats, bools, or integers other than 1..N once each
        raise ValueError(f"not a valid permutation of {inst.n_jobs} jobs: {perm_spec!r} "
                         '(use "edd" or a list of 1-based job indices)')
    base = cfg["out_base"]
    bench.export_heatmap(inst, perm, f"{base}.csv", f"{base}.svg")
    print(f"wrote {base}.csv and {base}.svg")
    return 0


def cmd_oracle(cfg: dict, seed) -> int:
    inst = load_instance(cfg["instance"])
    obj_cfg = _objective(cfg)
    objective = cfg.get("objective_name", "fc")
    perm, value = bench.held_karp_best(inst, obj_cfg, objective=objective)
    record = {"instance_id": inst.id, "objective": objective, "value": value,
              "best_permutation_1based": [int(j) + 1 for j in perm]}
    out = json.dumps(record, sort_keys=True)
    if "out" in cfg:
        Path(cfg["out"]).write_text(out + "\n")
    print(out)
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "validate": cmd_validate,
    "train": cmd_train,
    "infer": cmd_infer,
    "bench": cmd_bench,
    "heatmap": cmd_heatmap,
    "oracle": cmd_oracle,
}


CONFIG_DOCS = {
    "generate": """\
config fields:
  generator     object: n_jobs, n_stations, station_time_s, p_min_frac,
                due_slack_s, due_noise_s, seed, count
  out_dir       directory for instance files + manifest.json""",
    "validate": """\
config fields:
  instances     list of instance file paths, OR
  instance_dir  directory of instance files""",
    "train": """\
config fields:
  instances | instance_dir   training pool
  objective     object: alpha1, alpha2, tardiness_scale
  net           object: d_h, n_heads, n_layers, d_ff (d_in derived from W)
  ppo           object: clip_param, gae_lambda, train_batch_size,
                minibatch_size, epochs_per_batch, lr_start, lr_end,
                lr_warmup_env_steps, total_env_steps, value_coeff,
                entropy_coeff, entropy_warmup_env_steps, grad_clip_norm,
                checkpoint_every, optimizer, adam_beta1, adam_beta2,
                adam_eps, n_rollout_workers, seed
  episode       object: step_budget, gamma, reward_mode
  out_dir       checkpoints + metrics.jsonl destination
  resume_from   optional checkpoint path to continue exactly""",
    "infer": """\
config fields:
  instances | instance_dir   evaluation instances
  strategy      "mr" (single checkpoint) or "mpmr" (checkpoint set)
  checkpoint    path (mr) | checkpoints: [paths] or checkpoint_dir (mpmr)
  n_earlier     mpmr: earlier checkpoints besides the final one (default 5)
  inference     object: runs_per_policy, step_budget, greedy, seed
  objective     object: alpha1, alpha2, tardiness_scale
  out           result JSONL path""",
    "bench": """\
config fields:
  splits        {name: {instances|instance_dir}} per split
  methods       list of method objects:
                {type: identity} | {type: sh, window, max_skip}
                {type: sa, steps, t_max, t_min, trace_stride}
                {type: random_mr, runs_per_policy, step_budget}
                {type: rl_mr, checkpoint, runs_per_policy, step_budget}
                {type: rl_mpmr, checkpoints|checkpoint_dir, n_earlier, ...}
  objective     object: alpha1, alpha2, tardiness_scale
  seed          base seed (per-instance streams derived from it)
  out_dir       results.jsonl, table.csv, table.txt, timings.csv""",
    "heatmap": """\
config fields:
  instance      instance file path
  permutation   "edd" or a 1-based job-index list
  out_base      writes <out_base>.csv and <out_base>.svg""",
    "oracle": f"""\
config fields:
  instance        instance file path (N <= {bench.ORACLE_MAX_JOBS})
  objective_name  "fc" | "f1" | "f2"
  objective       object: alpha1, alpha2, tardiness_scale
  out             optional JSON output path""",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="swapsched",
                     description="Swap-based improvement heuristics for paced flow-shop scheduling")
    sub = parser.add_subparsers(dest="command")
    helps = {
        "generate": "write synthetic instance files plus a manifest",
        "validate": "check instance files against the data invariants",
        "train": "train the swap policy with PPO and save checkpoints",
        "infer": "run multirun/multipolicy search with trained checkpoints",
        "bench": "run the benchmark protocol over instance splits",
        "heatmap": "export the buffer-time heatmap (CSV + SVG) of a permutation",
        "oracle": f"exact optimum by dynamic programming (N <= {bench.ORACLE_MAX_JOBS})",
    }
    for name, h in helps.items():
        p = sub.add_parser(name, help=h, epilog=CONFIG_DOCS[name],
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed field of the config")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return USAGE_ERROR
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        cfg = _load_config(args.config)
        return COMMANDS[args.command](cfg, args.seed)
    except (ValueError, KeyError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except Exception as exc:  # runtime fault
        print(f"runtime fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
